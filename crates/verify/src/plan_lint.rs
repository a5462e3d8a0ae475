//! Static linting of the plans the real I/O engines emit.
//!
//! The unit tests in `sim_core::validate` cover the linter against
//! hand-built plans, seeded defects included; this test closes the other
//! half of the loop by running it over the *actual* plan DAGs produced by
//! [`cdd::IoSystem`] for every architecture and by
//! `nfs_sim::NfsSystem`: healthy reads (zero-block to stripe-straddling)
//! and writes (small and full-stripe), flushes, degraded reads, and
//! rebuild plans, on a 4×2 cluster and on a single node with four disks
//! (no peer, so no lock round). Any finding means an I/O engine emits a
//! plan the simulator could choke on.

#[cfg(test)]
mod tests {
    use cdd::{BlockStore, IoError};
    use cluster::ClusterConfig;
    use nfs_sim::{NfsConfig, NfsSystem};
    use raidx_core::Arch;
    use sim_core::{Engine, Plan};

    /// The plans linted so far, and why each rejected one was rejected.
    #[derive(Default)]
    struct Lint {
        checked: usize,
        findings: Vec<String>,
    }

    impl Lint {
        /// Lint the plan an I/O path emitted (or the error it returned).
        fn check(&mut self, engine: &Engine, name: String, plan: Result<Plan, IoError>) {
            self.checked += 1;
            let verdict = plan.map_err(|e| e.to_string()).and_then(|plan| {
                engine.validate(&plan).map_err(|errs| {
                    errs.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
                })
            });
            if let Err(e) = verdict {
                self.findings.push(format!("{name}: {e}"));
            }
        }

        /// Lint what a store emits through the [`BlockStore`] surface: a
        /// small and a full-stripe write, reads of 0, 1, `stripe` and
        /// `stripe + 1` blocks over them, and the write-behind flush, from
        /// clients 1, 2 and 3 (wrapped onto the `nodes` the store has).
        fn store(
            &mut self,
            engine: &Engine,
            store: &mut dyn BlockStore,
            name: &str,
            stripe: usize,
            nodes: usize,
        ) {
            let bs = store.block_size() as usize;
            let (one, full) = (vec![0xAB; bs], vec![0xCD; bs * stripe]);
            self.check(engine, format!("{name} small write"), store.write(1 % nodes, 0, &one));
            let plan = store.write(2 % nodes, stripe as u64, &full);
            self.check(engine, format!("{name} stripe write"), plan);
            for n in [0, 1, stripe as u64, stripe as u64 + 1] {
                let plan = store.read(3 % nodes, 0, n).map(|(_, p)| p);
                self.check(engine, format!("{name} read {n} blocks"), plan);
            }
            self.check(engine, format!("{name} flush"), Ok(store.flush()));
        }
    }

    /// Every architecture's (and the NFS baseline's) read, write, flush and
    /// rebuild paths on a small cluster, and again on a single node for the
    /// layouts that fit one (RAID-x stripes across nodes and needs two).
    #[test]
    fn every_io_path_emits_a_valid_plan() {
        let mut lint = Lint::default();
        for (nodes, disks_per_node) in [(4, 2), (1, 4)] {
            for arch in Arch::ALL {
                if nodes == 1 && arch == Arch::RaidX {
                    continue;
                }
                let (engine, mut sys) = cdd::testkit::shape(nodes, disks_per_node, 4 << 20, arch);
                let name = match nodes {
                    1 => format!("{} 1x{disks_per_node}", sys.layout().name()),
                    _ => sys.layout().name().to_string(),
                };
                let stripe = sys.layout().stripe_width();
                lint.store(&engine, &mut sys, &name, stripe, nodes);

                // Degraded read + rebuild: every architecture survives one failure.
                let hw = sys.high_water();
                sys.fail_disk(0);
                let read = sys.read(1 % nodes, 0, hw).map(|(_, p)| p);
                lint.check(&engine, format!("{name} degraded read"), read);
                let rebuild = sys.rebuild_disk(1 % nodes, 0, None).and_then(|o| match o.lost {
                    Some(lb) => Err(IoError::DataLoss { lb }),
                    None => Ok(o.plan),
                });
                lint.check(&engine, format!("{name} rebuild"), rebuild);
            }
        }
        let mut engine = Engine::new();
        let mut cc = ClusterConfig::shape(4, 2);
        cc.disk.capacity = 4 << 20;
        let (stripe, nodes) = (cc.disks_per_node, cc.nodes);
        let mut nfs = NfsSystem::new(&mut engine, cc, NfsConfig::default());
        lint.store(&engine, &mut nfs, "NFS", stripe, nodes);
        assert!(lint.findings.is_empty(), "rejected plans:\n{}", lint.findings.join("\n"));
        // 4 architectures × 9 paths on the cluster, 3 × 9 on one node, 7 for NFS.
        assert_eq!(lint.checked, 70, "an I/O path dropped out of the lint");
    }
}
