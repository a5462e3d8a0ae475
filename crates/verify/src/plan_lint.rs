//! Pass 1 — static linting of the plans the real I/O engines emit.
//!
//! The unit tests in `sim_core::validate` cover the linter against
//! hand-built plans; this pass closes the other half of the loop by
//! running it over the *actual* plan DAGs produced by [`cdd::IoSystem`]
//! for every architecture and by [`nfs_sim::NfsSystem`]: healthy reads
//! (zero-block to stripe-straddling) and writes (small and full-stripe),
//! flushes, degraded reads, and rebuild plans, on a 4×2 cluster and on a
//! single node with four disks (no peer, so no lock round). Any defect
//! here means an I/O engine emits a plan the simulator could choke on.

use cdd::{BlockStore, IoError};
use cluster::ClusterConfig;
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::{Engine, Plan};

use crate::report::PassReport;

fn check_plan(report: &mut PassReport, engine: &Engine, name: String, plan: Result<Plan, IoError>) {
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => return report.fail(name, e.to_string()),
    };
    match engine.validate(&plan) {
        Ok(()) => report.ok(name, format!("{} leaves", plan.leaf_count())),
        Err(errs) => {
            let detail = errs.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ");
            report.fail(name, detail);
        }
    }
}

/// Lint what a store emits through the [`BlockStore`] surface: a small
/// and a full-stripe write, reads of 0, 1, `stripe` and `stripe + 1`
/// blocks over them, and the write-behind flush, from clients 1, 2 and 3
/// (wrapped onto the `nodes` the store has).
fn lint_store(
    report: &mut PassReport,
    engine: &Engine,
    store: &mut dyn BlockStore,
    name: &str,
    stripe: usize,
    nodes: usize,
) {
    let bs = store.block_size() as usize;
    let one = vec![0xAB; bs];
    let full = vec![0xCD; bs * stripe];
    check_plan(report, engine, format!("{name} small write"), store.write(1 % nodes, 0, &one));
    check_plan(
        report,
        engine,
        format!("{name} stripe write"),
        store.write(2 % nodes, stripe as u64, &full),
    );
    for n in [0, 1, stripe as u64, stripe as u64 + 1] {
        let plan = store.read(3 % nodes, 0, n).map(|(_, p)| p);
        check_plan(report, engine, format!("{name} read {n} blocks"), plan);
    }
    check_plan(report, engine, format!("{name} flush"), Ok(store.flush()));
}

/// Lint the plans emitted by every architecture's (and the NFS
/// baseline's) read, write, flush and rebuild paths on a small cluster,
/// and again on a single node for the layouts that fit one (RAID-x stripes
/// across nodes and needs two). Returns one check per (store, operation).
pub fn lint_io_paths() -> PassReport {
    let mut report = PassReport::new("plan-lint");
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
            lint_store(&mut report, &engine, &mut sys, &name, stripe, nodes);

            // Degraded read + rebuild (skip RAID-0, which has no redundancy).
            if sys.layout().guaranteed_fault_tolerance() > 0 {
                let hw = sys.high_water();
                sys.fail_disk(0);
                let read = sys.read(1 % nodes, 0, hw).map(|(_, p)| p);
                check_plan(&mut report, &engine, format!("{name} degraded read"), read);
                let rebuild = sys.rebuild_disk(1 % nodes, 0).map(|(p, _)| p);
                check_plan(&mut report, &engine, format!("{name} rebuild"), rebuild);
            }
        }
    }
    let mut engine = Engine::new();
    let mut cc = ClusterConfig::shape(4, 2);
    cc.disk.capacity = 4 << 20;
    let (stripe, nodes) = (cc.disks_per_node, cc.nodes);
    let mut nfs = NfsSystem::new(&mut engine, cc, NfsConfig::default());
    lint_store(&mut report, &engine, &mut nfs, "NFS", stripe, nodes);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::plan::{background, barrier, seq, use_res};
    use sim_core::{BarrierId, Demand, PlanError};

    #[test]
    fn real_io_paths_are_clean() {
        let report = lint_io_paths();
        assert!(report.all_ok(), "\n{}", report.render());
        // All four architectures actually got linted.
        assert!(report.checks.len() >= 4 * 4, "\n{}", report.render());
    }

    /// The seeded-defect direction: a barrier parked inside a detached
    /// subtree must be rejected by the engine-level validator.
    #[test]
    fn seeded_barrier_in_background_rejected() {
        let mut e = Engine::new();
        let disk = e.add_resource("disk0", Box::new(sim_core::FixedRate::rate(1 << 20)));
        e.register_barrier(BarrierId(7), 2);
        let bad = seq(vec![
            use_res(disk, Demand::DiskWrite { offset: 0, bytes: 512 }),
            background(seq(vec![barrier(BarrierId(7))])),
        ]);
        let errs = e.validate(&bad).unwrap_err();
        assert!(errs
            .iter()
            .any(|x| matches!(x, PlanError::BarrierInBackground { id: BarrierId(7) })));
    }

    #[test]
    fn seeded_unknown_resource_rejected() {
        // Borrow a ResourceId from a donor engine; it is out of range for
        // the fresh (resource-less) engine it is validated against.
        let mut donor = Engine::new();
        let foreign = donor.add_resource("disk", Box::new(sim_core::FixedRate::rate(1)));
        let e = Engine::new();
        let bad = use_res(foreign, Demand::DiskRead { offset: 0, bytes: 512 });
        assert!(e.validate(&bad).is_err());
    }
}
