//! Barrier-synchronised parallel I/O (Figure 5 / Table 3): every client
//! reads or writes a private file striped over the whole array, all
//! clients start each burst together, and bandwidth is payload over the
//! time the last client finishes its foreground I/O.

use cdd::{BlockStore, IoError};
use sim_core::plan::{barrier, seq};
use sim_core::rng::SplitMix64;
use sim_core::{BarrierId, Plan};

use super::{Outcome, Sim};

/// Shape of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig5Config {
    /// Concurrent clients; client `c` issues from node `(c + 1) % nodes`,
    /// so a lone client is remote from the NFS server on node 0.
    pub clients: usize,
    /// Bytes per client per burst (rounded up to whole blocks).
    pub bytes: u64,
    /// Barrier-synchronised bursts; each touches a fresh file region.
    pub bursts: usize,
    /// First logical block of client 0's first region. Seeded by the
    /// benchmark so file placement (start disk, seek distances) is an
    /// input; 0 reproduces `workloads::run_parallel_io` exactly.
    pub base_lb: u64,
    /// Write (Fig. 5c/d) or read (Fig. 5a/b).
    pub write: bool,
}

impl Fig5Config {
    /// Blocks per client per burst.
    pub fn nblocks(&self, bs: u64) -> u64 {
        self.bytes.div_ceil(bs).max(1)
    }

    /// First block of client `c`'s burst `r`.
    fn lb0(&self, bs: u64, c: usize, r: usize) -> u64 {
        let n = self.nblocks(bs);
        self.base_lb + c as u64 * n * self.bursts as u64 + r as u64 * n
    }
}

/// Seeded file contents: one burst-sized pattern per client. Each burst
/// stamps `(client, burst, block)` into the head of every block, so no
/// two blocks of the run hold the same bytes and a misdirected block
/// cannot verify.
pub struct Fig5Inputs {
    patterns: Vec<Vec<u8>>,
    bs: usize,
}

/// Generate the per-client patterns from `seed`.
pub fn gen_inputs(cfg: &Fig5Config, bs: u64, seed: u64) -> Fig5Inputs {
    let len = (cfg.nblocks(bs) * bs) as usize;
    let root = SplitMix64::new(seed);
    let patterns = (0..cfg.clients)
        .map(|c| {
            let mut rng = root.substream(c as u64);
            let mut v = Vec::with_capacity(len + 8);
            while v.len() < len {
                v.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            v.truncate(len);
            v
        })
        .collect();
    Fig5Inputs { patterns, bs: bs as usize }
}

impl Fig5Inputs {
    /// A scratch copy of client `c`'s pattern, to be stamped per burst.
    fn scratch(&self, c: usize) -> Vec<u8> {
        self.patterns[c].clone()
    }

    /// Stamp `buf` (a [`Fig5Inputs::scratch`] of client `c`) as burst `r`.
    fn stamp(&self, buf: &mut [u8], c: usize, r: usize) {
        for (b, block) in buf.chunks_mut(self.bs).enumerate() {
            let stamp = ((c as u64) << 48) | ((r as u64) << 32) | b as u64;
            block[..8].copy_from_slice(&stamp.to_le_bytes());
        }
    }
}

fn node_of(c: usize, nodes: usize) -> usize {
    (c + 1) % nodes
}

/// Set-up for the read patterns: create every file the run will read.
/// The writes' plans are dropped — the files exist before the measured
/// window opens, as in the paper.
pub fn precreate<S: BlockStore>(
    store: &mut S,
    cfg: &Fig5Config,
    inputs: &Fig5Inputs,
) -> Result<(), IoError> {
    let (bs, nodes) = (store.block_size(), store.nodes());
    for c in 0..cfg.clients {
        let mut buf = inputs.scratch(c);
        for r in 0..cfg.bursts {
            inputs.stamp(&mut buf, c, r);
            store.write(node_of(c, nodes), cfg.lb0(bs, c, r), &buf)?;
        }
    }
    Ok(())
}

/// The measured phase: plan every client's bursts, run them, then drain
/// whatever the store deferred (RAID-x image groups). Every burst read is
/// compared with the file that was pre-created, under [`Sim::check`].
pub fn run<S: BlockStore>(
    sim: &mut Sim<'_>,
    store: &mut S,
    cfg: &Fig5Config,
    inputs: &Fig5Inputs,
) -> Outcome {
    let (bs, nodes) = (store.block_size(), store.nodes());
    let nblocks = cfg.nblocks(bs);
    let mut out = Outcome {
        attempted: (cfg.clients * cfg.bursts) as u64,
        payload_bytes: cfg.clients as u64 * cfg.bursts as u64 * nblocks * bs,
        ..Outcome::default()
    };
    let start = sim.engine.now();
    let bid = BarrierId(0xF5);
    sim.engine.register_barrier(bid, cfg.clients);
    let kind = if cfg.write { "write" } else { "read" };
    let mut jobs = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let node = node_of(c, nodes);
        // What client `c` writes, or expects to read, burst by burst.
        let mut buf = inputs.scratch(c);
        let mut steps: Vec<Plan> = Vec::with_capacity(cfg.bursts * 2);
        for r in 0..cfg.bursts {
            sim.tr.next_op();
            let lb0 = cfg.lb0(bs, c, r);
            steps.push(barrier(bid));
            let plan = if cfg.write {
                inputs.stamp(&mut buf, c, r);
                store.write(node, lb0, &buf)
            } else {
                store.read(node, lb0, nblocks).map(|(got, plan)| {
                    let same = sim.check(|| {
                        inputs.stamp(&mut buf, c, r);
                        got == buf
                    });
                    out.failed += u64::from(!same);
                    plan
                })
            };
            match plan {
                Ok(p) => steps.push(p),
                Err(_) => out.failed += 1,
            }
        }
        jobs.push(sim.spawn(format!("client{c}/{kind}"), seq(steps)));
    }
    let Ok(report) = sim.run() else {
        out.fail_all();
        return out;
    };
    out.foreground_ns = report.foreground_end.since(start).as_nanos();
    out.drain_ns = report.end.since(start).as_nanos();
    out.job_lat_ns = jobs.iter().filter_map(|&j| sim.latency_ns(j)).collect();
    let flush = store.flush();
    if !matches!(flush, Plan::Noop) {
        sim.spawn("image-flush".to_string(), flush);
        match sim.run() {
            Ok(drained) => out.drain_ns = drained.end.since(start).as_nanos(),
            Err(_) => out.fail_all(),
        }
    }
    out
}

/// After a write run: read every burst back and count the ones whose
/// bytes differ from what was written (or that cannot be read at all).
pub fn verify_written<S: BlockStore>(store: &mut S, cfg: &Fig5Config, inputs: &Fig5Inputs) -> u64 {
    let (bs, nodes) = (store.block_size(), store.nodes());
    let nblocks = cfg.nblocks(bs);
    let mut bad = 0;
    for c in 0..cfg.clients {
        let mut want = inputs.scratch(c);
        for r in 0..cfg.bursts {
            inputs.stamp(&mut want, c, r);
            match store.read(node_of(c, nodes), cfg.lb0(bs, c, r), nblocks) {
                Ok((got, _)) if got == want => {}
                _ => bad += 1,
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use crate::store::{Store, FOUR_ARCHS};
    use cluster::ClusterConfig;
    use sim_core::Engine;

    fn small(write: bool) -> Fig5Config {
        Fig5Config { clients: 4, bytes: 64 << 10, bursts: 2, base_lb: 5, write }
    }

    #[test]
    fn payloads_are_seeded_and_distinct_per_burst() {
        let cfg = small(true);
        let a = gen_inputs(&cfg, 32 << 10, 7);
        let b = gen_inputs(&cfg, 32 << 10, 7);
        let c = gen_inputs(&cfg, 32 << 10, 8);
        let payload = |i: &Fig5Inputs, c, r| {
            let mut buf = i.scratch(c);
            i.stamp(&mut buf, c, r);
            buf
        };
        assert_eq!(payload(&a, 1, 0), payload(&b, 1, 0));
        assert_ne!(payload(&a, 1, 0), payload(&c, 1, 0));
        assert_ne!(payload(&a, 1, 0), payload(&a, 1, 1));
        assert_ne!(payload(&a, 1, 0), payload(&a, 2, 0));
    }

    #[test]
    fn write_then_verify_roundtrips_on_every_architecture() {
        for sc in FOUR_ARCHS {
            let cfg = small(true);
            let mut engine = Engine::new();
            let mut store = Store::build(&mut engine, ClusterConfig::shape(4, 1), &sc);
            let inputs = gen_inputs(&cfg, store.block_size(), 3);
            let tr = Tracer::off();
            let out = run(&mut Sim::new(&mut engine, &tr), &mut store, &cfg, &inputs);
            assert_eq!((out.attempted, out.failed), (8, 0), "{}", sc.key);
            assert_eq!(out.job_lat_ns.len(), 4);
            assert!(out.foreground_ns > 0 && out.drain_ns >= out.foreground_ns);
            assert_eq!(verify_written(&mut store, &cfg, &inputs), 0, "{}", sc.key);
        }
    }

    #[test]
    fn corrupted_bytes_fail_closed() {
        let cfg = small(false);
        let mut engine = Engine::new();
        let mut store = Store::build(&mut engine, ClusterConfig::shape(4, 1), &FOUR_ARCHS[3]);
        let bs = store.block_size();
        let inputs = gen_inputs(&cfg, bs, 3);
        precreate(&mut store, &cfg, &inputs).expect("precreate");
        // Overwrite one block of client 2's second burst behind the driver's back.
        store.write(0, cfg.lb0(bs, 2, 1) + 1, &vec![0u8; bs as usize]).expect("overwrite");
        let tr = Tracer::off();
        let mut sim = Sim::new(&mut engine, &tr);
        let out = run(&mut sim, &mut store, &cfg, &inputs);
        assert_eq!(out.failed, 1, "exactly the corrupted burst is counted");
        assert!(sim.checked_ns > 0, "checks are timed apart from the measured phase");
        assert_eq!(verify_written(&mut store, &cfg, &inputs), 1);
    }

    #[test]
    fn layer_errors_are_counted_not_unwrapped() {
        // A region past the end of the array: every op is refused.
        let cfg = Fig5Config { base_lb: u64::MAX / 2, ..small(true) };
        let mut engine = Engine::new();
        let mut store = Store::build(&mut engine, ClusterConfig::shape(4, 1), &FOUR_ARCHS[1]);
        let inputs = gen_inputs(&cfg, store.block_size(), 3);
        let tr = Tracer::off();
        let out = run(&mut Sim::new(&mut engine, &tr), &mut store, &cfg, &inputs);
        assert_eq!(out.failed, out.attempted);
        assert!(precreate(&mut store, &cfg, &inputs).is_err());
    }
}
