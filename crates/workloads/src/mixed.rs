//! A transaction-style mixed workload: small reads and writes with a
//! hot-spot access pattern, the shape of the "secure E-commerce and data
//! mining" applications the paper's introduction motivates. Unlike the
//! Figure-5 microbenchmarks, requests interleave reads and writes per
//! client and target shared hot regions, exercising the lock-group table
//! and the small-write paths together.

use cdd::{BlockStore, IoError};
use sim_core::plan::seq;
use sim_core::rng::SplitMix64;
use sim_core::{Engine, Plan};

/// Fraction of accesses hitting the hot region (80/20-style skew).
const HOT_FRACTION: f64 = 0.8;
/// The hot region's share of the used address space.
const HOT_REGION: f64 = 0.1;
/// Blocks touched by the largest request (sizes draw from 1..=this).
const MAX_BLOCKS: u64 = 4;
/// Blocks of usable address space to spread load over.
const WORKING_SET_BLOCKS: u64 = 4096;
/// Seed for the access pattern.
const SEED: u64 = 0x0DD5_EED5;

/// Parameters of the mixed workload.
#[derive(Debug, Clone)]
pub struct MixedConfig {
    /// Concurrent clients.
    pub clients: usize,
    /// Synchronous operations per client.
    pub ops_per_client: usize,
    /// Fraction of operations that are writes (0..=1).
    pub write_fraction: f64,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig { clients: 16, ops_per_client: 32, write_fraction: 0.3 }
    }
}

/// Outcome of a mixed run.
#[derive(Debug, Clone)]
pub struct MixedResult {
    /// Completed operations per simulated second.
    pub ops_per_sec: f64,
    /// Aggregate payload bandwidth, MB/s.
    pub aggregate_mbs: f64,
    /// Total operations executed.
    pub total_ops: usize,
    /// Elapsed simulated seconds.
    pub elapsed_secs: f64,
}

/// Run the workload. Writes target client-private slices of the hot/cold
/// regions (the paper's benchmarks avoid inter-client write sharing;
/// reads share everything).
pub fn run_mixed<S: BlockStore>(
    engine: &mut Engine,
    store: &mut S,
    cfg: &MixedConfig,
) -> Result<MixedResult, IoError> {
    let bs = store.block_size();
    let ws = WORKING_SET_BLOCKS.min(store.capacity_blocks());
    let hot_blocks = ((ws as f64 * HOT_REGION) as u64).max(MAX_BLOCKS + 1);
    let mut rng = SplitMix64::new(SEED);
    let nodes = store.nodes();

    // Pre-seed the working set (functional only, outside the window).
    let seedbuf = vec![0xB7u8; (ws * bs) as usize];
    store.write(0, 0, &seedbuf)?;

    let mut total_bytes = 0u64;
    let mut total_ops = 0usize;
    for c in 0..cfg.clients {
        let node = (c + 1) % nodes;
        let mut steps: Vec<Plan> = Vec::with_capacity(cfg.ops_per_client);
        for _ in 0..cfg.ops_per_client {
            let nblocks = 1 + rng.next_below(MAX_BLOCKS);
            let hot = rng.next_f64() < HOT_FRACTION;
            let is_write = rng.next_f64() < cfg.write_fraction;
            let lb0 = if is_write {
                // Private per-client write slice within the chosen region.
                let slice = (if hot { hot_blocks } else { ws - hot_blocks }) / cfg.clients as u64;
                let slice = slice.max(MAX_BLOCKS + 1);
                let base = if hot { 0 } else { hot_blocks };
                let within = rng.next_below(slice - nblocks);
                (base + c as u64 * slice + within).min(ws - nblocks)
            } else if hot {
                rng.next_below(hot_blocks - nblocks)
            } else {
                hot_blocks + rng.next_below(ws - hot_blocks - nblocks)
            };
            let plan = if is_write {
                let data = vec![(c % 251) as u8; (nblocks * bs) as usize];
                store.write(node, lb0, &data)?
            } else {
                store.read(node, lb0, nblocks)?.1
            };
            total_bytes += nblocks * bs;
            total_ops += 1;
            steps.push(plan);
        }
        engine.spawn_job(format!("txn-client{c}"), seq(steps));
    }
    let start = engine.now();
    let report = engine.run().expect("mixed workload deadlocked");
    let elapsed = report.foreground_end.since(start).as_secs_f64();
    Ok(MixedResult {
        ops_per_sec: total_ops as f64 / elapsed,
        aggregate_mbs: total_bytes as f64 / elapsed / 1e6,
        total_ops,
        elapsed_secs: elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidx_core::Arch;

    fn run(arch: Arch) -> MixedResult {
        let (mut engine, mut store) = cdd::testkit::trojans(arch);
        let cfg = MixedConfig { clients: 8, ops_per_client: 16, ..Default::default() };
        run_mixed(&mut engine, &mut store, &cfg).unwrap()
    }

    #[test]
    fn completes_and_reports() {
        let r = run(Arch::RaidX);
        assert_eq!(r.total_ops, 8 * 16);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.aggregate_mbs > 0.0);
    }

    #[test]
    fn raidx_beats_raid5_on_mixed_traffic() {
        let rx = run(Arch::RaidX);
        let r5 = run(Arch::Raid5);
        assert!(
            rx.ops_per_sec > r5.ops_per_sec,
            "RAID-x {:.0} ops/s vs RAID-5 {:.0} ops/s",
            rx.ops_per_sec,
            r5.ops_per_sec
        );
    }

    #[test]
    fn deterministic() {
        let a = run(Arch::Raid10);
        let b = run(Arch::Raid10);
        assert_eq!(a.ops_per_sec.to_bits(), b.ops_per_sec.to_bits());
    }
}
