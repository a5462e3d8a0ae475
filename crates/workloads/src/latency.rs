//! Closed-loop per-operation latency measurement.
//!
//! The Figure-5 harness reports aggregate bandwidth; this one measures
//! what a single request *feels* like under load: every client issues one
//! operation per round, the engine runs the round to completion, and each
//! job's foreground latency becomes one sample. Percentiles over many
//! rounds expose the tail the paper's averages hide (RAID-5's
//! read-modify-write shows up as a fat write tail).

use cdd::{BlockStore, IoError};
use sim_core::{percentile, Engine};

/// Latency distribution summary (seconds).
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst sample.
    pub max: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Measure per-operation latency of single-block operations.
///
/// `clients` concurrent requesters, `rounds` closed-loop rounds; each
/// client touches its own block region (reads target pre-seeded blocks).
pub fn measure_latency<S: BlockStore>(
    engine: &mut Engine,
    store: &mut S,
    clients: usize,
    rounds: usize,
    writes: bool,
) -> Result<LatencyResult, IoError> {
    let bs = store.block_size();
    let nodes = store.nodes();
    // Prime stride so per-round targets spread over all disks instead of
    // synchronizing on one spindle (64 ≡ 0 mod 16 disks would hotspot).
    let region = 61u64;
    // Seed for reads.
    if !writes {
        let buf = vec![0x42u8; bs as usize];
        for c in 0..clients {
            for r in 0..rounds as u64 {
                store.write((c + 1) % nodes, c as u64 * region + r, &buf)?;
            }
        }
    }
    let payload = vec![0x24u8; bs as usize];
    let mut samples = Vec::with_capacity(clients * rounds);
    for r in 0..rounds as u64 {
        let before = engine.jobs().len();
        for c in 0..clients {
            let node = (c + 1) % nodes;
            let lb = c as u64 * region + r;
            let plan =
                if writes { store.write(node, lb, &payload)? } else { store.read(node, lb, 1)?.1 };
            engine.spawn_job(format!("lat/c{c}/r{r}"), plan);
        }
        engine.run().expect("latency round deadlocked");
        for job in &engine.jobs()[before..] {
            let lat = job.try_latency().expect("latency round job unfinished after run");
            samples.push(lat.as_secs_f64());
        }
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    samples.sort_by(f64::total_cmp);
    let at = |p| percentile(&samples, p).expect("a latency run takes at least one sample");
    Ok(LatencyResult {
        mean,
        p50: at(50.0),
        p95: at(95.0),
        p99: at(99.0),
        max: at(100.0),
        samples: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidx_core::Arch;

    fn run(arch: Arch, writes: bool) -> LatencyResult {
        let (mut engine, mut store) = cdd::testkit::trojans(arch);
        measure_latency(&mut engine, &mut store, 8, 6, writes).unwrap()
    }

    #[test]
    fn distribution_is_ordered() {
        let r = run(Arch::RaidX, true);
        assert_eq!(r.samples, 48);
        assert!(r.p50 <= r.p95 && r.p95 <= r.p99 && r.p99 <= r.max);
        assert!(r.mean > 0.0);
    }

    #[test]
    fn raid5_write_latency_pays_rmw() {
        let r5 = run(Arch::Raid5, true);
        let rx = run(Arch::RaidX, true);
        assert!(
            r5.p50 > 1.3 * rx.p50,
            "RAID-5 median write {:.4}s not above RAID-x {:.4}s",
            r5.p50,
            rx.p50
        );
    }

    #[test]
    fn read_latencies_similar_across_archs() {
        let r5 = run(Arch::Raid5, false);
        let rx = run(Arch::RaidX, false);
        let ratio = r5.p50 / rx.p50;
        assert!((0.5..2.0).contains(&ratio), "read medians diverge: {ratio:.2}");
    }
}
