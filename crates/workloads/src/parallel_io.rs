//! The parallel disk-I/O benchmark of Figure 5 and Table 3.
//!
//! `C` clients (one per node) each access a **private file** striped across
//! the whole array: 2 MB for the "large" cases, one 32 KB block for the
//! "small" cases. All clients start together after a barrier (the paper
//! uses `MPI_Barrier()`), run `repeats` synchronized bursts, and the
//! aggregate bandwidth is total payload over the time the last client
//! finishes its foreground I/O — exactly how the paper counts RAID-x's
//! deferred image writes (they drain in the background and are excluded
//! from the foreground figure; across bursts they still hold whatever
//! resource they were being served on when a foreground demand arrived).

use cdd::{BlockStore, IoError};
use sim_core::plan::{barrier, seq};
use sim_core::{BarrierId, Engine, Plan};

/// The four access patterns of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPattern {
    /// Figure 5(a): 2 MB sequential read per client.
    LargeRead,
    /// Figure 5(b): 32 KB read per client.
    SmallRead,
    /// Figure 5(c): 2 MB sequential write per client.
    LargeWrite,
    /// Figure 5(d): 32 KB write per client.
    SmallWrite,
}

impl IoPattern {
    /// All four patterns in the figure's order.
    pub const ALL: [IoPattern; 4] =
        [IoPattern::LargeRead, IoPattern::SmallRead, IoPattern::LargeWrite, IoPattern::SmallWrite];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            IoPattern::LargeRead => "large read",
            IoPattern::SmallRead => "small read",
            IoPattern::LargeWrite => "large write",
            IoPattern::SmallWrite => "small write",
        }
    }

    /// True for the write patterns.
    pub fn is_write(self) -> bool {
        matches!(self, IoPattern::LargeWrite | IoPattern::SmallWrite)
    }
}

/// Parameters of one benchmark run.
#[derive(Debug, Clone)]
pub struct ParallelIoConfig {
    /// Concurrent clients (≤ nodes).
    pub clients: usize,
    /// Access pattern.
    pub pattern: IoPattern,
    /// Bytes per client per burst for the large patterns.
    pub large_bytes: u64,
    /// Bytes per client per burst for the small patterns.
    pub small_bytes: u64,
    /// Synchronized bursts (>1 exposes sustained behaviour, including
    /// RAID-x's background flush contention).
    pub repeats: usize,
    /// Pre-create the read files inside this run (disable when the caller
    /// seeded them already, e.g. before injecting a disk failure).
    pub precreate: bool,
}

impl Default for ParallelIoConfig {
    fn default() -> Self {
        ParallelIoConfig {
            clients: 1,
            pattern: IoPattern::LargeRead,
            large_bytes: 2 << 20,
            small_bytes: 32 << 10,
            repeats: 3,
            precreate: true,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct BandwidthResult {
    /// Aggregate foreground bandwidth in MB/s (decimal megabytes, as the
    /// paper reports).
    pub aggregate_mbs: f64,
    /// Time the last client finished its foreground I/O (seconds).
    pub elapsed_secs: f64,
    /// Time everything (including deferred image flushes) drained.
    pub drain_secs: f64,
    /// Total payload bytes moved in the foreground.
    pub total_bytes: u64,
    /// Mean per-request foreground latency (seconds).
    pub mean_latency_secs: f64,
}

/// Run the benchmark for `cfg` over `store` inside `engine`.
///
/// For the read patterns the private files are pre-created outside the
/// measured window (the paper reads existing, uncached files).
pub fn run_parallel_io<S: BlockStore>(
    engine: &mut Engine,
    store: &mut S,
    cfg: &ParallelIoConfig,
) -> Result<BandwidthResult, IoError> {
    let bs = store.block_size();
    let bytes = match cfg.pattern {
        IoPattern::LargeRead | IoPattern::LargeWrite => cfg.large_bytes,
        IoPattern::SmallRead | IoPattern::SmallWrite => cfg.small_bytes,
    };
    let nblocks = bytes.div_ceil(bs).max(1);
    let clients = cfg.clients.min(store.nodes());
    assert!(clients > 0, "need at least one client");
    // Region layout: each client owns `repeats` disjoint file regions so
    // bursts do not overwrite each other (and reads see distinct data).
    let region_blocks = nblocks * cfg.repeats as u64;
    assert!(
        region_blocks * clients as u64 <= store.capacity_blocks(),
        "workload exceeds array capacity"
    );

    // Clients map to nodes starting at node 1, so a lone client is remote
    // from the NFS server (node 0), as on the real cluster; with a full
    // complement of clients one of them shares the server node.
    let nodes = store.nodes();
    let node_of = |c: usize| (c + 1) % nodes;
    // Pre-create files for reads (functionally only — outside the window).
    if !cfg.pattern.is_write() && cfg.precreate {
        let payload: Vec<u8> = vec![0xA5; (nblocks * bs) as usize];
        for c in 0..clients {
            for r in 0..cfg.repeats as u64 {
                let lb0 = c as u64 * region_blocks + r * nblocks;
                let _ = store.write(node_of(c), lb0, &payload)?; // plan discarded
            }
        }
    }

    let bid = BarrierId(0xF5);
    engine.register_barrier(bid, clients);
    let write_payload: Vec<u8> = vec![0x3C; (nblocks * bs) as usize];
    for c in 0..clients {
        let mut steps: Vec<Plan> = Vec::with_capacity(cfg.repeats * 2);
        for r in 0..cfg.repeats as u64 {
            let lb0 = c as u64 * region_blocks + r * nblocks;
            steps.push(barrier(bid));
            let p = if cfg.pattern.is_write() {
                store.write(node_of(c), lb0, &write_payload)?
            } else {
                store.read(node_of(c), lb0, nblocks)?.1
            };
            steps.push(p);
        }
        engine.spawn_job(format!("client{c}/{}", cfg.pattern.label()), seq(steps));
    }
    let report = engine.run().expect("benchmark deadlocked");
    let latencies: f64 = engine
        .jobs()
        .iter()
        .rev()
        .take(clients)
        .filter_map(|j| j.try_latency())
        .map(|d| d.as_secs_f64())
        .sum();
    // Drain any write-behind image groups still buffered (outside the
    // foreground window, like the CDD's idle-time flusher).
    let flush = store.flush();
    let report = if matches!(flush, Plan::Noop) {
        report
    } else {
        engine.spawn_job("image-flush", flush);
        let drained = engine.run().expect("flush deadlocked");
        sim_core::RunReport { end: drained.end, foreground_end: report.foreground_end }
    };

    let total_bytes = clients as u64 * nblocks * bs * cfg.repeats as u64;
    let elapsed = report.foreground_end.as_secs_f64();
    Ok(BandwidthResult {
        aggregate_mbs: total_bytes as f64 / elapsed / 1e6,
        elapsed_secs: elapsed,
        drain_secs: report.end.as_secs_f64(),
        total_bytes,
        mean_latency_secs: latencies / (clients as f64 * cfg.repeats as f64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidx_core::Arch;

    fn run(arch: Arch, pattern: IoPattern, clients: usize) -> BandwidthResult {
        let (mut engine, mut store) = cdd::testkit::trojans(arch);
        let cfg = ParallelIoConfig { clients, pattern, repeats: 2, ..Default::default() };
        run_parallel_io(&mut engine, &mut store, &cfg).unwrap()
    }

    #[test]
    fn bandwidth_grows_with_clients() {
        let one = run(Arch::RaidX, IoPattern::LargeRead, 1);
        let many = run(Arch::RaidX, IoPattern::LargeRead, 16);
        assert!(
            many.aggregate_mbs > 2.0 * one.aggregate_mbs,
            "1 client {:.1} MB/s, 16 clients {:.1} MB/s",
            one.aggregate_mbs,
            many.aggregate_mbs
        );
    }

    #[test]
    fn raidx_writes_beat_raid5_small_writes() {
        let rx = run(Arch::RaidX, IoPattern::SmallWrite, 8);
        let r5 = run(Arch::Raid5, IoPattern::SmallWrite, 8);
        assert!(
            rx.aggregate_mbs > 1.5 * r5.aggregate_mbs,
            "RAID-x {:.2} MB/s vs RAID-5 {:.2} MB/s",
            rx.aggregate_mbs,
            r5.aggregate_mbs
        );
    }

    #[test]
    fn raidx_background_drain_extends_past_foreground() {
        let r = run(Arch::RaidX, IoPattern::LargeWrite, 4);
        assert!(r.drain_secs > r.elapsed_secs, "no deferred flush observed");
        // RAID-10 has nothing deferred.
        let r10 = run(Arch::Raid10, IoPattern::LargeWrite, 4);
        assert!(r10.drain_secs - r10.elapsed_secs < 1e-9);
    }

    #[test]
    fn result_accounting_consistent() {
        let r = run(Arch::Raid10, IoPattern::SmallRead, 4);
        assert_eq!(r.total_bytes, 4 * 2 * (32 << 10));
        assert!(r.mean_latency_secs > 0.0);
        assert!(r.aggregate_mbs > 0.0);
    }
}
