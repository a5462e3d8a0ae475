//! Degraded-mode performance — the operational side of Section 6: what
//! does a failure cost while the cluster keeps serving clients? (The
//! rebuild's cost to foreground load is `exp_fault`'s "Rebuild under
//! continuing foreground load" table.)

use cdd::{CddConfig, IoSystem};
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::Engine;
use workloads::{run_parallel_io, IoPattern, ParallelIoConfig};

use crate::harness::{md_table, par_map};

/// Bandwidth of `arch` healthy and with one disk failed (degraded).
#[derive(Debug, Clone)]
pub struct DegradedPoint {
    /// Architecture.
    pub arch: Arch,
    /// Healthy aggregate MB/s.
    pub healthy: f64,
    /// Degraded aggregate MB/s (disk 3 failed).
    pub degraded: f64,
}

fn bandwidth(sys: &mut IoSystem, engine: &mut Engine, clients: usize, precreate: bool) -> f64 {
    let cfg = ParallelIoConfig {
        clients,
        pattern: IoPattern::LargeRead,
        repeats: 2,
        precreate,
        ..Default::default()
    };
    run_parallel_io(engine, sys, &cfg).expect("run failed").aggregate_mbs
}

/// Seed the read files while the array is healthy (the degraded runs
/// cannot pre-create them — RAID-5 refuses degraded writes).
fn seed_files(sys: &mut IoSystem, clients: usize) {
    let bs = sys.block_size();
    let nblocks = (2u64 << 20).div_ceil(bs);
    let region = nblocks * 2; // repeats = 2
    let payload = vec![0xA5u8; (nblocks * bs) as usize];
    for c in 0..clients {
        for r in 0..2u64 {
            sys.write((c + 1) % 16, c as u64 * region + r * nblocks, &payload)
                .expect("experiment I/O failed");
        }
    }
}

/// Measure one architecture (16 clients of large reads; reads work in
/// degraded mode on every architecture).
pub fn run_point(arch: Arch) -> DegradedPoint {
    let clients = 16;
    let mut cc = ClusterConfig::trojans();
    cc.disk.capacity = 2 << 30;

    // Healthy.
    let mut engine = Engine::new();
    let mut sys = IoSystem::new(&mut engine, cc.clone(), arch, CddConfig::default());
    let healthy = bandwidth(&mut sys, &mut engine, clients, true);

    // Degraded: same workload with disk 3 gone. Fresh engine so the two
    // measurements do not share queues; the files are seeded while the
    // array is still healthy.
    let mut engine = Engine::new();
    let mut sys = IoSystem::new(&mut engine, cc, arch, CddConfig::default());
    seed_files(&mut sys, clients);
    sys.fail_disk(3);
    let degraded = bandwidth(&mut sys, &mut engine, clients, false);

    DegradedPoint { arch, healthy, degraded }
}

/// Run all architectures.
pub fn run_all() -> Vec<DegradedPoint> {
    par_map(vec![Arch::Raid5, Arch::Chained, Arch::Raid10, Arch::RaidX], run_point)
}

/// Render as markdown.
pub fn render(points: &[DegradedPoint]) -> String {
    let mut out = String::from("\n### Degraded-mode bandwidth (16 clients, 2 MB reads)\n\n");
    let headers = ["Architecture", "healthy (MB/s)", "degraded (MB/s)", "degraded/healthy"];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.arch.name().to_string(),
                format!("{:.2}", p.healthy),
                format!("{:.2}", p.degraded),
                format!("{:.0}%", p.degraded / p.healthy * 100.0),
            ]
        })
        .collect();
    out.push_str(&md_table(&headers, &rows));
    out.push_str(
        "\nMirror-based schemes lose only the failed spindle's share in \
         degraded mode; RAID-5 additionally reconstructs every block that \
         lived on the dead disk from the whole surviving stripe, which \
         multiplies its degraded read traffic.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_never_beats_healthy_and_raid5_hurts_most() {
        let rx = run_point(Arch::RaidX);
        let r5 = run_point(Arch::Raid5);
        assert!(rx.degraded <= rx.healthy * 1.02);
        assert!(r5.degraded <= r5.healthy * 1.02);
        // RAID-5's reconstruction penalty exceeds RAID-x's mirror penalty.
        let rx_ratio = rx.degraded / rx.healthy;
        let r5_ratio = r5.degraded / r5.healthy;
        assert!(
            r5_ratio < rx_ratio,
            "RAID-5 degraded ratio {r5_ratio:.2} not worse than RAID-x {rx_ratio:.2}"
        );
    }
}
