//! Figure 5: aggregate I/O bandwidth of the four architectures versus the
//! number of concurrent clients, for large/small reads and writes.

use cluster::ClusterConfig;
use sim_core::Engine;
use workloads::{run_parallel_io, BandwidthResult, IoPattern, ParallelIoConfig};

use crate::harness::{build_store, md_table, par_map, write_csv, SystemKind};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Architecture.
    pub kind: SystemKind,
    /// Access pattern.
    pub pattern: IoPattern,
    /// Concurrent clients.
    pub clients: usize,
    /// Measurement.
    pub result: BandwidthResult,
}

/// Client counts plotted (the paper sweeps 1..16 on the Trojans cluster).
pub const CLIENTS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// Run the full Figure 5 sweep on the Trojans configuration.
pub fn run_sweep() -> Vec<Point> {
    let mut cases = Vec::new();
    for pattern in IoPattern::ALL {
        for kind in SystemKind::MEASURED {
            for clients in CLIENTS {
                cases.push((kind, pattern, clients));
            }
        }
    }
    par_map(cases, |(kind, pattern, clients)| {
        let result = run_point(kind, pattern, clients);
        Point { kind, pattern, clients, result }
    })
}

/// Measure one configuration.
pub fn run_point(kind: SystemKind, pattern: IoPattern, clients: usize) -> BandwidthResult {
    let mut engine = Engine::new();
    let mut store = build_store(&mut engine, ClusterConfig::trojans(), kind);
    let cfg = ParallelIoConfig { clients, pattern, repeats: 3, ..Default::default() };
    run_parallel_io(&mut engine, &mut store, &cfg).expect("fig5 point failed")
}

/// Run the sweep, write its points to `results/fig5.csv` and return the
/// rendered tables.
pub fn report() -> String {
    let points = run_sweep();
    let rows = points.iter().map(|p| {
        let (r, pattern) = (&p.result, p.pattern.label().replace(' ', "-"));
        let (mbs, secs, drain) = (r.aggregate_mbs, r.elapsed_secs, r.drain_secs);
        format!("{},{pattern},{},{mbs:.4},{secs:.6},{drain:.6}", p.kind.name(), p.clients)
    });
    write_csv("fig5", "arch,pattern,clients,aggregate_mbs,elapsed_s,drain_s", rows);
    render(&points)
}

/// Render the sweep as four markdown tables, one per subplot.
pub fn render(points: &[Point]) -> String {
    let mut out = String::new();
    for (tag, pattern) in [
        ("(a)", IoPattern::LargeRead),
        ("(b)", IoPattern::SmallRead),
        ("(c)", IoPattern::LargeWrite),
        ("(d)", IoPattern::SmallWrite),
    ] {
        out.push_str(&format!(
            "\n### Figure 5{tag}: {} — aggregate bandwidth (MB/s)\n\n",
            pattern.label()
        ));
        let mut headers = vec!["clients".to_string()];
        headers.extend(SystemKind::MEASURED.iter().map(|k| k.name().to_string()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = CLIENTS
            .iter()
            .map(|&c| {
                let mut row = vec![c.to_string()];
                for kind in SystemKind::MEASURED {
                    let p = points
                        .iter()
                        .find(|p| p.kind == kind && p.pattern == pattern && p.clients == c)
                        .expect("missing point");
                    row.push(format!("{:.2}", p.result.aggregate_mbs));
                }
                row
            })
            .collect();
        out.push_str(&md_table(&header_refs, &rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidx_core::Arch;

    #[test]
    fn raidx_large_write_scales_and_beats_raid10() {
        let rx1 = run_point(SystemKind::Raid(Arch::RaidX), IoPattern::LargeWrite, 1);
        let rx16 = run_point(SystemKind::Raid(Arch::RaidX), IoPattern::LargeWrite, 16);
        let r10 = run_point(SystemKind::Raid(Arch::Raid10), IoPattern::LargeWrite, 16);
        assert!(rx16.aggregate_mbs > 3.0 * rx1.aggregate_mbs, "no scaling");
        assert!(
            rx16.aggregate_mbs > 1.2 * r10.aggregate_mbs,
            "RAID-x {:.2} vs RAID-10 {:.2}",
            rx16.aggregate_mbs,
            r10.aggregate_mbs
        );
    }

    #[test]
    fn nfs_saturates_early() {
        let n4 = run_point(SystemKind::Nfs, IoPattern::LargeRead, 4);
        let n16 = run_point(SystemKind::Nfs, IoPattern::LargeRead, 16);
        // Beyond saturation adding clients gains little.
        assert!(
            n16.aggregate_mbs < 1.5 * n4.aggregate_mbs,
            "NFS kept scaling: {:.2} -> {:.2}",
            n4.aggregate_mbs,
            n16.aggregate_mbs
        );
    }
}
