//! Mixed transaction-style workload across the four architectures — the
//! I/O-centric application mix (E-commerce, data mining) the paper's
//! introduction motivates, with an 80/20 hot-spot skew and a 30% write
//! ratio.

use cluster::ClusterConfig;
use sim_core::Engine;
use workloads::{run_mixed, MixedConfig, MixedResult};

use crate::harness::{build_store, md_table, par_map, SystemKind};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Architecture.
    pub kind: SystemKind,
    /// Write ratio used.
    pub write_fraction: f64,
    /// Measurement.
    pub result: MixedResult,
}

/// Run one configuration.
pub fn run_point(kind: SystemKind, write_fraction: f64) -> MixedResult {
    let mut engine = Engine::new();
    let mut store = build_store(&mut engine, ClusterConfig::trojans(), kind);
    let cfg = MixedConfig { write_fraction, ..Default::default() };
    run_mixed(&mut engine, &mut store, &cfg).expect("mixed run failed")
}

/// Sweep architectures × write ratios.
pub fn run_sweep() -> Vec<Point> {
    let mut cases = Vec::new();
    for kind in SystemKind::MEASURED {
        for wf in [0.0, 0.3, 0.7] {
            cases.push((kind, wf));
        }
    }
    par_map(cases, |(kind, wf)| Point { kind, write_fraction: wf, result: run_point(kind, wf) })
}

/// Render as markdown.
pub fn render(points: &[Point]) -> String {
    let mut out = String::from(
        "\n### Mixed transaction workload (16 clients, 1-4 block ops, 80/20 hot-spot skew)\n\n",
    );
    let headers =
        ["write ratio", "NFS (ops/s)", "RAID-5 (ops/s)", "RAID-10 (ops/s)", "RAID-x (ops/s)"];
    let rows: Vec<Vec<String>> = [0.0, 0.3, 0.7]
        .into_iter()
        .map(|wf| {
            let mut row = vec![format!("{:.0}%", wf * 100.0)];
            for kind in SystemKind::MEASURED {
                let p = points
                    .iter()
                    .find(|p| p.kind == kind && (p.write_fraction - wf).abs() < 1e-9)
                    .expect("missing point");
                row.push(format!("{:.0}", p.result.ops_per_sec));
            }
            row
        })
        .collect();
    out.push_str(&md_table(&headers, &rows));
    out.push_str(
        "\nAs the write ratio climbs, RAID-5 falls behind (every hot-spot \
         update is a read-modify-write) while RAID-x holds its rate — its \
         deferred clustered images keep small updates at one foreground \
         disk operation.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidx_core::Arch;

    #[test]
    fn write_heavy_mix_separates_raidx_from_raid5() {
        let rx = run_point(SystemKind::Raid(Arch::RaidX), 0.7);
        let r5 = run_point(SystemKind::Raid(Arch::Raid5), 0.7);
        assert!(rx.ops_per_sec > 1.3 * r5.ops_per_sec);
    }
}
