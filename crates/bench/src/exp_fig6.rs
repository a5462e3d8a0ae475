//! Figure 6: Andrew benchmark elapsed times per phase, versus the number
//! of concurrent clients, on the four architectures.

use cfs::Fs;
use cluster::ClusterConfig;
use sim_core::Engine;
use workloads::{run_andrew, AndrewConfig, AndrewResult, PHASES};

use crate::harness::{build_store, md_table, par_map, write_csv, SystemKind};

/// Client counts (the paper drives up to 32 clients on 16 nodes).
pub const CLIENTS: [usize; 5] = [1, 4, 8, 16, 32];

/// One measured run.
#[derive(Debug, Clone)]
pub struct Point {
    /// Architecture.
    pub kind: SystemKind,
    /// Concurrent Andrew clients.
    pub clients: usize,
    /// Per-phase elapsed times.
    pub result: AndrewResult,
}

/// Run the Andrew benchmark once.
pub fn run_point(kind: SystemKind, clients: usize) -> AndrewResult {
    let mut engine = Engine::new();
    let store = build_store(&mut engine, ClusterConfig::trojans(), kind);
    let (mut fs, _) = Fs::format(store, 8192, 0).expect("format failed");
    let cfg = AndrewConfig { clients, ..Default::default() };
    run_andrew(&mut engine, &mut fs, &cfg).expect("andrew failed")
}

/// Full sweep.
pub fn run_sweep() -> Vec<Point> {
    let mut cases = Vec::new();
    for kind in SystemKind::MEASURED {
        for clients in CLIENTS {
            cases.push((kind, clients));
        }
    }
    par_map(cases, |(kind, clients)| Point { kind, clients, result: run_point(kind, clients) })
}

/// Run the sweep, write its points to `results/fig6.csv` and return the
/// rendered tables.
pub fn report() -> String {
    let points = run_sweep();
    let rows = points.iter().map(|p| {
        let phases: String = p.result.phase_secs.iter().map(|s| format!("{s:.4},")).collect();
        format!("{},{},{phases}{:.4}", p.kind.name(), p.clients, p.result.total_secs())
    });
    let header = "arch,clients,makedir_s,copy_s,scandir_s,readall_s,make_s,total_s";
    write_csv("fig6", header, rows);
    render(&points)
}

/// Render one subplot per architecture (as in the paper) plus a totals
/// comparison.
pub fn render(points: &[Point]) -> String {
    let mut out = String::new();
    for kind in SystemKind::MEASURED {
        out.push_str(&format!(
            "\n### Figure 6: Andrew benchmark on {} — elapsed seconds per phase\n\n",
            kind.name()
        ));
        let mut headers = vec!["clients".to_string()];
        headers.extend(PHASES.iter().map(|p| p.to_string()));
        headers.push("total".to_string());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = CLIENTS
            .iter()
            .map(|&c| {
                let p = points
                    .iter()
                    .find(|p| p.kind == kind && p.clients == c)
                    .expect("missing point");
                let mut row = vec![c.to_string()];
                row.extend(p.result.phase_secs.iter().map(|s| format!("{s:.3}")));
                row.push(format!("{:.3}", p.result.total_secs()));
                row
            })
            .collect();
        out.push_str(&md_table(&header_refs, &rows));
    }
    // Cross-architecture totals.
    out.push_str("\n### Figure 6 summary: total Andrew elapsed time (s)\n\n");
    let mut headers = vec!["clients".to_string()];
    headers.extend(SystemKind::MEASURED.iter().map(|k| k.name().to_string()));
    headers.push("RAID-x vs RAID-5".to_string());
    headers.push("RAID-x vs RAID-10".to_string());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = CLIENTS
        .iter()
        .map(|&c| {
            let total = |kind: SystemKind| {
                points
                    .iter()
                    .find(|p| p.kind == kind && p.clients == c)
                    .expect("missing")
                    .result
                    .total_secs()
            };
            let rx = total(SystemKind::MEASURED[3]);
            let r5 = total(SystemKind::MEASURED[1]);
            let r10 = total(SystemKind::MEASURED[2]);
            let mut row = vec![c.to_string()];
            for kind in SystemKind::MEASURED {
                row.push(format!("{:.3}", total(kind)));
            }
            row.push(format!("{:+.1}%", (1.0 - rx / r5) * 100.0));
            row.push(format!("{:+.1}%", (1.0 - rx / r10) * 100.0));
            row
        })
        .collect();
    out.push_str(&md_table(&header_refs, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidx_core::Arch;

    #[test]
    fn raidx_total_beats_nfs_at_scale() {
        let rx = run_point(SystemKind::Raid(Arch::RaidX), 8);
        let nfs = run_point(SystemKind::Nfs, 8);
        assert!(
            rx.total_secs() < nfs.total_secs(),
            "RAID-x {:.2}s vs NFS {:.2}s",
            rx.total_secs(),
            nfs.total_secs()
        );
    }
}
