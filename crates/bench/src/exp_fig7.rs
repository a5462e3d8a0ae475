//! Figure 7: striped checkpointing with staggering on the distributed
//! RAID-x — the staircase timeline, the stagger-depth trade-off, and the
//! 4×3 / 6×2 / 12×1 array reconfiguration the paper proposes.

use cdd::{CddConfig, IoSystem};
use checkpoint::{run_striped_checkpoint, verify_checkpoint, CheckpointConfig, CheckpointResult};
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::Engine;

use crate::harness::{md_table, par_map};

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct Point {
    /// Array shape (nodes, disks per node).
    pub shape: (usize, usize),
    /// Stagger group width.
    pub stagger_width: usize,
    /// Result.
    pub result: CheckpointResult,
}

fn run_shape(nodes: usize, k: usize, stagger_width: usize, processes: usize) -> CheckpointResult {
    let mut cc = ClusterConfig::shape(nodes, k);
    cc.disk.capacity = 1 << 30;
    let mut engine = Engine::new();
    let mut store = IoSystem::new(&mut engine, cc, Arch::RaidX, CddConfig::default());
    let cfg = CheckpointConfig { processes, stagger_width, ckpt_bytes: 4 << 20, rounds: 2 };
    let r = run_striped_checkpoint(&mut engine, &mut store, &cfg).expect("checkpoint failed");
    // Integrity: every image must verify after the run.
    for p in 0..processes {
        verify_checkpoint(&mut store, &cfg, p, 1).expect("checkpoint corrupted");
    }
    r
}

/// The stagger-depth sweep on the paper's 12-process scenario over a 4×3
/// array, plus the reconfigured shapes.
pub fn run_sweep() -> Vec<Point> {
    let cases: Vec<(usize, usize, usize)> = vec![
        // (nodes, k, stagger width) — Figure 7's 4x3 with groups of 4,
        // plus the trade-off sweep.
        (4, 3, 1),
        (4, 3, 2),
        (4, 3, 4),
        (4, 3, 6),
        (4, 3, 12),
        // Reconfiguration: same 12 disks arranged 6x2 and 12x1.
        (6, 2, 4),
        (12, 1, 4),
        (6, 2, 6),
        (12, 1, 12),
    ];
    par_map(cases, |(nodes, k, w)| Point {
        shape: (nodes, k),
        stagger_width: w,
        result: run_shape(nodes, k, w, 12),
    })
}

/// Render.
pub fn render(points: &[Point]) -> String {
    let mut out = String::from(
        "\n### Figure 7: striped checkpointing with staggering — 12 processes, \
         4 MB checkpoint each, RAID-x arrays of 12 disks\n\n",
    );
    let headers =
        ["array", "stagger width", "round span (s)", "mean blocked (s)", "first group blocked (s)"];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}x{}", p.shape.0, p.shape.1),
                p.stagger_width.to_string(),
                format!(
                    "{:.3}",
                    p.result.round_secs.iter().sum::<f64>() / p.result.round_secs.len() as f64
                ),
                format!("{:.3}", p.result.mean_blocked_secs),
                format!("{:.3}", p.result.first_group_blocked_secs),
            ]
        })
        .collect();
    out.push_str(&md_table(&headers, &rows));
    out.push_str(
        "\nStaggering trades round span (longer: groups take turns) against \
         per-process blocking (shorter for early groups) — the staircase of \
         Figure 7. Reconfiguring 4x3 -> 12x1 widens the stripe (more \
         parallelism, less pipelining).\n",
    );
    out.push_str(&render_staircase());
    out.push_str(&render_two_level());
    out
}

/// Figure 7's timeline itself: per-process bars showing the staggered
/// staircase (each bar is how long the process stayed blocked — sync,
/// waiting for its stagger turn, then writing).
pub fn render_staircase() -> String {
    let mut cc = ClusterConfig::trojans_4x3();
    cc.disk.capacity = 1 << 30;
    let mut engine = Engine::new();
    let mut store = IoSystem::new(&mut engine, cc, Arch::RaidX, CddConfig::default());
    let cfg = CheckpointConfig { processes: 12, stagger_width: 4, ckpt_bytes: 4 << 20, rounds: 1 };
    run_striped_checkpoint(&mut engine, &mut store, &cfg).expect("staircase run failed");
    let jobs = engine.jobs();
    let latencies: Vec<f64> = jobs
        .iter()
        .filter(|j| j.label.starts_with("ckpt/"))
        .filter_map(|j| j.try_latency())
        .map(|d| d.as_secs_f64())
        .collect();
    let max = latencies.iter().cloned().fold(0.0, f64::max);
    let mut out = String::from(
        "\n### Figure 7 timeline: 12 processes, stagger groups of 4 (each \
         bar = time the process is blocked; C = writing, . = waiting)\n\n```\n",
    );
    const WIDTH: usize = 56;
    for (p, &lat) in latencies.iter().enumerate() {
        let total = ((lat / max) * WIDTH as f64).round() as usize;
        // The final segment of each bar is the actual write; earlier time
        // is sync + stagger wait. Estimate the write span from group 0's
        // bar (it never waits for a predecessor).
        let write_span = ((latencies[..cfg.stagger_width].iter().cloned().fold(f64::MAX, f64::min)
            / max)
            * WIDTH as f64)
            .round() as usize;
        let wait = total.saturating_sub(write_span);
        out.push_str(&format!(
            "P{p:02} |{}{}| {lat:.3}s\n",
            ".".repeat(wait),
            "C".repeat(total - wait),
        ));
    }
    out.push_str("```\n");
    out
}

/// The two-level recovery experiment: one image-local checkpoint serves
/// both recovery paths; transient recovery is network-independent.
pub fn render_two_level() -> String {
    use checkpoint::run_two_level;
    let run = |link_rate: u64| {
        let mut cc = ClusterConfig::trojans();
        cc.disk.capacity = 1 << 30;
        cc.net.link_rate = link_rate;
        let mut engine = Engine::new();
        let mut sys = IoSystem::new(&mut engine, cc, Arch::RaidX, CddConfig::default());
        run_two_level(&mut engine, &mut sys, 4, 90).expect("two-level failed")
    };
    let fast = run(12_500_000);
    let slow = run(2_000_000);
    let mut out = String::from(
        "\n### Two-level recovery (image-local checkpoint placement, ~2.9 MB state)\n\n",
    );
    out.push_str(&md_table(
        &[
            "interconnect",
            "checkpoint (s)",
            "transient recovery (s)",
            "permanent recovery (s)",
            "transient net bytes",
        ],
        &[
            vec![
                "Fast Ethernet".into(),
                format!("{:.3}", fast.checkpoint_secs),
                format!("{:.3}", fast.transient_secs),
                format!("{:.3}", fast.permanent_secs),
                fast.transient_net_bytes.to_string(),
            ],
            vec![
                "congested (2 MB/s)".into(),
                format!("{:.3}", slow.checkpoint_secs),
                format!("{:.3}", slow.transient_secs),
                format!("{:.3}", slow.permanent_secs),
                slow.transient_net_bytes.to_string(),
            ],
        ],
    ));
    out.push_str(
        "\nOne OSM checkpoint serves both levels: its data stripes across \
         the array (parallel write) while its image clusters on the local \
         disk. Transient recovery reads the local image — zero network \
         bytes, immune to congestion — while permanent recovery reads the \
         striped copy from a surviving node.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staircase_tradeoff_holds() {
        let staggered = run_shape(4, 3, 4, 12);
        let all_at_once = run_shape(4, 3, 12, 12);
        // First stagger group resumes earlier than the unstaggered mean.
        assert!(staggered.first_group_blocked_secs < all_at_once.mean_blocked_secs);
    }
}
