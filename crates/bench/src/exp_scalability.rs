//! Scalability beyond the Trojans prototype — the paper's stated next
//! step ("an enlarged prototype of several hundreds of disks on a much
//! larger Trojans cluster"): RAID-x bandwidth as the cluster grows, on
//! the 1999 interconnect and on gigabit Ethernet, with RAID-10 beside it
//! on the small write — the pattern OSM exists for.

use cdd::{CddConfig, IoSystem};
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::Engine;
use sim_net::NetSpec;
use workloads::{run_parallel_io, IoPattern, ParallelIoConfig};

use crate::harness::{md_table, par_map};

/// One scalability point.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Nodes (= clients = disks, one disk per node).
    pub nodes: usize,
    /// Gigabit interconnect?
    pub gigabit: bool,
    /// Aggregate large-read MB/s.
    pub read_mbs: f64,
    /// Aggregate large-write MB/s.
    pub write_mbs: f64,
    /// Aggregate small-write MB/s (eight bursts of one block per client,
    /// the repository benchmark's `scale_small_write` shape).
    pub small_write_mbs: f64,
    /// The same small-write run on RAID-10.
    pub raid10_small_write_mbs: f64,
    /// Engine events dispatched for the large-write run
    /// ([`sim_core::EngineStats`]) — the simulator-cost axis of the
    /// sweep, deterministic per configuration.
    pub engine_events: u64,
}

/// Node counts swept.
pub const NODES: [usize; 6] = [4, 8, 16, 32, 64, 128];

/// Bursts per client of the small-write columns: enough that whole
/// mirroring groups fill and flush while the writers are still at it.
const SMALL_WRITE_BURSTS: usize = 8;

fn run_arch(
    arch: Arch,
    nodes: usize,
    gigabit: bool,
    pattern: IoPattern,
    repeats: usize,
) -> (f64, u64) {
    let mut cc = ClusterConfig::shape(nodes, 1);
    if gigabit {
        cc.net = NetSpec::gigabit();
    }
    let mut engine = Engine::new();
    let mut store = IoSystem::new(&mut engine, cc, arch, CddConfig::default());
    let cfg = ParallelIoConfig { clients: nodes, pattern, repeats, ..Default::default() };
    let mbs =
        run_parallel_io(&mut engine, &mut store, &cfg).expect("scale run failed").aggregate_mbs;
    (mbs, engine.stats().events)
}

fn run_one(nodes: usize, gigabit: bool, pattern: IoPattern) -> (f64, u64) {
    run_arch(Arch::RaidX, nodes, gigabit, pattern, 2)
}

/// Full sweep.
pub fn run_sweep() -> Vec<ScalePoint> {
    let mut cases = Vec::new();
    for gigabit in [false, true] {
        for nodes in NODES {
            cases.push((nodes, gigabit));
        }
    }
    par_map(cases, |(nodes, gigabit)| {
        let (read_mbs, _) = run_one(nodes, gigabit, IoPattern::LargeRead);
        let (write_mbs, engine_events) = run_one(nodes, gigabit, IoPattern::LargeWrite);
        let small =
            |arch| run_arch(arch, nodes, gigabit, IoPattern::SmallWrite, SMALL_WRITE_BURSTS).0;
        ScalePoint {
            nodes,
            gigabit,
            read_mbs,
            write_mbs,
            small_write_mbs: small(Arch::RaidX),
            raid10_small_write_mbs: small(Arch::Raid10),
            engine_events,
        }
    })
}

/// Render as markdown.
pub fn render(points: &[ScalePoint]) -> String {
    let mut out = String::from(
        "\n### Scalability: RAID-x aggregate bandwidth as the cluster grows \
         (clients = nodes = disks)\n\n",
    );
    for gigabit in [false, true] {
        out.push_str(&format!(
            "\n**{} interconnect**\n\n",
            if gigabit { "Gigabit" } else { "Fast Ethernet (1999)" }
        ));
        let headers = [
            "nodes",
            "large read (MB/s)",
            "large write (MB/s)",
            "small write (MB/s)",
            "RAID-10 small write (MB/s)",
            "read MB/s per node",
            "engine events (write)",
        ];
        let rows: Vec<Vec<String>> = points
            .iter()
            .filter(|p| p.gigabit == gigabit)
            .map(|p| {
                vec![
                    p.nodes.to_string(),
                    format!("{:.1}", p.read_mbs),
                    format!("{:.1}", p.write_mbs),
                    format!("{:.1}", p.small_write_mbs),
                    format!("{:.1}", p.raid10_small_write_mbs),
                    format!("{:.2}", p.read_mbs / p.nodes as f64),
                    p.engine_events.to_string(),
                ]
            })
            .collect();
        out.push_str(&md_table(&headers, &rows));
    }
    out.push_str(
        "\nThe serverless design scales with node count because every node \
         contributes a NIC port and a disk arm; per-node efficiency dips \
         slowly as the lock broadcast and cross-traffic grow (the 128-node \
         row is a different regime: a 2 MB file is 64 blocks, so each \
         client touches only half the disks). The same software on gigabit shifts the \
         bottleneck to the disk arms. Small writes (eight bursts of one \
         block per client, the repository benchmark's `scale_small_write` \
         shape) go to RAID-x from 8 nodes up on Fast Ethernet, by \
         1.4-1.7x over RAID-10: image segments and image runs yield to \
         every lock message, ack and data block, so a writer pays for one \
         copy. It loses in two places. At 4 nodes a mirroring group is \
         three blocks, so every few writes launch a flush and there is \
         nothing to cluster. On gigabit at 64 nodes the bursts are short \
         enough that a data block caught behind a 63-block image run \
         already in service on its disk (about 170 ms; service is never \
         preempted) stalls its whole barrier round.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raidx_scales_superlinearly_vs_flat() {
        let (r8, _) = run_one(8, false, IoPattern::LargeRead);
        let (r32, _) = run_one(32, false, IoPattern::LargeRead);
        assert!(r32 > 2.5 * r8, "32 nodes {r32:.1} MB/s vs 8 nodes {r8:.1} MB/s — not scaling");
    }

    #[test]
    fn engine_work_grows_with_cluster_size() {
        let (_, e8) = run_one(8, false, IoPattern::LargeWrite);
        let (_, e32) = run_one(32, false, IoPattern::LargeWrite);
        assert!(e8 > 0, "no engine events counted");
        assert!(
            e32 > 2 * e8,
            "simulator cost did not grow with the cluster: {e8} events @8 vs {e32} @32"
        );
    }
}
