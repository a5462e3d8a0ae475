//! Resource-utilization breakdown: where the bytes and the busy time go
//! on a serverless RAID-x cluster versus the NFS baseline, and how long a
//! foreground or a background demand queues at each resource class.
//! Quantifies the paper's central architectural argument — the single I/O
//! space spreads load over every NIC and disk arm, while NFS piles it on
//! one node — and its OSM claim: the deferred image traffic waits behind
//! the writers, never the other way round.

use cdd::{CddConfig, IoSystem};
use cluster::{Cluster, ClusterConfig};
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::{Engine, ResourceStats, SimDuration};
use workloads::{run_parallel_io, IoPattern, ParallelIoConfig};

use crate::harness::md_table;

/// Utilization summary of one resource class.
#[derive(Debug, Clone)]
pub struct ClassUtil {
    /// Class label ("disk", "nic-tx", ...).
    pub class: &'static str,
    /// Mean utilization over the run (0..=1).
    pub mean: f64,
    /// Highest single-resource utilization.
    pub max: f64,
    /// Total bytes through the class.
    pub bytes: u64,
    /// Mean queueing delay of a foreground demand (`None`: none served).
    pub fg_wait: Option<SimDuration>,
    /// The same mean on the single resource where it is highest — a hot
    /// spot on a few of 128 nodes vanishes in the class mean.
    pub fg_wait_max: Option<SimDuration>,
    /// Mean queueing delay of a background (detached) demand.
    pub bg_wait: Option<SimDuration>,
}

/// Mean of `wait` over `ops` demands.
fn mean_wait(wait: SimDuration, ops: u64) -> Option<SimDuration> {
    wait.as_nanos().checked_div(ops).map(SimDuration)
}

fn summarize(engine: &Engine, cluster: &Cluster, span: SimDuration) -> Vec<ClassUtil> {
    let mut classes: Vec<(&'static str, Vec<sim_core::ResourceId>)> = vec![
        ("cpu", cluster.nodes.iter().map(|n| n.cpu).collect()),
        ("nic-tx", cluster.nodes.iter().map(|n| n.tx).collect()),
        ("nic-rx", cluster.nodes.iter().map(|n| n.rx).collect()),
        ("scsi-bus", cluster.nodes.iter().map(|n| n.bus).collect()),
        ("disk", cluster.disks.iter().map(|d| d.res).collect()),
    ];
    classes
        .drain(..)
        .map(|(class, ids)| {
            let stats = || ids.iter().map(|&id| engine.resource_stats(id));
            let utils: Vec<f64> = stats().map(|s| s.utilization(span)).collect();
            // The class as one resource: every counter but `max_queue` adds.
            let total = stats().fold(ResourceStats::default(), |mut t, s| {
                t.ops += s.ops;
                t.bytes += s.bytes;
                t.queue_wait += s.queue_wait;
                t.bg_ops += s.bg_ops;
                t.bg_queue_wait += s.bg_queue_wait;
                t
            });
            ClassUtil {
                class,
                mean: utils.iter().sum::<f64>() / utils.len() as f64,
                max: utils.iter().cloned().fold(0.0, f64::max),
                bytes: total.bytes,
                fg_wait: mean_wait(total.fg_queue_wait(), total.fg_ops()),
                fg_wait_max: stats().filter_map(|s| mean_wait(s.fg_queue_wait(), s.fg_ops())).max(),
                bg_wait: mean_wait(total.bg_queue_wait, total.bg_ops),
            }
        })
        .collect()
}

/// Run `cfg` on a RAID-x array over `cc` and summarize every resource
/// class over the run, background drain included.
fn raidx_summary(cc: ClusterConfig, cfg: &ParallelIoConfig) -> Vec<ClassUtil> {
    let mut engine = Engine::new();
    let mut sys = IoSystem::new(&mut engine, cc, Arch::RaidX, CddConfig::default());
    let r = run_parallel_io(&mut engine, &mut sys, cfg).expect("experiment I/O failed");
    summarize(&engine, sys.cluster(), SimDuration::from_secs_f64(r.drain_secs))
}

/// Run the 16-client large-write workload on both systems, and the
/// 128-node small-write shape on RAID-x, and render the per-class
/// utilization and queueing tables.
pub fn render() -> String {
    let cfg = ParallelIoConfig {
        clients: 16,
        pattern: IoPattern::LargeWrite,
        repeats: 2,
        ..Default::default()
    };

    let mut out = String::from("\n### Resource utilization, 16 clients x 2 MB writes\n");
    out.push_str("\n**RAID-x (serverless single I/O space)**\n\n");
    out.push_str(&util_table(&raidx_summary(ClusterConfig::trojans(), &cfg)));
    // NFS.
    {
        let mut engine = Engine::new();
        let mut sys = NfsSystem::new(&mut engine, ClusterConfig::trojans(), NfsConfig::default());
        let r = run_parallel_io(&mut engine, &mut sys, &cfg).expect("experiment I/O failed");
        let span = SimDuration::from_secs_f64(r.drain_secs);
        let summary = summarize(&engine, &sys.cluster, span);
        out.push_str("\n**NFS (central server at node 0)**\n\n");
        out.push_str(&util_table(&summary));
        // Name the saturated component explicitly.
        let hottest =
            summary.iter().max_by(|a, b| a.max.total_cmp(&b.max)).expect("summary nonempty");
        let server_rx = engine.resource_stats(sys.cluster.nodes[0].rx).utilization(span);
        out.push_str(&format!(
            "\nNFS bottleneck: the server's {} at {:.0}% utilization (its rx \
             port runs at {:.0}%), while the mean across the cluster sits at \
             {:.0}% — fifteen nodes' hardware idles. This is the saturation \
             behind Figure 5's flat NFS curves.\n",
            hottest.class,
            hottest.max * 100.0,
            server_rx * 100.0,
            hottest.mean * 100.0
        ));
    }

    // Where a one-block write queues at scale: every resource is nearly
    // idle, so what a foreground demand waits for is other demands, and
    // the columns say of which class.
    let small = ParallelIoConfig {
        clients: 128,
        pattern: IoPattern::SmallWrite,
        repeats: 8,
        ..Default::default()
    };
    out.push_str("\n### Resource utilization, 128 nodes x 128 clients x 32 KB writes, RAID-x\n\n");
    out.push_str(&util_table(&raidx_summary(ClusterConfig::shape(128, 1), &small)));
    out.push_str(
        "\nForeground demands (lock messages, acks, data blocks) never wait \
         for a queued image segment or image run, only for the one already \
         in service: the deferred image traffic absorbs the queueing \
         (background column) and finishes after the writers do.\n",
    );
    out
}

fn util_table(rows: &[ClassUtil]) -> String {
    let headers = [
        "resource class",
        "mean util",
        "max util",
        "bytes moved",
        "mean fg wait (ms)",
        "max fg wait (ms)",
        "mean bg wait (ms)",
    ];
    let wait = |w: Option<SimDuration>| match w {
        Some(w) => format!("{:.3}", w.as_millis_f64()),
        None => "-".to_string(),
    };
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.class.to_string(),
                format!("{:.1}%", r.mean * 100.0),
                format!("{:.1}%", r.max * 100.0),
                format!("{:.1} MB", r.bytes as f64 / 1e6),
                wait(r.fg_wait),
                wait(r.fg_wait_max),
                wait(r.bg_wait),
            ]
        })
        .collect();
    md_table(&headers, &data)
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_both_systems() {
        let t = super::render();
        assert!(t.contains("RAID-x (serverless"));
        assert!(t.contains("NFS (central server"));
        assert!(t.contains("disk"));
        assert!(t.contains("mean bg wait"));
    }
}
