//! The metric and workload registry: every name the benchmark prints,
//! with its unit, direction and bound. `BENCHMARK.json` at the repository
//! root is generated from this file (`benchmark manifest`) and a test
//! holds the two equal.

use crate::store::FOUR_ARCHS;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, unique across the registry.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Simulated or counted: it repeats exactly, so with equal seeds
    /// `compare` treats any difference as a change of behaviour.
    pub exact: bool,
    /// Absolute slack added to the bound (same unit as the metric): a
    /// millisecond-scale timing may move by this much on noise alone.
    pub abs_floor: f64,
    /// Workloads that report it; empty means all of them.
    pub workloads: &'static [&'static str],
}

const fn host(name: &'static str, unit: &'static str, bound: f64, abs_floor: f64) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound, exact: false, abs_floor, workloads: &[] }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef { name, unit, better, bound: SIM_BOUND, exact: true, abs_floor: 0.0, workloads }
}

/// Bound of the simulated metrics across *different* seeds (the PR
/// driver draws a new seed per run). Placement and draws move them by
/// well under a percent; with equal seeds they are compared exactly.
pub const SIM_BOUND: f64 = 0.05;

/// The metrics every workload reports; `BENCHMARK.json` lists exactly
/// these as `end_to_end`.
pub const END_TO_END: [MetricDef; 7] = [
    host("host_rep_s", "s", 0.25, 0.0),
    host("setup_s", "s", 0.25, 0.005),
    host("host_peak_rss_mb", "MB", 0.10, 0.0),
    sim("sim_mbs.nfs", "MB/s", Better::Higher, &[]),
    sim("sim_mbs.raid5", "MB/s", Better::Higher, &[]),
    sim("sim_mbs.raid10", "MB/s", Better::Higher, &[]),
    sim("sim_mbs.raidx", "MB/s", Better::Higher, &[]),
];

/// Metrics only some workloads can report. The PR driver's contract wants
/// every end-to-end metric from every workload, so these live in the
/// results file and are gated by `benchmark compare` instead.
pub const WORKLOAD_ONLY: [MetricDef; 8] = [
    sim("fail_ratio", "ratio", Better::Lower, &[]),
    sim("sim_elapsed_s.nfs", "s", Better::Lower, &["andrew"]),
    sim("sim_elapsed_s.raid5", "s", Better::Lower, &["andrew"]),
    sim("sim_elapsed_s.raid10", "s", Better::Lower, &["andrew"]),
    sim("sim_elapsed_s.raidx", "s", Better::Lower, &["andrew"]),
    sim("sim_lat_p50_ms", "ms", Better::Lower, &["zipf_cache"]),
    sim("sim_lat_p99_ms", "ms", Better::Lower, &["zipf_cache"]),
    sim("sim_cache_speedup", "x", Better::Higher, &["zipf_cache"]),
];

/// Look a metric up by name in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(WORKLOAD_ONLY.iter()).find(|m| m.name == name)
}

/// A per-layer metric of the traced run. No bound: these explain an
/// end-to-end movement, they do not gate one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMetricDef {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// `(name, unit, better, also per architecture)`.
const LAYER_BASE: [(&str, &str, Better, bool); 56] = {
    use Better::{Higher as H, Lower as L};
    [
        // driver: the benchmark's own load generator (root span).
        ("driver.wall_ms", "ms", L, true),
        ("driver.self_ms", "ms", L, false),
        ("driver.ops", "count", H, false),
        ("trace_overhead_pct", "%", L, false),
        // cfs
        ("cfs.calls", "count", L, false),
        ("cfs.busy_ms", "ms", L, false),
        ("cfs.self_ms", "ms", L, false),
        ("cfs.store_calls_per_op", "ratio", L, false),
        ("cfs.meta_cache_hit_ratio", "ratio", H, false),
        // cdd (per architecture, `.nfs` is the NFS store at the same boundary)
        ("cdd.write.calls", "count", L, false),
        ("cdd.write.busy_ms", "ms", L, true),
        ("cdd.write.ns_per_block", "ns", L, false),
        ("cdd.read.calls", "count", L, false),
        ("cdd.read.busy_ms", "ms", L, true),
        ("cdd.read.ns_per_block", "ns", L, false),
        ("cdd.flush.busy_ms", "ms", L, false),
        ("cdd.errors", "count", L, false),
        ("cdd.locks.grants", "count", L, false),
        ("cdd.locks.conflicts", "count", L, false),
        ("cdd.image_backlog_peak", "count", L, false),
        ("cdd.cache.hit_ratio", "ratio", H, false),
        ("cdd.cache.invalidations", "count", L, false),
        ("cdd.cache.evictions", "count", L, false),
        ("cdd.timeouts", "count", L, false),
        ("cdd.failovers", "count", L, false),
        ("nfs-sim.write.busy_ms", "ms", L, false),
        ("nfs-sim.read.busy_ms", "ms", L, false),
        ("nfs-sim.calls", "count", L, false),
        // cluster (DataPlane)
        ("cluster.plane.bytes_written", "bytes", L, false),
        ("cluster.plane.bytes_read", "bytes", L, false),
        ("cluster.plane.write_amp", "ratio", L, false),
        ("cluster.plane.write_ns_per_block", "ns", L, false),
        ("cluster.plane.read_ns_per_block", "ns", L, false),
        ("cluster.plane.xor_ns_per_block", "ns", L, false),
        // engine (sim-core)
        ("engine.run.calls", "count", L, false),
        ("engine.run.busy_ms", "ms", L, true),
        ("engine.spawn.busy_ms", "ms", L, false),
        ("engine.events", "count", L, false),
        ("engine.ns_per_event", "ns", L, false),
        ("engine.events_per_host_s", "1/s", H, false),
        ("engine.scan_iters_per_event", "ratio", L, false),
        ("engine.heap_peak", "count", L, false),
        ("engine.task_slot_alloc_ratio", "ratio", L, false),
        // modelled components, simulated time
        ("sim-disk.util_mean", "ratio", H, true),
        ("sim-disk.util_max", "ratio", L, true),
        ("sim-disk.wait_ms_mean", "ms", L, true),
        ("sim-disk.max_queue", "count", L, false),
        ("sim-disk.scsi_util_max", "ratio", L, false),
        ("sim-net.tx_util_max", "ratio", L, true),
        ("sim-net.rx_util_max", "ratio", L, true),
        ("sim-net.wait_ms_mean", "ms", L, false),
        ("sim-node.cpu_util_max", "ratio", L, false),
        ("sim.drain_gap_s", "s", L, true),
        // RAID-x job latency percentiles the sample supports (0 = unsupported)
        ("sim.lat_p50_ms", "ms", L, false),
        ("sim.lat_p99_ms", "ms", L, false),
        ("sim.cache_speedup", "x", H, false),
    ]
};

/// Every per-layer metric: each base name once, the per-architecture ones
/// again as `<name>.<arch>`.
pub fn per_layer() -> Vec<LayerMetricDef> {
    let mut out = Vec::new();
    for (name, unit, better, per_arch) in LAYER_BASE {
        out.push(LayerMetricDef { name: name.to_string(), unit, better });
        if per_arch {
            for a in FOUR_ARCHS {
                out.push(LayerMetricDef { name: format!("{name}.{}", a.key), unit, better });
            }
        }
    }
    out
}

/// `BENCHMARK.json`, generated from the registry and the workload list.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let specs = crate::workload::specs(false);
    for (i, w) in specs.iter().enumerate() {
        let comma = if i + 1 < specs.len() { "," } else { "" };
        s.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(WORKLOAD_ONLY.iter())
            .map(|m| m.name.to_string())
            .chain(layers.iter().map(|m| m.name.clone()));
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(seen.insert(n.clone()), "duplicate metric name {n}");
        }
    }

    #[test]
    fn bounds_respect_the_contract() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = metric_def("setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn manifest_is_valid_json() {
        let m = manifest_json();
        assert!(sim_core::export::json_is_valid(&m), "{m}");
        assert!(m.len() < 64 << 10);
    }
}
