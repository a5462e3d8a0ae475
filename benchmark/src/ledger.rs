//! The layer ledger: per-layer metrics of one traced repetition, derived
//! from its spans and from the counters read at each layer boundary.

use std::collections::BTreeMap;
use std::time::Instant;

use cluster::{xor_into, DataPlane};

use crate::spans::{ledger, NameStat};
use crate::stats::percentile;
use crate::workload::{ConfigRun, Rep, NOCACHE_KEY};

/// Host cost of the `DataPlane` primitives, measured by replaying a run's
/// block count and size on a fresh plane (the plane has no boundary of
/// its own the benchmark could span: `cdd` calls it directly).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlaneReplay {
    /// Nanoseconds per `DataPlane::write` of one block.
    pub write_ns_per_block: f64,
    /// Nanoseconds per `DataPlane::read` of one block.
    pub read_ns_per_block: f64,
    /// Nanoseconds per `xor_into` of one block.
    pub xor_ns_per_block: f64,
}

/// Most blocks a replay stores (128 MB at the 32 KB block size).
const REPLAY_MAX_BLOCKS: u64 = 4096;

/// Store, fetch and XOR `blocks` blocks of `bs` bytes over `ndisks` disks.
pub fn replay_plane(blocks: u64, bs: usize, ndisks: usize) -> PlaneReplay {
    let n = blocks.min(REPLAY_MAX_BLOCKS);
    if n == 0 || bs == 0 || ndisks == 0 {
        return PlaneReplay::default();
    }
    let mut plane = DataPlane::new(ndisks, bs, n);
    let src: Vec<u8> = (0..bs).map(|i| (i * 31) as u8).collect();
    let mut buf = vec![0u8; bs];
    let per_block = |t: Instant| t.elapsed().as_nanos() as f64 / n as f64;
    let at = |i: u64| ((i % ndisks as u64) as usize, i / ndisks as u64);
    let t = Instant::now();
    for i in 0..n {
        let (disk, block) = at(i);
        // A fresh plane of this size accepts every one of these writes.
        plane.write(disk, block, &src).expect("replay write within capacity");
    }
    let write_ns_per_block = per_block(t);
    let t = Instant::now();
    for i in 0..n {
        let (disk, block) = at(i);
        plane.read(disk, block, &mut buf).expect("replay read within capacity");
        std::hint::black_box(&buf);
    }
    let read_ns_per_block = per_block(t);
    let t = Instant::now();
    for _ in 0..n {
        xor_into(&mut buf, std::hint::black_box(&src));
    }
    std::hint::black_box(&buf);
    PlaneReplay { write_ns_per_block, read_ns_per_block, xor_ns_per_block: per_block(t) }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Span totals of one configuration, with the store's layer folded to one
/// boundary: `cdd.*` and `nfs-sim.*` are the same call sites.
struct Cfg<'a> {
    run: &'a ConfigRun,
    spans: BTreeMap<&'static str, NameStat>,
    is_nfs: bool,
}

impl Cfg<'_> {
    fn stat(&self, name: &str) -> NameStat {
        self.spans.get(name).copied().unwrap_or_default()
    }

    fn store(&self, call: &str) -> NameStat {
        self.stat(&format!("{}.{call}", if self.is_nfs { "nfs-sim" } else { "cdd" }))
    }

    fn cfs(&self) -> NameStat {
        let mut t = NameStat::default();
        for st in self.spans.iter().filter(|(n, _)| n.starts_with("cfs.")).map(|(_, st)| st) {
            t.calls += st.calls;
            t.busy_ns += st.busy_ns;
            t.self_ns += st.self_ns;
        }
        t
    }
}

/// Every per-layer metric of one traced repetition, by name. Metrics a
/// workload does not exercise (`cfs.*` outside `andrew`, the cache ratios
/// outside `zipf_cache`) read 0. `bs` is the block size in bytes.
///
/// Four registered metrics are not spans or counters of one repetition
/// and are added by the runner: the three [`PlaneReplay`] costs and
/// `trace_overhead_pct`.
pub fn layer_metrics(rep: &Rep, bs: u64) -> BTreeMap<String, f64> {
    let cfgs: Vec<Cfg<'_>> = rep
        .configs
        .iter()
        .map(|run| {
            let spans = ledger(&run.spans, "driver");
            let is_nfs = spans.keys().any(|n| n.starts_with("nfs-sim."));
            Cfg { run, spans, is_nfs }
        })
        .collect();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let sum = |f: &dyn Fn(&Cfg<'_>) -> f64| cfgs.iter().map(f).sum::<f64>();
    let max = |f: &dyn Fn(&Cfg<'_>) -> f64| cfgs.iter().map(f).fold(0.0_f64, f64::max);
    let mean = |f: &dyn Fn(&Cfg<'_>) -> f64| ratio(sum(f), cfgs.len() as f64);
    let cdd_only =
        |f: &dyn Fn(&Cfg<'_>) -> f64| cfgs.iter().filter(|c| !c.is_nfs).map(f).sum::<f64>();
    let nfs_only =
        |f: &dyn Fn(&Cfg<'_>) -> f64| cfgs.iter().filter(|c| c.is_nfs).map(f).sum::<f64>();

    // driver: the root span, less the benchmark's own output checks
    let wall = |c: &Cfg<'_>| ms(c.stat("driver").busy_ns - c.stat("verify.check").busy_ns);
    put("driver.wall_ms", sum(&wall));
    put("driver.self_ms", sum(&|c| ms(c.stat("driver").self_ns)));
    put("driver.ops", sum(&|c| c.run.facts.outcome.attempted as f64));

    // cfs
    let cfs_calls = sum(&|c| c.cfs().calls as f64);
    put("cfs.calls", cfs_calls);
    put("cfs.busy_ms", sum(&|c| ms(c.cfs().busy_ns)));
    put("cfs.self_ms", sum(&|c| ms(c.cfs().self_ns)));
    let store_calls =
        |c: &Cfg<'_>| (c.run.facts.store.write_calls + c.run.facts.store.read_calls) as f64;
    put(
        "cfs.store_calls_per_op",
        if cfs_calls > 0.0 { sum(&store_calls) / cfs_calls } else { 0.0 },
    );
    let (hits, misses) = (
        sum(&|c| c.run.facts.cfs_cache_hits as f64),
        sum(&|c| c.run.facts.cfs_cache_misses as f64),
    );
    put("cfs.meta_cache_hit_ratio", ratio(hits, hits + misses));

    // cdd and nfs-sim: the block-store boundary
    let write_busy = cdd_only(&|c| c.store("write").busy_ns as f64);
    let read_busy = cdd_only(&|c| c.store("read").busy_ns as f64);
    put("cdd.write.calls", cdd_only(&|c| c.run.facts.store.write_calls as f64));
    put("cdd.write.busy_ms", write_busy / 1e6);
    put(
        "cdd.write.ns_per_block",
        ratio(write_busy, cdd_only(&|c| c.run.facts.store.write_blocks as f64)),
    );
    put("cdd.read.calls", cdd_only(&|c| c.run.facts.store.read_calls as f64));
    put("cdd.read.busy_ms", read_busy / 1e6);
    put(
        "cdd.read.ns_per_block",
        ratio(read_busy, cdd_only(&|c| c.run.facts.store.read_blocks as f64)),
    );
    put("cdd.flush.busy_ms", cdd_only(&|c| ms(c.store("flush").busy_ns)));
    put("cdd.errors", cdd_only(&|c| c.run.facts.store.errors as f64));
    put("cdd.locks.grants", sum(&|c| c.run.facts.lock_grants as f64));
    put("cdd.locks.conflicts", sum(&|c| c.run.facts.lock_conflicts as f64));
    put("cdd.image_backlog_peak", max(&|c| c.run.image_backlog_peak as f64));
    let (chits, cmisses) =
        (sum(&|c| c.run.facts.cache_hits as f64), sum(&|c| c.run.facts.cache_misses as f64));
    put("cdd.cache.hit_ratio", ratio(chits, chits + cmisses));
    put("cdd.cache.invalidations", sum(&|c| c.run.facts.cache_invalidations as f64));
    put("cdd.cache.evictions", sum(&|c| c.run.facts.cache_evictions as f64));
    put("cdd.timeouts", sum(&|c| c.run.facts.timeouts as f64));
    put("cdd.failovers", sum(&|c| c.run.facts.failovers as f64));
    put("nfs-sim.write.busy_ms", nfs_only(&|c| ms(c.store("write").busy_ns)));
    put("nfs-sim.read.busy_ms", nfs_only(&|c| ms(c.store("read").busy_ns)));
    put("nfs-sim.calls", nfs_only(&store_calls));

    // cluster (DataPlane)
    let stored = sum(&|c| c.run.facts.plane_written as f64);
    put("cluster.plane.bytes_written", stored);
    put("cluster.plane.bytes_read", sum(&|c| c.run.facts.plane_read as f64));
    let user = cdd_only(&|c| (c.run.facts.store.write_blocks * bs) as f64);
    put("cluster.plane.write_amp", ratio(stored, user));

    // engine
    let run_busy = sum(&|c| c.stat("engine.run").busy_ns as f64);
    let events = sum(&|c| c.run.facts.events as f64);
    put("engine.run.calls", sum(&|c| c.stat("engine.run").calls as f64));
    put("engine.run.busy_ms", run_busy / 1e6);
    put("engine.spawn.busy_ms", sum(&|c| ms(c.stat("engine.spawn").busy_ns)));
    put("engine.events", events);
    put("engine.ns_per_event", ratio(run_busy, events));
    put("engine.events_per_host_s", ratio(events, run_busy / 1e9));
    put(
        "engine.scan_iters_per_event",
        ratio(sum(&|c| c.run.facts.queue_scan_iters as f64), events),
    );
    put("engine.heap_peak", max(&|c| c.run.facts.heap_peak as f64));
    put(
        "engine.task_slot_alloc_ratio",
        ratio(
            sum(&|c| c.run.facts.task_slot_allocs as f64),
            sum(&|c| c.run.facts.tasks_spawned as f64),
        ),
    );

    // modelled components (simulated time)
    put("sim-disk.util_mean", mean(&|c| c.run.facts.resources.disk_util_mean));
    put("sim-disk.util_max", max(&|c| c.run.facts.resources.disk_util_max));
    put("sim-disk.wait_ms_mean", mean(&|c| c.run.facts.resources.disk_wait_ms_mean));
    put("sim-disk.max_queue", max(&|c| c.run.facts.resources.disk_max_queue as f64));
    put("sim-disk.scsi_util_max", max(&|c| c.run.facts.resources.scsi_util_max));
    put("sim-net.tx_util_max", max(&|c| c.run.facts.resources.tx_util_max));
    put("sim-net.rx_util_max", max(&|c| c.run.facts.resources.rx_util_max));
    put("sim-net.wait_ms_mean", mean(&|c| c.run.facts.resources.net_wait_ms_mean));
    put("sim-node.cpu_util_max", max(&|c| c.run.facts.resources.cpu_util_max));
    let gap = |c: &Cfg<'_>| {
        let o = &c.run.facts.outcome;
        o.drain_ns.saturating_sub(o.foreground_ns) as f64 / 1e9
    };
    put("sim.drain_gap_s", sum(&gap));

    // RAID-x latency percentiles and the cache's simulated-time gain
    let (p50, p99) = sim_percentiles_ms(rep);
    put("sim.lat_p50_ms", p50.unwrap_or(0.0));
    put("sim.lat_p99_ms", p99.unwrap_or(0.0));
    put("sim.cache_speedup", cache_speedup(rep).unwrap_or(0.0));

    // per-architecture rows
    for c in &cfgs {
        let key = c.run.key;
        if key == NOCACHE_KEY {
            continue;
        }
        let r = &c.run.facts.resources;
        put(&format!("driver.wall_ms.{key}"), wall(c));
        put(&format!("cdd.write.busy_ms.{key}"), ms(c.store("write").busy_ns));
        put(&format!("cdd.read.busy_ms.{key}"), ms(c.store("read").busy_ns));
        put(&format!("engine.run.busy_ms.{key}"), ms(c.stat("engine.run").busy_ns));
        put(&format!("sim-disk.util_mean.{key}"), r.disk_util_mean);
        put(&format!("sim-disk.util_max.{key}"), r.disk_util_max);
        put(&format!("sim-disk.wait_ms_mean.{key}"), r.disk_wait_ms_mean);
        put(&format!("sim-net.tx_util_max.{key}"), r.tx_util_max);
        put(&format!("sim-net.rx_util_max.{key}"), r.rx_util_max);
        put(&format!("sim.drain_gap_s.{key}"), gap(c));
    }
    m
}

/// Median and 99th percentile (ms) of RAID-x's simulated job latencies;
/// each `None` when fewer than ten samples lie beyond it.
pub fn sim_percentiles_ms(rep: &Rep) -> (Option<f64>, Option<f64>) {
    let Some(raidx) = rep.config("raidx") else { return (None, None) };
    let mut lat = raidx.facts.outcome.job_lat_ns.clone();
    lat.sort_unstable();
    let p = |q| percentile(&lat, q).map(|ns| ns as f64 / 1e6);
    (p(0.5), p(0.99))
}

/// Uncached over cached simulated time of the RAID-x configurations, for
/// workloads that run both.
pub fn cache_speedup(rep: &Rep) -> Option<f64> {
    let plain = rep.config(NOCACHE_KEY)?.facts.outcome.foreground_ns;
    let cached = rep.config("raidx")?.facts.outcome.foreground_ns;
    (cached > 0).then(|| plain as f64 / cached as f64)
}

/// Share of the root span's wall time that layer self times fail to
/// account for, in percent (0 when every span closed under its root).
pub fn ledger_gap_pct(rep: &Rep) -> f64 {
    let (mut wall, mut selfs) = (0u64, 0u64);
    for c in &rep.configs {
        let l = ledger(&c.spans, "driver");
        wall += l.get("driver").map_or(0, |s| s.busy_ns);
        selfs += l.values().map(|s| s.self_ns).sum::<u64>();
    }
    if wall == 0 {
        0.0
    } else {
        100.0 * (wall as f64 - selfs as f64).abs() / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::per_layer;
    use crate::workload::{gen_inputs, run_rep, specs};

    #[test]
    fn replay_reports_positive_costs_and_tolerates_empty_runs() {
        let r = replay_plane(64, 4096, 4);
        assert!(
            r.write_ns_per_block > 0.0 && r.read_ns_per_block > 0.0 && r.xor_ns_per_block > 0.0
        );
        assert_eq!(replay_plane(0, 4096, 4), PlaneReplay::default());
    }

    #[test]
    fn traced_smoke_rep_fills_every_registered_metric_and_the_ledger_closes() {
        for spec in specs(true) {
            let inputs = gen_inputs(&spec, 3);
            let rep = run_rep(&spec, &inputs, true);
            let m = layer_metrics(&rep, 32 << 10);
            for def in per_layer() {
                if def.name == "trace_overhead_pct"
                    || def.name.starts_with("cluster.plane.") && def.name.ends_with("_ns_per_block")
                {
                    continue; // added by the runner
                }
                assert!(m.contains_key(&def.name), "{}: {} missing", spec.name, def.name);
            }
            for name in m.keys() {
                assert!(per_layer().iter().any(|d| d.name == *name), "{name} is not registered");
            }
            assert!(ledger_gap_pct(&rep) < 1e-9, "{}: self times must sum to wall", spec.name);
            let layers: f64 = [
                "driver.self_ms",
                "cfs.self_ms",
                "cdd.write.busy_ms",
                "cdd.read.busy_ms",
                "cdd.flush.busy_ms",
                "nfs-sim.write.busy_ms",
                "nfs-sim.read.busy_ms",
                "engine.run.busy_ms",
                "engine.spawn.busy_ms",
            ]
            .iter()
            .map(|k| m[*k])
            .sum();
            // nfs-sim.flush is the one span without a metric of its own; it is ~0.
            assert!(
                (layers - m["driver.wall_ms"]).abs() <= 0.05 * m["driver.wall_ms"],
                "{}",
                spec.name
            );
            assert_eq!(m["cfs.self_ms"] > 0.0, spec.name == "andrew", "{}", spec.name);
            assert_eq!(m["cdd.cache.hit_ratio"] > 0.0, spec.name == "zipf_cache", "{}", spec.name);
            assert_eq!(m["cdd.errors"], 0.0);
        }
    }
}
