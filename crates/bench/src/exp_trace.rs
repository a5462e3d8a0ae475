//! Trace capture: run the Figure-5 style parallel-write benchmark under
//! each architecture with the [`sim_core::trace::EventLog`] tracer
//! installed and export Perfetto-loadable Chrome traces plus CSV/JSON
//! metrics under `results/traces/`.
//!
//! The headline claim the summary proves: RAID-x's mirror-image writes
//! are **deferred** — the OSM flush backlog grows during the foreground
//! phase and drains in the background after the last client finishes —
//! while RAID-10 performs its mirror writes on the foreground path (its
//! backlog gauge never rises and its drain time equals its foreground
//! time).
//!
//! Per architecture this writes four files (slug ∈ nfs/raid5/raid10/raidx):
//!
//! * `trace_{slug}.json` — Chrome trace-event JSON; open at
//!   <https://ui.perfetto.dev>. One track per disk/link/node resource,
//!   one per job, counter tracks for queue depth and OSM backlog.
//! * `util_{slug}.csv` — per-resource windowed utilization.
//! * `series_{slug}.csv` — every gauge series (queue depths, backlog).
//! * `metrics_{slug}.json` — counters + latency-histogram summaries.
//!
//! Everything here is driven by simulated time; the CDD lock-group
//! samples are keyed by *operation sequence number* (lock grants are
//! scoped to a functional call, so a sim-time axis would be empty).

use cdd::{CddConfig, IoSystem};
use cluster::ClusterConfig;
use sim_core::trace::EventLog;
use sim_core::{
    chrome_trace_json, json_is_valid, metrics_csv, metrics_json, utilization_csv, Engine,
    MetricsRegistry, SimDuration, SimTime,
};
use workloads::parallel_io::{run_parallel_io, BandwidthResult, IoPattern, ParallelIoConfig};

use crate::harness::{build_store, md_table, par_map, SystemKind};

/// Parameters of a trace capture.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Cluster shape and hardware.
    pub cc: ClusterConfig,
    /// Concurrent writer clients.
    pub clients: usize,
    /// Synchronized write bursts per client.
    pub repeats: usize,
    /// Bytes per client per burst.
    pub write_bytes: u64,
    /// Utilization window width (widened automatically for long runs).
    pub tick: SimDuration,
    /// Output directory for the exported files.
    pub out_dir: String,
}

impl Default for TraceConfig {
    fn default() -> Self {
        let mut cc = ClusterConfig::trojans();
        cc.disk.capacity = 64 << 20;
        TraceConfig {
            cc,
            clients: 4,
            repeats: 2,
            write_bytes: 1 << 20,
            tick: SimDuration::from_micros(500),
            out_dir: "results/traces".to_string(),
        }
    }
}

impl TraceConfig {
    /// A fast configuration for CI smoke runs: a 4×1 array, two clients,
    /// one 128 KB burst each.
    pub fn smoke() -> Self {
        let mut cc = ClusterConfig::shape(4, 1);
        cc.disk.capacity = 8 << 20;
        TraceConfig {
            cc,
            clients: 2,
            repeats: 1,
            write_bytes: 128 << 10,
            tick: SimDuration::from_micros(200),
            ..Self::default()
        }
    }
}

/// Everything measured and exported for one architecture.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Architecture traced.
    pub kind: SystemKind,
    /// File-name slug (`nfs`, `raid5`, `raid10`, `raidx`).
    pub slug: &'static str,
    /// Foreground bandwidth result of the traced run.
    pub bw: BandwidthResult,
    /// Events recorded by the tracer.
    pub events: usize,
    /// Peak of the OSM flush-backlog gauge (bytes).
    pub backlog_peak: f64,
    /// Backlog still pending when the last client finished (bytes).
    pub backlog_at_foreground_end: f64,
    /// Backlog after the run fully drained (bytes; must be 0).
    pub backlog_final: f64,
    /// Foreground job latency percentiles in nanoseconds (p50, p95, p99).
    pub latency_ns: Option<(u64, u64, u64)>,
    /// CDD lock grants / conflicts (`None` for NFS).
    pub locks: Option<(u64, u64)>,
    /// Samples that fell past the largest bound of any latency histogram
    /// (their percentiles degrade to exact-max); nonzero means the stock
    /// bucket bounds under-cover this workload.
    pub hist_overflow: u64,
    /// Peak queue depth per disk resource, `(resource name, depth)` in
    /// registry order.
    pub disk_queue_peaks: Vec<(String, u64)>,
    /// Whether the emitted Chrome trace parsed as valid JSON.
    pub trace_json_valid: bool,
    /// Paths written, in `trace/util/series/metrics` order.
    pub paths: [String; 4],
}

/// Map an architecture to its file-name slug.
pub fn slug(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Nfs => "nfs",
        SystemKind::Raid(raidx_core::Arch::Raid5) => "raid5",
        SystemKind::Raid(raidx_core::Arch::Raid10) => "raid10",
        SystemKind::Raid(raidx_core::Arch::RaidX) => "raidx",
        SystemKind::Raid(raidx_core::Arch::Chained) => "chained",
    }
}

/// Run the traced workload for one architecture and export its files.
pub fn run_arch(kind: SystemKind, cfg: &TraceConfig) -> std::io::Result<TraceRun> {
    let mut engine = Engine::new();
    let log = EventLog::new();
    let io_cfg = ParallelIoConfig {
        clients: cfg.clients,
        pattern: IoPattern::LargeWrite,
        large_bytes: cfg.write_bytes,
        repeats: cfg.repeats,
        ..Default::default()
    };
    // RAID kinds keep the concrete `IoSystem` in hand so the CDD lock
    // metrics can be sampled; NFS goes through the generic builder.
    let (bw, locks, lock_samples, backlog_samples) = match kind {
        SystemKind::Raid(arch) => {
            let mut sys = IoSystem::new(&mut engine, cfg.cc.clone(), arch, CddConfig::default());
            sys.enable_lock_metrics();
            engine.set_tracer(Box::new(log.clone()));
            let bw = run_parallel_io(&mut engine, &mut sys, &io_cfg).expect("traced run failed");
            let samples = sys.take_lock_samples();
            let backlog = sys.take_backlog_samples();
            (bw, Some((sys.lock_grants(), sys.lock_conflicts())), samples, Some(backlog))
        }
        SystemKind::Nfs => {
            let mut store = build_store(&mut engine, cfg.cc.clone(), kind);
            engine.set_tracer(Box::new(log.clone()));
            let bw = run_parallel_io(&mut engine, &mut store, &io_cfg).expect("traced run failed");
            (bw, None, Vec::new(), None)
        }
    };
    let events = log.take();
    let res_names: Vec<String> = engine.resources().map(|(_, n, _)| n.to_string()).collect();
    let mut reg = MetricsRegistry::from_events(&events, &res_names, cfg.tick);
    if let Some((grants, conflicts)) = locks {
        reg.set_counter("cdd.lock_grants", grants);
        reg.set_counter("cdd.lock_conflicts", conflicts);
        // Held-lock samples are keyed by op sequence, not sim time.
        let series = reg.gauge_mut("cdd.locks_held_by_op");
        for &(op, held) in &lock_samples {
            series.push(SimTime(op), held as f64);
        }
    }
    if let Some(samples) = &backlog_samples {
        // Post-op buffered image blocks, keyed by op sequence. This is
        // the series the backlog bound clamps (the time-domain
        // `osm.flush_backlog_bytes` gauge tracks detached in-flight
        // writes instead).
        let series = reg.gauge_mut("cdd.image_backlog_by_op");
        for &(op, blocks) in samples {
            series.push(SimTime(op), blocks as f64);
        }
    }

    let s = slug(kind);
    let trace = chrome_trace_json(&events, &res_names);
    let trace_json_valid = json_is_valid(&trace);
    std::fs::create_dir_all(&cfg.out_dir)?;
    let paths = [
        format!("{}/trace_{s}.json", cfg.out_dir),
        format!("{}/util_{s}.csv", cfg.out_dir),
        format!("{}/series_{s}.csv", cfg.out_dir),
        format!("{}/metrics_{s}.json", cfg.out_dir),
    ];
    std::fs::write(&paths[0], &trace)?;
    std::fs::write(&paths[1], utilization_csv(&reg))?;
    std::fs::write(&paths[2], metrics_csv(&reg))?;
    std::fs::write(&paths[3], metrics_json(&reg))?;

    let backlog = reg.gauge("osm.flush_backlog_bytes");
    let fg_end = SimTime((bw.elapsed_secs * 1e9).round() as u64);
    let lat = reg.histogram("job_latency_ns");
    let hist_overflow = reg.histograms().map(|(_, h)| h.overflow_count()).sum();
    let disk_queue_peaks = reg
        .gauges()
        .filter(|(name, _)| name.starts_with("disk") && name.ends_with(".queue_depth"))
        .map(|(name, series)| {
            let res = name.trim_end_matches(".queue_depth").to_string();
            (res, series.max_value().unwrap_or(0.0).round() as u64)
        })
        .collect();
    Ok(TraceRun {
        kind,
        slug: s,
        events: events.len(),
        backlog_peak: backlog.and_then(|b| b.max_value()).unwrap_or(0.0),
        backlog_at_foreground_end: backlog.and_then(|b| b.value_at(fg_end)).unwrap_or(0.0),
        backlog_final: backlog.and_then(|b| b.last()).unwrap_or(0.0),
        latency_ns: lat
            .and_then(|h| Some((h.percentile(50.0)?, h.percentile(95.0)?, h.percentile(99.0)?))),
        locks,
        hist_overflow,
        disk_queue_peaks,
        trace_json_valid,
        paths,
        bw,
    })
}

/// Trace all four measured architectures.
pub fn run_all(cfg: &TraceConfig) -> std::io::Result<Vec<TraceRun>> {
    par_map(SystemKind::MEASURED.to_vec(), |kind| run_arch(kind, cfg)).into_iter().collect()
}

fn kb(bytes: f64) -> String {
    format!("{:.0}", bytes / 1024.0)
}

/// Render the summary table plus the foreground/background narrative.
pub fn render_summary(runs: &[TraceRun]) -> String {
    let mut out = String::new();
    out.push_str("\n### Trace capture: parallel large writes, foreground vs background\n\n");
    let headers = [
        "arch",
        "MB/s",
        "foreground s",
        "drain s",
        "backlog peak KB",
        "backlog @fg-end KB",
        "backlog final KB",
        "p50/p95/p99 us",
        "lock grants/conflicts",
        "events",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.kind.name().to_string(),
                format!("{:.1}", r.bw.aggregate_mbs),
                format!("{:.4}", r.bw.elapsed_secs),
                format!("{:.4}", r.bw.drain_secs),
                kb(r.backlog_peak),
                kb(r.backlog_at_foreground_end),
                kb(r.backlog_final),
                r.latency_ns.map_or("-".to_string(), |(p50, p95, p99)| {
                    format!("{}/{}/{}", p50 / 1000, p95 / 1000, p99 / 1000)
                }),
                r.locks.map_or("-".to_string(), |(g, c)| format!("{g}/{c}")),
                r.events.to_string(),
            ]
        })
        .collect();
    out.push_str(&md_table(&headers, &rows));

    let find = |k: SystemKind| runs.iter().find(|r| r.kind == k);
    if let (Some(rx), Some(r10)) = (find(SystemKind::MEASURED[3]), find(SystemKind::MEASURED[2])) {
        let bg = rx.bw.drain_secs - rx.bw.elapsed_secs;
        out.push_str(&format!(
            "\nRAID-x defers mirror-image writes: its backlog peaks at {} KB, still \
             holds {} KB when the last client finishes, and drains to {} KB \
             {:.4}s later in the background — the foreground figure excludes that \
             flush time. RAID-10 mirrors on the foreground path: backlog peak \
             {} KB and drain time equals foreground time \
             ({:.4}s vs {:.4}s).\n",
            kb(rx.backlog_peak),
            kb(rx.backlog_at_foreground_end),
            kb(rx.backlog_final),
            bg,
            kb(r10.backlog_peak),
            r10.bw.drain_secs,
            r10.bw.elapsed_secs,
        ));
    }
    let total_events: usize = runs.iter().map(|r| r.events).sum();
    let total_overflow: u64 = runs.iter().map(|r| r.hist_overflow).sum();
    out.push_str(&format!(
        "\nTotals: {total_events} trace events across {} runs; {total_overflow} \
         histogram samples past the largest bucket bound (exact-max fallback).\n",
        runs.len()
    ));
    for r in runs {
        let peaks: Vec<String> =
            r.disk_queue_peaks.iter().map(|(res, d)| format!("{res}={d}")).collect();
        out.push_str(&format!(
            "  {}: peak disk queue depth {}\n",
            r.slug,
            if peaks.is_empty() { "-".to_string() } else { peaks.join(" ") }
        ));
    }
    for r in runs {
        out.push_str(&format!("  {} -> {}\n", r.slug, r.paths.join(", ")));
    }
    out
}

/// Assert the properties a smoke run must exhibit; returns the first
/// violated property as an error string.
pub fn smoke_check(runs: &[TraceRun]) -> Result<(), String> {
    if runs.len() != SystemKind::MEASURED.len() {
        return Err(format!("expected {} runs, got {}", SystemKind::MEASURED.len(), runs.len()));
    }
    for r in runs {
        if r.events == 0 {
            return Err(format!("{}: tracer recorded no events", r.slug));
        }
        if !r.trace_json_valid {
            return Err(format!("{}: Chrome trace is not valid JSON", r.slug));
        }
        if r.latency_ns.is_none() {
            return Err(format!("{}: no job latency samples", r.slug));
        }
        if r.bw.drain_secs + 1e-12 < r.bw.elapsed_secs {
            return Err(format!("{}: drain time shorter than foreground time", r.slug));
        }
    }
    let rx = &runs[3];
    if rx.backlog_peak <= 0.0 {
        return Err("raidx: OSM flush backlog never rose above zero".to_string());
    }
    if rx.backlog_final != 0.0 {
        return Err(format!("raidx: backlog did not drain to zero ({})", rx.backlog_final));
    }
    if rx.bw.drain_secs <= rx.bw.elapsed_secs {
        return Err("raidx: no background drain phase after foreground end".to_string());
    }
    let r10 = &runs[2];
    if r10.backlog_peak != 0.0 {
        return Err("raid10: mirror writes unexpectedly deferred".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_out_dir(name: &str) -> String {
        format!("{}/../../target/tmp-traces-{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn smoke_run_emits_valid_traces_and_proves_background_drain() {
        let cfg = TraceConfig { out_dir: test_out_dir("smoke"), ..TraceConfig::smoke() };
        let runs = run_all(&cfg).expect("trace export failed");
        smoke_check(&runs).expect("smoke property violated");
        for r in &runs {
            for p in &r.paths {
                let meta = std::fs::metadata(p).expect("exported file missing");
                assert!(meta.len() > 0, "{p} is empty");
            }
        }
        let summary = render_summary(&runs);
        assert!(summary.contains("RAID-x defers mirror-image writes"));
        assert!(summary.contains("trace_raidx.json"));
        assert!(summary.contains("Totals:"), "{summary}");
        assert!(summary.contains("peak disk queue depth"), "{summary}");
        let rx = &runs[3];
        assert!(!rx.disk_queue_peaks.is_empty(), "no disk queue gauges sampled");
        assert!(
            rx.disk_queue_peaks.iter().any(|(_, d)| *d > 0),
            "parallel writes never queued at any disk: {:?}",
            rx.disk_queue_peaks
        );
    }

    #[test]
    fn raid_runs_record_lock_metrics() {
        let cfg = TraceConfig { out_dir: test_out_dir("locks"), ..TraceConfig::smoke() };
        let r = run_arch(SystemKind::MEASURED[3], &cfg).expect("raidx trace failed");
        let (grants, _) = r.locks.expect("raid run must report lock counters");
        assert!(grants > 0, "no lock grants recorded");
        // The per-op lock and backlog samples reach the exported series.
        let series = std::fs::read_to_string(&r.paths[2]).expect("series csv missing");
        for gauge in ["cdd.locks_held_by_op,", "cdd.image_backlog_by_op,"] {
            assert!(series.lines().any(|l| l.starts_with(gauge)), "{gauge} not exported");
        }
    }
}
