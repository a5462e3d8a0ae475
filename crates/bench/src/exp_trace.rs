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
//! Per architecture this writes three files (slug ∈ nfs/raid5/raid10/raidx),
//! all rendered from the run's one derivation, [`RunMetrics`]:
//!
//! * `trace_{slug}.json` — Chrome trace-event JSON; open at
//!   <https://ui.perfetto.dev>. One track per disk/link/node resource,
//!   one per job, counter tracks for queue depth and OSM backlog.
//! * `series_{slug}.csv` — every series: queue depths, windowed
//!   utilization, the flush backlog and, for the RAID kinds, the CDD's
//!   per-op image backlog.
//! * `metrics_{slug}.json` — counters, the job-latency summary (exact
//!   percentiles) and each series' last/max values.
//!
//! Everything here is driven by simulated time; the CDD image-backlog
//! samples are keyed by *operation sequence number* (a write's functional
//! update is logically instantaneous, so a sim-time axis would be empty).

use cdd::{CddConfig, IoSystem};
use cluster::ClusterConfig;
use sim_core::trace::EventLog;
use sim_core::{chrome_trace_json, json_is_valid, Engine, ResourceSeries, RunMetrics, SimDuration};
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
pub struct TraceRun {
    /// Architecture traced.
    pub kind: SystemKind,
    /// File-name slug (`nfs`, `raid5`, `raid10`, `raidx`).
    pub slug: &'static str,
    /// Foreground bandwidth result of the traced run.
    pub bw: BandwidthResult,
    /// The one derivation of the run's event stream.
    pub metrics: RunMetrics,
    /// The engine the run used; [`smoke_check`] holds the derivation
    /// against the engine's own counters.
    pub engine: Engine,
    /// CDD lock grants (`None` for NFS).
    pub lock_grants: Option<u64>,
    /// Whether the emitted Chrome trace parsed as valid JSON.
    pub trace_json_valid: bool,
    /// Paths written, in `trace/series/metrics` order.
    pub paths: [String; 3],
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
    // RAID kinds keep the concrete `IoSystem` in hand for the counters
    // the CDD keeps itself; NFS goes through the generic builder.
    let (bw, lock_grants, image_backlog) = match kind {
        SystemKind::Raid(arch) => {
            let mut sys = IoSystem::new(&mut engine, cfg.cc.clone(), arch, CddConfig::default());
            sys.enable_lock_metrics();
            engine.set_tracer(Box::new(log.clone()));
            let bw = run_parallel_io(&mut engine, &mut sys, &io_cfg).expect("traced run failed");
            let backlog = sys.take_backlog_samples();
            (bw, Some(sys.lock_grants()), Some(backlog))
        }
        SystemKind::Nfs => {
            let mut store = build_store(&mut engine, cfg.cc.clone(), kind);
            engine.set_tracer(Box::new(log.clone()));
            let bw = run_parallel_io(&mut engine, &mut store, &io_cfg).expect("traced run failed");
            (bw, None, None)
        }
    };
    let events = log.take();
    let names = engine.resources().map(|(_, n, _)| n.to_string()).collect();
    let mut metrics = RunMetrics::derive(&events, names, cfg.tick);
    if let Some(grants) = lock_grants {
        metrics.store_counters = vec![("cdd.lock_grants", grants)];
    }
    if let Some(samples) = image_backlog {
        // Post-op buffered image blocks: the series the backlog bound
        // clamps (the time-domain backlog tracks detached in-flight writes
        // instead).
        let points = samples.into_iter().map(|(op, blocks)| (op, blocks as u64)).collect();
        metrics.store_series = vec![("cdd.image_backlog_by_op", points)];
    }

    let s = slug(kind);
    let trace = chrome_trace_json(&events, &metrics);
    let trace_json_valid = json_is_valid(&trace);
    std::fs::create_dir_all(&cfg.out_dir)?;
    let paths = [
        format!("{}/trace_{s}.json", cfg.out_dir),
        format!("{}/series_{s}.csv", cfg.out_dir),
        format!("{}/metrics_{s}.json", cfg.out_dir),
    ];
    std::fs::write(&paths[0], &trace)?;
    std::fs::write(&paths[1], metrics.series_csv())?;
    std::fs::write(&paths[2], metrics.metrics_json())?;
    Ok(TraceRun { kind, slug: s, bw, metrics, engine, lock_grants, trace_json_valid, paths })
}

/// Trace all four measured architectures.
pub fn run_all(cfg: &TraceConfig) -> std::io::Result<Vec<TraceRun>> {
    par_map(SystemKind::MEASURED.to_vec(), |kind| run_arch(kind, cfg)).into_iter().collect()
}

fn kb(bytes: i64) -> String {
    format!("{:.0}", bytes as f64 / 1024.0)
}

impl TraceRun {
    /// OSM flush backlog (bytes) when the last client finished.
    fn backlog_at_foreground_end(&self) -> i64 {
        self.metrics.backlog_at((self.bw.elapsed_secs * 1e9).round() as u64)
    }

    /// OSM flush backlog (bytes) once the run fully drained; must be 0.
    fn backlog_final(&self) -> i64 {
        self.metrics.backlog_at(self.metrics.end_ns)
    }
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
        "lock grants",
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
                kb(r.metrics.backlog_peak()),
                kb(r.backlog_at_foreground_end()),
                kb(r.backlog_final()),
                r.metrics.latency_percentiles().map_or("-".to_string(), |[p50, p95, p99]| {
                    format!("{}/{}/{}", p50 / 1000, p95 / 1000, p99 / 1000)
                }),
                r.lock_grants.map_or("-".to_string(), |g| g.to_string()),
                r.metrics.events.to_string(),
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
            kb(rx.metrics.backlog_peak()),
            kb(rx.backlog_at_foreground_end()),
            kb(rx.backlog_final()),
            bg,
            kb(r10.metrics.backlog_peak()),
            r10.bw.drain_secs,
            r10.bw.elapsed_secs,
        ));
    }
    let total_events: usize = runs.iter().map(|r| r.metrics.events).sum();
    out.push_str(&format!("\nTotals: {total_events} trace events across {} runs.\n", runs.len()));
    for r in runs {
        let peaks: Vec<String> =
            disks(r).map(|d| format!("{}={}", d.name, d.queue_peak())).collect();
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

/// The disks a run queued anything at, in resource order.
fn disks(r: &TraceRun) -> impl Iterator<Item = &ResourceSeries> {
    r.metrics.resources.iter().filter(|s| s.name.starts_with("disk") && !s.queue_depth.is_empty())
}

/// Assert the properties a smoke run must exhibit; returns the first
/// violated property as an error string.
pub fn smoke_check(runs: &[TraceRun]) -> Result<(), String> {
    if runs.len() != SystemKind::MEASURED.len() {
        return Err(format!("expected {} runs, got {}", SystemKind::MEASURED.len(), runs.len()));
    }
    for r in runs {
        if r.metrics.events == 0 {
            return Err(format!("{}: tracer recorded no events", r.slug));
        }
        if !r.trace_json_valid {
            return Err(format!("{}: Chrome trace is not valid JSON", r.slug));
        }
        if r.bw.drain_secs + 1e-12 < r.bw.elapsed_secs {
            return Err(format!("{}: drain time shorter than foreground time", r.slug));
        }
        derivation_agrees(r)?;
    }
    let rx = &runs[3];
    if rx.metrics.backlog_peak() <= 0 {
        return Err("raidx: OSM flush backlog never rose above zero".to_string());
    }
    if rx.backlog_final() != 0 {
        return Err(format!("raidx: backlog did not drain to zero ({})", rx.backlog_final()));
    }
    if rx.bw.drain_secs <= rx.bw.elapsed_secs {
        return Err("raidx: no background drain phase after foreground end".to_string());
    }
    if !disks(rx).any(|d| d.queue_peak() > 0) {
        return Err("raidx: parallel writes never queued at any disk".to_string());
    }
    let r10 = &runs[2];
    if r10.metrics.backlog_peak() != 0 {
        return Err("raid10: mirror writes unexpectedly deferred".to_string());
    }
    Ok(())
}

/// The run's derivation against what the engine counted itself: every
/// resource's queue-depth peak, and the latency of every job (the stream
/// stamps `JobSpawned` at a job's start and `JobFinished` at its end).
/// The percentiles must be ordered samples no later than the drain.
fn derivation_agrees(r: &TraceRun) -> Result<(), String> {
    let m = &r.metrics;
    for ((_, name, stats), derived) in r.engine.resources().zip(&m.resources) {
        if derived.queue_peak() != stats.max_queue as i64 {
            let (d, e) = (derived.queue_peak(), stats.max_queue);
            return Err(format!("{}: {name} queue peak derived {d}, engine {e}", r.slug));
        }
    }
    let mut engine_ns: Vec<u64> =
        r.engine.jobs().iter().filter_map(|j| Some(j.try_latency()?.as_nanos())).collect();
    engine_ns.sort_unstable();
    if engine_ns != m.latencies_ns {
        return Err(format!("{}: latencies {:?}, engine {engine_ns:?}", r.slug, m.latencies_ns));
    }
    let Some([p50, p95, p99]) = m.latency_percentiles() else {
        return Err(format!("{}: no job latency samples", r.slug));
    };
    let (min, max) = (m.latencies_ns[0], m.latencies_ns[m.latencies_ns.len() - 1]);
    if !(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max) {
        return Err(format!("{}: p50/p95/p99 {p50}/{p95}/{p99} ns outside [{min}, {max}]", r.slug));
    }
    if p99 as f64 / 1e9 > r.bw.drain_secs + 1e-12 {
        return Err(format!("{}: p99 {p99} ns past the drain at {}s", r.slug, r.bw.drain_secs));
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
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
        let runs = run_all(&cfg).expect("trace export failed");
        // Includes the derivation-against-engine check for every run.
        smoke_check(&runs).expect("smoke property violated");
        let mut written: Vec<String> = runs.iter().flat_map(|r| r.paths.clone()).collect();
        for p in &written {
            let meta = std::fs::metadata(p).expect("exported file missing");
            assert!(meta.len() > 0, "{p} is empty");
        }
        let mut listed: Vec<String> = std::fs::read_dir(&cfg.out_dir)
            .expect("out dir")
            .map(|e| e.expect("dir entry").path().to_string_lossy().into_owned())
            .collect();
        written.sort();
        listed.sort();
        assert_eq!(listed, written, "three files per architecture and nothing else");
        let summary = render_summary(&runs);
        assert!(summary.contains("RAID-x defers mirror-image writes"));
        assert!(summary.contains("trace_raidx.json"));
        assert!(summary.contains("Totals:"), "{summary}");
        assert!(summary.contains("peak disk queue depth"), "{summary}");
    }

    #[test]
    fn raid_runs_record_lock_metrics() {
        let cfg = TraceConfig { out_dir: test_out_dir("locks"), ..TraceConfig::smoke() };
        let r = run_arch(SystemKind::MEASURED[3], &cfg).expect("raidx trace failed");
        let grants = r.lock_grants.expect("raid run must report lock grants");
        assert!(grants > 0, "no lock grants recorded");
        // The per-op image-backlog samples reach the exported series.
        let series = std::fs::read_to_string(&r.paths[1]).expect("series csv missing");
        let gauge = "cdd.image_backlog_by_op,";
        assert!(series.lines().any(|l| l.starts_with(gauge)), "{gauge} not exported");
    }
}
