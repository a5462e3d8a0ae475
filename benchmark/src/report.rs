//! Turning repetitions into a result: the stability check, the metric
//! values, the printed table and the results JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Value;
use crate::ledger::{cache_speedup, sim_percentiles_ms};
use crate::metrics::{metric_def, per_layer, MetricDef, END_TO_END, WORKLOAD_ONLY};
use crate::stats::{summarize, Summary};
use crate::workload::{Rep, Spec};

/// Schema tag of the results file.
pub const SCHEMA: &str = "raidx-benchmark/v1";

/// One metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricValue {
    /// The value reported (a median for host timings).
    pub value: f64,
    /// First quartile over repetitions (host timings only).
    pub q1: f64,
    /// Third quartile over repetitions (host timings only).
    pub q3: f64,
    /// Repetitions behind the value (1 for simulated metrics, which must
    /// be identical in every repetition).
    pub n: usize,
}

impl MetricValue {
    fn exact(value: f64) -> Self {
        MetricValue { value, q1: value, q3: value, n: 1 }
    }

    fn of(s: Summary) -> Self {
        MetricValue { value: s.median, q1: s.q1, q3: s.q3, n: s.n }
    }

    /// Distance between the quartiles as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Shrunk sizes; never comparable with a full run.
    pub smoke: bool,
    /// No operation failed and every repetition agreed.
    pub correct: bool,
    /// Simulated results or work counts differed between repetitions.
    pub unstable: bool,
    /// Operations issued in one repetition.
    pub attempted: u64,
    /// Operations that failed in one repetition (all of them if unstable).
    pub failed: u64,
    /// Timed (untraced) repetitions.
    pub reps: usize,
    /// Host seconds of the discarded warm-up repetition: what a one-shot
    /// `exp_*` binary pays, first-touch page faults included. Information
    /// only, not a metric.
    pub cold_wall_s: f64,
    /// End-to-end and workload-only metrics, by name.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Deterministic work counts, by name.
    pub work: BTreeMap<String, u64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn applies(def: &MetricDef, workload: &str) -> bool {
    def.workloads.is_empty() || def.workloads.contains(&workload)
}

/// Build the result of `spec` from its warm-up, its timed repetitions and
/// (possibly no) traced repetitions. Every repetition must agree with the
/// warm-up on everything simulated or counted; if one does not, the
/// workload is `unstable` and every operation counts as failed.
pub fn build(
    spec: &Spec,
    seed: u64,
    smoke: bool,
    warm: &Rep,
    timed: &[Rep],
    traced: &[Rep],
    rss_mb: f64,
) -> WorkloadResult {
    let same = |r: &Rep| r.configs.iter().zip(&warm.configs).all(|(a, b)| a.facts == b.facts);
    let unstable = !timed.iter().chain(traced).all(same);
    let attempted: u64 = warm.configs.iter().map(|c| c.facts.outcome.attempted).sum();
    let failed: u64 =
        if unstable { attempted } else { warm.configs.iter().map(|c| c.facts.failed()).sum() };

    let mut metrics = BTreeMap::new();
    let host: Vec<f64> = timed.iter().map(Rep::host_s).collect();
    let setup: Vec<f64> = timed.iter().map(Rep::setup_s).collect();
    metrics.insert("host_rep_s".to_string(), MetricValue::of(summarize(&host)));
    metrics.insert("setup_s".to_string(), MetricValue::of(summarize(&setup)));
    metrics.insert("host_peak_rss_mb".to_string(), MetricValue::exact(rss_mb));
    let mut put = |name: String, v: f64| {
        metrics.insert(name, MetricValue::exact(v));
    };
    put("fail_ratio".to_string(), failed as f64 / attempted.max(1) as f64);
    let mut work = BTreeMap::new();
    for c in &warm.configs {
        let o = &c.facts.outcome;
        let key = c.key;
        for (name, v) in [
            ("attempted", o.attempted),
            ("events", c.facts.events),
            ("queue_scan_iters", c.facts.queue_scan_iters),
            ("tasks_spawned", c.facts.tasks_spawned),
            ("store_write_blocks", c.facts.store.write_blocks),
            ("store_read_blocks", c.facts.store.read_blocks),
            ("plane_bytes_written", c.facts.plane_written),
            ("sim_foreground_ns", o.foreground_ns),
            ("sim_drain_ns", o.drain_ns),
        ] {
            work.insert(format!("{name}.{key}"), v);
        }
        // bytes per simulated nanosecond is GB/s
        let mbs = if o.foreground_ns == 0 {
            0.0
        } else {
            o.payload_bytes as f64 / o.foreground_ns as f64 * 1e3
        };
        if metric_def(&format!("sim_mbs.{key}")).is_some() {
            put(format!("sim_mbs.{key}"), mbs);
        }
        if metric_def(&format!("sim_elapsed_s.{key}")).is_some_and(|d| applies(d, spec.name)) {
            put(format!("sim_elapsed_s.{key}"), o.foreground_ns as f64 / 1e9);
        }
    }
    if spec.name == "zipf_cache" {
        let (p50, p99) = sim_percentiles_ms(warm);
        for (name, v) in [("sim_lat_p50_ms", p50), ("sim_lat_p99_ms", p99)] {
            // Unsupported at this sample size (smoke runs): not reported.
            if let Some(v) = v {
                put(name.to_string(), v);
            }
        }
        if let Some(x) = cache_speedup(warm) {
            put("sim_cache_speedup".to_string(), x);
        }
    }

    WorkloadResult {
        name: spec.name.to_string(),
        seed,
        smoke,
        correct: failed == 0 && !unstable,
        unstable,
        attempted,
        failed,
        reps: timed.len(),
        cold_wall_s: warm.host_s(),
        metrics,
        work,
        layers: BTreeMap::new(),
    }
}

/// The table a person reads: every metric by name with its unit,
/// direction and bound, quartiles and sample count beside host timings.
pub fn render_table(r: &WorkloadResult) -> String {
    let mut s = String::new();
    let status = match (r.correct, r.unstable) {
        (true, _) => "correct",
        (false, true) => "FAILED (unstable: repetitions disagree)",
        (false, false) => "FAILED",
    };
    let _ = writeln!(
        s,
        "== {} seed={} reps={} ops={} failed={} {}{}",
        r.name,
        r.seed,
        r.reps,
        r.attempted,
        r.failed,
        status,
        if r.smoke { " [smoke]" } else { "" }
    );
    let _ =
        writeln!(s, "   cold_wall_s = {:.4} (discarded warm-up; information only)", r.cold_wall_s);
    for def in END_TO_END.iter().chain(WORKLOAD_ONLY.iter()) {
        let Some(v) = r.metrics.get(def.name) else { continue };
        let bound = if def.name == "fail_ratio" {
            "must not rise".to_string()
        } else if def.exact {
            format!("exact (±{:.0}% across seeds)", def.bound * 100.0)
        } else if def.abs_floor > 0.0 {
            format!("±{:.0}% or {} {}", def.bound * 100.0, def.abs_floor, def.unit)
        } else {
            format!("±{:.0}%", def.bound * 100.0)
        };
        let _ = write!(
            s,
            "   {:<22} {:>14.6} {:<5} {:<6} bound {}",
            def.name,
            v.value,
            def.unit,
            def.better.as_str(),
            bound
        );
        if v.n > 1 {
            let _ = write!(s, "  [q1 {:.6} q3 {:.6} n {}]", v.q1, v.q3, v.n);
        }
        s.push('\n');
    }
    if !r.layers.is_empty() {
        let _ = writeln!(s, "   -- layer ledger (traced repetitions) --");
        for def in per_layer() {
            if let Some(v) = r.layers.get(&def.name) {
                let _ = writeln!(
                    s,
                    "   {:<34} {:>16.4} {:<6} {}",
                    def.name,
                    v,
                    def.unit,
                    def.better.as_str()
                );
            }
        }
    }
    s
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line the PR driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` — every end-to-end metric untraced, every
/// per-layer metric traced.
pub fn contract_line(r: &WorkloadResult, trace: bool) -> String {
    let mut items = Vec::new();
    if trace {
        for def in per_layer() {
            let v = r.layers.get(&def.name).copied().unwrap_or(0.0);
            items.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                num(v),
                def.unit
            ));
        }
    } else {
        for def in END_TO_END {
            let v = r.metrics.get(def.name).map_or(0.0, |m| m.value);
            items.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                num(v),
                def.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        items.join(", ")
    )
}

/// One workload as a JSON object of the results file.
pub fn workload_json(r: &WorkloadResult) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"name\": \"{}\", \"seed\": {}, \"smoke\": {}, \"correct\": {}, \"unstable\": {}, \"attempted\": {}, \"failed\": {}, \"reps\": {}, \"cold_wall_s\": {},\n  \"metrics\": {{",
        r.name, r.seed, r.smoke, r.correct, r.unstable, r.attempted, r.failed, r.reps, num(r.cold_wall_s)
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v)| {
            let (unit, better) =
                metric_def(name).map_or(("", "lower"), |d| (d.unit, d.better.as_str()));
            format!(
                "\n    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"better\": \"{better}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                num(v.value),
                num(v.q1),
                num(v.q3),
                v.n
            )
        })
        .collect();
    s.push_str(&metrics.join(","));
    s.push_str("\n  },\n  \"work\": {");
    let work: Vec<String> = r.work.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    s.push_str(&work.join(", "));
    s.push_str("},\n  \"layers\": {");
    let layers: Vec<String> =
        r.layers.iter().map(|(k, v)| format!("\"{k}\": {}", num(*v))).collect();
    s.push_str(&layers.join(", "));
    s.push_str("}}");
    s
}

/// A whole results file from already rendered workload objects.
pub fn results_json(
    seed: u64,
    seconds: u64,
    smoke: bool,
    workloads: &[String],
    traced: &[String],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    format!(
        "{{\"schema\": \"{SCHEMA}\", \"seed\": {seed}, \"seconds\": {seconds}, \"smoke\": {smoke}, \"nproc\": {nproc},\n\"workloads\": [\n{}\n],\n\"traced\": [\n{}\n]}}\n",
        workloads.join(",\n"),
        traced.join(",\n")
    )
}

/// Read the `workloads` of a results file back (for `compare`). Input
/// from outside the program: anything missing or mistyped is an error.
pub fn load_results(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let doc = crate::json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} results file"));
    }
    let list = doc.get("workloads").and_then(Value::as_arr).ok_or("missing `workloads`")?;
    list.iter().map(load_workload).collect()
}

fn load_workload(w: &Value) -> Result<WorkloadResult, String> {
    let name = w.get("name").and_then(Value::as_str).ok_or("workload without a name")?.to_string();
    let f = |key: &str| {
        w.get(key).and_then(Value::as_f64).ok_or_else(|| format!("{name}: missing number `{key}`"))
    };
    let b = |key: &str| {
        w.get(key).and_then(Value::as_bool).ok_or_else(|| format!("{name}: missing flag `{key}`"))
    };
    let mut metrics = BTreeMap::new();
    for (mname, m) in w.get("metrics").and_then(Value::as_obj).ok_or("missing `metrics`")? {
        let g = |key: &str| {
            m.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}.{mname}: missing number `{key}`"))
        };
        let v = MetricValue { value: g("value")?, q1: g("q1")?, q3: g("q3")?, n: g("n")? as usize };
        metrics.insert(mname.clone(), v);
    }
    let mut work = BTreeMap::new();
    for (k, v) in w.get("work").and_then(Value::as_obj).unwrap_or(&[]) {
        work.insert(k.clone(), v.as_f64().ok_or_else(|| format!("{name}: work `{k}`"))? as u64);
    }
    let mut layers = BTreeMap::new();
    for (k, v) in w.get("layers").and_then(Value::as_obj).unwrap_or(&[]) {
        layers.insert(k.clone(), v.as_f64().ok_or_else(|| format!("{name}: layer `{k}`"))?);
    }
    Ok(WorkloadResult {
        seed: f("seed")? as u64,
        smoke: b("smoke")?,
        correct: b("correct")?,
        unstable: b("unstable")?,
        attempted: f("attempted")? as u64,
        failed: f("failed")? as u64,
        reps: f("reps")? as usize,
        cold_wall_s: f("cold_wall_s")?,
        name,
        metrics,
        work,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{gen_inputs, run_rep, specs};

    fn smoke_result(name: &str) -> (Spec, WorkloadResult) {
        let spec = specs(true).into_iter().find(|s| s.name == name).expect("workload exists");
        let inputs = gen_inputs(&spec, 5);
        let warm = run_rep(&spec, &inputs, false);
        let timed = vec![run_rep(&spec, &inputs, false), run_rep(&spec, &inputs, false)];
        let r = build(&spec, 5, true, &warm, &timed, &[], 12.5);
        (spec, r)
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_nonzero() {
        for spec in specs(true) {
            let (_, r) = smoke_result(spec.name);
            assert!(r.correct, "{}: {r:?}", spec.name);
            for def in END_TO_END {
                let v = r
                    .metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{}: {}", spec.name, def.name));
                assert!(v.value > 0.0, "{}: {} is zero", spec.name, def.name);
            }
            assert_eq!(r.metrics["fail_ratio"].value, 0.0);
            assert!(r.cold_wall_s > 0.0);
            let line = contract_line(&r, false);
            assert!(sim_core::export::json_is_valid(&line), "{line}");
            assert!(sim_core::export::json_is_valid(&contract_line(&r, true)));
        }
    }

    #[test]
    fn workload_only_metrics_appear_where_they_apply() {
        let (_, a) = smoke_result("andrew");
        assert!(a.metrics.contains_key("sim_elapsed_s.raid5"));
        assert!(!a.metrics.contains_key("sim_cache_speedup"));
        let (_, z) = smoke_result("zipf_cache");
        assert!(z.metrics["sim_cache_speedup"].value > 1.0, "the cache must save simulated time");
        assert!(z.metrics.contains_key("sim_lat_p50_ms"));
        assert!(!z.metrics.contains_key("sim_elapsed_s.raid5"));
    }

    #[test]
    fn a_repetition_that_disagrees_marks_the_workload_unstable_and_failed() {
        let (spec, good) = smoke_result("fig5_write");
        let inputs = gen_inputs(&spec, 5);
        let warm = run_rep(&spec, &inputs, false);
        let mut odd = run_rep(&spec, &inputs, false);
        odd.configs[2].facts.events += 1;
        let r = build(&spec, 5, true, &warm, &[run_rep(&spec, &inputs, false), odd], &[], 1.0);
        assert!(good.correct && !good.unstable);
        assert!(r.unstable && !r.correct);
        assert_eq!(r.failed, r.attempted);
        assert_eq!(r.metrics["fail_ratio"].value, 1.0);
    }

    #[test]
    fn results_file_round_trips() {
        let (_, mut r) = smoke_result("zipf_cache");
        r.layers.insert("cdd.read.busy_ms".to_string(), 1.25);
        let text = results_json(5, 1, true, &[workload_json(&r)], &[]);
        assert!(sim_core::export::json_is_valid(&text), "{text}");
        let back = load_results(&text).expect("parses");
        assert_eq!(back, vec![r]);
        assert!(load_results("{\"schema\": \"other\"}").is_err());
        assert!(load_results("{\"schema\": \"raidx-benchmark/v1\", \"workloads\": [{}]}").is_err());
    }
}
