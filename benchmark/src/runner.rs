//! One run of one workload, in this process, on this thread: a discarded
//! warm-up repetition, then timed repetitions until the time budget is
//! spent — each followed by a traced repetition when the layer ledger is
//! wanted, so both kinds see the same machine state.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::ledger::{layer_metrics, ledger_gap_pct, replay_plane};
use crate::report::{build, peak_rss_mb, WorkloadResult};
use crate::spans::{chrome_trace_json, Span};
use crate::stats::median;
use crate::workload::{cluster_of, gen_inputs, run_rep, Rep, Spec};

/// Fewest timed repetitions of a full run, however slow they are.
const MIN_REPS: usize = 3;

/// How one run is to be made.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed of the inputs.
    pub seed: u64,
    /// Time budget of the whole run, warm-up included.
    pub seconds: u64,
    /// Also run traced repetitions and build the layer ledger.
    pub trace: bool,
    /// Smoke sizes: one warm-up and two timed repetitions, whatever the
    /// budget.
    pub smoke: bool,
}

/// What a run hands back besides the result.
pub struct RunOutput {
    /// The result; `layers` is filled in traced runs.
    pub result: WorkloadResult,
    /// Chrome trace of the last traced repetition (traced runs only).
    pub trace_json: Option<String>,
    /// Share of the root spans' wall time the layer self times do not
    /// account for, in percent (traced runs only).
    pub ledger_gap_pct: f64,
}

/// Run `spec` once under `opts`.
pub fn run_workload(spec: &Spec, opts: &RunOptions) -> RunOutput {
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let inputs = gen_inputs(spec, opts.seed);
    let warm = run_rep(spec, &inputs, false);
    let (mut timed, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // Spans of the latest traced repetition only; earlier ones are
    // reduced to their ledgers as soon as they finish.
    let mut last_spans: Vec<(String, Vec<Span>)> = Vec::new();
    let mut ledgers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut gap_pct = 0.0;
    let cc = cluster_of(&spec.kind);
    let min_reps = if opts.smoke { 2 } else { MIN_REPS };
    loop {
        let round = Instant::now();
        timed.push(run_rep(spec, &inputs, false));
        if opts.trace {
            let mut rep = run_rep(spec, &inputs, true);
            ledgers.push(layer_metrics(&rep, cc.block_size));
            gap_pct = ledger_gap_pct(&rep);
            last_spans = rep
                .configs
                .iter_mut()
                .map(|c| (c.key.to_string(), std::mem::take(&mut c.spans)))
                .collect();
            traced.push(rep);
        }
        if timed.len() >= min_reps && (opts.smoke || Instant::now() + round.elapsed() > deadline) {
            break;
        }
    }
    let mut result = build(spec, opts.seed, opts.smoke, &warm, &timed, &traced, peak_rss_mb());
    if !opts.trace {
        return RunOutput { result, trace_json: None, ledger_gap_pct: 0.0 };
    }

    // Time-valued layer metrics are medians over the traced repetitions;
    // counts are equal in all of them, so their median is their value.
    let names: Vec<String> = ledgers[0].keys().cloned().collect();
    for name in names {
        let values: Vec<f64> = ledgers.iter().map(|l| l[&name]).collect();
        result.layers.insert(name, median(&values));
    }
    let moved_blocks = warm
        .config("raidx")
        .map_or(0, |c| c.facts.plane_written.max(c.facts.plane_read) / cc.block_size.max(1));
    let replay = replay_plane(moved_blocks, cc.block_size as usize, cc.total_disks());
    result.layers.insert("cluster.plane.write_ns_per_block".to_string(), replay.write_ns_per_block);
    result.layers.insert("cluster.plane.read_ns_per_block".to_string(), replay.read_ns_per_block);
    result.layers.insert("cluster.plane.xor_ns_per_block".to_string(), replay.xor_ns_per_block);
    let host = |reps: &[Rep]| median(&reps.iter().map(Rep::host_s).collect::<Vec<f64>>());
    let overhead = 100.0 * (host(&traced) / host(&timed) - 1.0);
    result.layers.insert("trace_overhead_pct".to_string(), overhead);
    RunOutput { result, trace_json: Some(chrome_trace_json(&last_spans)), ledger_gap_pct: gap_pct }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::per_layer;
    use crate::workload::specs;

    #[test]
    fn traced_smoke_run_fills_the_ledger_and_writes_a_valid_trace() {
        let spec = specs(true).into_iter().find(|s| s.name == "andrew").expect("andrew");
        let opts = RunOptions { seed: 2, seconds: 1, trace: true, smoke: true };
        let out = run_workload(&spec, &opts);
        assert!(out.result.correct, "{:?}", out.result);
        assert_eq!(out.result.reps, 2);
        for def in per_layer() {
            assert!(out.result.layers.contains_key(&def.name), "{} missing", def.name);
        }
        assert!(out.ledger_gap_pct < 5.0);
        let trace = out.trace_json.expect("traced run writes a trace");
        assert!(sim_core::export::json_is_valid(&trace));
        assert!(trace.contains("cfs.write_file") && trace.contains("engine.run"));
    }

    #[test]
    fn untraced_run_has_no_ledger() {
        let spec = specs(true).into_iter().find(|s| s.name == "fig5_read").expect("fig5_read");
        let out =
            run_workload(&spec, &RunOptions { seed: 2, seconds: 1, trace: false, smoke: true });
        assert!(out.result.correct && out.result.layers.is_empty() && out.trace_json.is_none());
    }
}
