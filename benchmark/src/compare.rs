//! `benchmark compare A.json B.json`: one verdict per (workload, metric)
//! row, by the rule of choosing-metrics §6 — no regression means B's
//! median is no worse than A's by more than the metric's bound, and a row
//! whose run-to-run spread is wider than the bound is unresolved, not
//! unchanged.

use std::fmt::Write as _;

use crate::metrics::{metric_def, Better, MetricDef};
use crate::report::{MetricValue, WorkloadResult};

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Spread wider than the bound, or seeds differ on an exact metric.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, in the metric's unit (negative when
/// it is better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// Judge one row. `same_seed` says whether both sides generated their
/// inputs from the same seed; only then must simulated metrics be equal.
pub fn judge(def: &MetricDef, a: &MetricValue, b: &MetricValue, same_seed: bool) -> Verdict {
    let d = worse_by(def, a.value, b.value);
    if def.exact {
        return match (same_seed, d) {
            (false, _) => Verdict::Unresolved,
            (true, d) if d > 0.0 => Verdict::Worse,
            (true, d) if d < 0.0 => Verdict::Better,
            (true, _) => Verdict::Same,
        };
    }
    if d.abs() <= def.abs_floor {
        // Below the floor a timing moves on noise alone, whatever its spread.
        Verdict::Same
    } else if a.spread() > def.bound || b.spread() > def.bound {
        Verdict::Unresolved
    } else if d.abs() <= def.bound * a.value.abs() {
        Verdict::Same
    } else if d > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// The comparison of two results files.
pub struct Comparison {
    /// Printable table, one row per (workload, metric) and per work count
    /// that differs.
    pub table: String,
    /// A `worse` row, a changed work count under equal seeds, a workload
    /// missing from B, or any rise in `fail_ratio`.
    pub regressed: bool,
}

/// Compare baseline `a` with candidate `b`.
pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> Comparison {
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<18} {:<22} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(table, "{:<18} missing from B", wa.name);
            regressed = true;
            continue;
        };
        if wa.smoke != wb.smoke {
            let _ = writeln!(table, "{:<18} smoke and full runs are not comparable", wa.name);
            regressed = true;
            continue;
        }
        let same_seed = wa.seed == wb.seed;
        for (name, va) in &wa.metrics {
            let (Some(def), Some(vb)) = (metric_def(name), wb.metrics.get(name)) else { continue };
            let mut v = judge(def, va, vb, same_seed);
            // A failure is a failure whatever the seed.
            if name == "fail_ratio" {
                v = if vb.value > va.value { Verdict::Worse } else { Verdict::Same };
            }
            regressed |= v == Verdict::Worse;
            let change =
                if va.value == 0.0 { 0.0 } else { 100.0 * (vb.value - va.value) / va.value };
            let _ = writeln!(
                table,
                "{:<18} {:<22} {:>14.6} {:>14.6} {:>+8.2}%  {}",
                wa.name,
                name,
                va.value,
                vb.value,
                change,
                v.as_str()
            );
        }
        if same_seed {
            for (name, ca) in &wa.work {
                let cb = wb.work.get(name).copied();
                if cb != Some(*ca) {
                    regressed = true;
                    let _ = writeln!(
                        table,
                        "{:<18} work {:<28} {ca} -> {}  changed",
                        wa.name,
                        name,
                        cb.map_or("missing".to_string(), |c| c.to_string())
                    );
                }
            }
        }
    }
    Comparison { table, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn host(value: f64, q1: f64, q3: f64) -> MetricValue {
        MetricValue { value, q1, q3, n: 7 }
    }

    fn tight(value: f64) -> MetricValue {
        host(value, value * 0.99, value * 1.01)
    }

    #[test]
    fn host_rows_use_the_relative_bound_and_the_spread() {
        let def = metric_def("host_rep_s").expect("registered");
        let (inside, outside) = (def.bound * 0.9, def.bound * 1.1);
        assert_eq!(judge(def, &tight(1.0), &tight(1.0 + inside), true), Verdict::Same);
        assert_eq!(judge(def, &tight(1.0), &tight(1.0 + outside), false), Verdict::Worse);
        assert_eq!(judge(def, &tight(1.0), &tight(1.0 - outside), true), Verdict::Better);
        // Quartiles further apart than the bound: a move beyond it cannot
        // be told from noise...
        let noisy = host(1.0, 1.0 - def.bound, 1.0 + def.bound);
        assert_eq!(judge(def, &noisy, &tight(1.0 + outside), true), Verdict::Unresolved);
        // ...and neither can "no change" be claimed.
        assert_eq!(judge(def, &noisy, &tight(1.0 + inside), true), Verdict::Unresolved);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let def = metric_def("setup_s").expect("registered");
        // 0.2 ms -> 3 ms is 15x but under the 5 ms floor: noise on a tiny set-up.
        assert_eq!(judge(def, &tight(0.0002), &tight(0.003), true), Verdict::Same);
        assert_eq!(judge(def, &tight(0.0002), &tight(0.006), true), Verdict::Worse);
        assert_eq!(judge(def, &host(0.0002, 0.0001, 0.0004), &tight(0.003), true), Verdict::Same);
        // A large set-up is held to the relative bound.
        assert_eq!(judge(def, &tight(0.4), &tight(0.49), true), Verdict::Same);
        assert_eq!(judge(def, &tight(0.4), &tight(0.51), true), Verdict::Worse);
    }

    #[test]
    fn simulated_rows_are_exact_under_equal_seeds() {
        let def = metric_def("sim_mbs.raidx").expect("registered");
        let v = MetricValue { value: 46.9, q1: 46.9, q3: 46.9, n: 1 };
        let less = MetricValue { value: 46.8999, ..v };
        assert_eq!(judge(def, &v, &v, true), Verdict::Same);
        assert_eq!(judge(def, &v, &less, true), Verdict::Worse, "higher is better");
        assert_eq!(judge(def, &less, &v, true), Verdict::Better);
        assert_eq!(judge(def, &v, &less, false), Verdict::Unresolved);
    }

    fn result(seed: u64, fail_ratio: f64, events: u64) -> WorkloadResult {
        let mut metrics = BTreeMap::new();
        metrics.insert("host_rep_s".to_string(), tight(1.0));
        metrics.insert(
            "fail_ratio".to_string(),
            MetricValue { value: fail_ratio, q1: 0.0, q3: 0.0, n: 1 },
        );
        let mut work = BTreeMap::new();
        work.insert("events.raidx".to_string(), events);
        WorkloadResult {
            name: "fig5_write".to_string(),
            seed,
            smoke: false,
            correct: fail_ratio == 0.0,
            unstable: false,
            attempted: 100,
            failed: (fail_ratio * 100.0) as u64,
            reps: 7,
            cold_wall_s: 1.0,
            metrics,
            work,
            layers: BTreeMap::new(),
        }
    }

    #[test]
    fn regressions_are_worse_rows_failures_and_changed_work() {
        let base = [result(1, 0.0, 500)];
        assert!(!compare(&base, &[result(1, 0.0, 500)]).regressed);
        assert!(compare(&base, &[result(2, 0.01, 500)]).regressed, "fail_ratio rose, seeds differ");
        assert!(compare(&base, &[result(1, 0.0, 501)]).regressed, "work count changed");
        assert!(!compare(&base, &[result(2, 0.0, 501)]).regressed, "other seed, other work");
        assert!(compare(&base, &[]).regressed, "workload missing");
        let t = compare(&base, &[result(1, 0.0, 500)]).table;
        assert!(t.contains("host_rep_s") && t.contains("same"), "{t}");
    }
}
