//! One derivation of a traced run.
//!
//! [`RunMetrics::derive`] walks a recorded
//! [`TimedEvent`](crate::trace::TimedEvent) stream once and keeps, as
//! typed fields, everything the exports and `bench trace` read:
//!
//! * per resource, indexed by resource id, the queue-depth step series
//!   (queued + in-service demands) and the busy fraction per sim-time
//!   tick window (disks, NIC ports, buses, CPUs);
//! * the OSM flush backlog: bytes of detached (background) disk writes
//!   accepted but not yet on stable storage, over time;
//! * every job's spawn→finish span, and the finished jobs' latencies,
//!   sorted, so p50/p95/p99 are exact nearest-rank values
//!   ([`percentile`]) rather than bucket bounds.
//!
//! [`RunMetrics::series_csv`] and [`RunMetrics::metrics_json`] render the
//! record; metric names appear only there. All timestamps are simulated
//! time; nothing here consults a wall clock, so the same run always yields
//! byte-identical metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::export::json_escape;
use crate::time::SimDuration;
use crate::trace::{DemandKind, TimedEvent, TraceEvent};

/// Cap on utilization windows per resource; [`RunMetrics::derive`] widens
/// the tick rather than exceed it.
pub const MAX_UTIL_WINDOWS: u64 = 4096;

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of an ascending slice:
/// the smallest sample with at least `p`% of the samples at or below it,
/// so the answer is always one of the samples. `None` if the slice is
/// empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(last)])
}

/// What one resource did over the run.
#[derive(Debug, Clone, Default)]
pub struct ResourceSeries {
    /// The resource's registered name.
    pub name: String,
    /// `(t_ns, depth)` after every arrival and every departure; depth
    /// counts queued and in-service demands.
    pub queue_depth: Vec<(u64, i64)>,
    /// Busy fraction of each utilization window, in window order; window
    /// `w` ends at [`RunMetrics::window_end`]`(w)`.
    pub utilization: Vec<f64>,
}

impl ResourceSeries {
    /// The deepest the queue got (0 if nothing ever arrived).
    pub fn queue_peak(&self) -> i64 {
        self.queue_depth.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }
}

/// One foreground job, spawn to finish.
#[derive(Debug, Clone)]
pub struct JobSpan {
    /// The job's id.
    pub job: u32,
    /// Caller-supplied job label.
    pub label: String,
    /// When the job became runnable (ns).
    pub start_ns: u64,
    /// When its plan completed (ns), if it did within the stream.
    pub end_ns: Option<u64>,
}

/// Everything derived from one traced run, in one pass over its events.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Events in the stream.
    pub events: usize,
    /// Per resource, indexed by resource id.
    pub resources: Vec<ResourceSeries>,
    /// Width of a utilization window (ns), after any widening; 0 for an
    /// empty run.
    pub tick_ns: u64,
    /// The run's last instant (ns): its latest event or service completion.
    pub end_ns: u64,
    /// OSM flush backlog `(t_ns, bytes)` after every arrival and departure
    /// of a detached disk write.
    pub backlog: Vec<(u64, i64)>,
    /// Bytes of detached disk writes accepted over the run.
    pub flush_bytes: u64,
    /// Every job spawned in the stream, in spawn order.
    pub jobs: Vec<JobSpan>,
    /// Latencies (ns) of the jobs that finished, ascending.
    pub latencies_ns: Vec<u64>,
    /// Counters the store under the run keeps itself (the stream does not
    /// carry them), rendered ahead of the record's own.
    pub store_counters: Vec<(&'static str, u64)>,
    /// Series the store keeps itself, keyed by its operation sequence
    /// number rather than time (a functional update is logically
    /// instantaneous, so a sim-time axis would be empty).
    pub store_series: Vec<(&'static str, Vec<(u64, u64)>)>,
}

impl RunMetrics {
    /// Derive the record from a recorded event stream. `names[i]` names
    /// resource index `i` (as [`Engine::resources`](crate::Engine::resources)
    /// lists them); `tick` is the utilization window width, widened if the
    /// run would need more than [`MAX_UTIL_WINDOWS`] windows.
    pub fn derive(events: &[TimedEvent], names: Vec<String>, tick: SimDuration) -> RunMetrics {
        let mut run = RunMetrics {
            events: events.len(),
            resources: names
                .into_iter()
                .map(|name| ResourceSeries { name, ..ResourceSeries::default() })
                .collect(),
            ..RunMetrics::default()
        };
        let mut depth = vec![0i64; run.resources.len()];
        // Per-resource service intervals, windowed once the end is known.
        let mut service: Vec<Vec<(u64, u64)>> = vec![Vec::new(); run.resources.len()];
        let mut span_of: BTreeMap<u32, usize> = BTreeMap::new();
        let mut backlog = 0i64;

        for te in events {
            let t = te.at.as_nanos();
            run.end_ns = run.end_ns.max(t);
            #[expect(clippy::wildcard_enum_match_arm, reason = "other kinds feed no metric")]
            match &te.event {
                TraceEvent::JobSpawned { job, label } => {
                    span_of.insert(*job, run.jobs.len());
                    let span =
                        JobSpan { job: *job, label: label.clone(), start_ns: t, end_ns: None };
                    run.jobs.push(span);
                }
                TraceEvent::JobFinished { job } => {
                    if let Some(span) = span_of.get(job).map(|&i| &mut run.jobs[i]) {
                        span.end_ns = Some(t);
                        run.latencies_ns.push(t.saturating_sub(span.start_ns));
                    }
                }
                TraceEvent::Enqueued { res, kind, bytes, detached, .. }
                | TraceEvent::ServiceFinished { res, kind, bytes, detached, .. } => {
                    let step = if matches!(te.event, TraceEvent::Enqueued { .. }) { 1 } else { -1 };
                    let r = *res as usize;
                    if let Some(d) = depth.get_mut(r) {
                        *d += step;
                        run.resources[r].queue_depth.push((t, *d));
                    }
                    if *detached && *kind == DemandKind::DiskWrite {
                        backlog += step * *bytes as i64;
                        run.backlog.push((t, backlog));
                        if step > 0 {
                            run.flush_bytes += *bytes;
                        }
                    }
                }
                TraceEvent::ServiceStarted { res, done_at_ns, .. } => {
                    if let Some(intervals) = service.get_mut(*res as usize) {
                        intervals.push((t, *done_at_ns));
                        run.end_ns = run.end_ns.max(*done_at_ns);
                    }
                }
                _ => {}
            }
        }
        run.latencies_ns.sort_unstable();

        if run.end_ns > 0 {
            let end = run.end_ns;
            run.tick_ns = tick.as_nanos().max(1);
            if end.div_ceil(run.tick_ns) > MAX_UTIL_WINDOWS {
                run.tick_ns = end.div_ceil(MAX_UTIL_WINDOWS);
            }
            let tick_ns = run.tick_ns;
            let windows = end.div_ceil(tick_ns) as usize;
            for (r, intervals) in service.iter().enumerate() {
                let mut busy = vec![0u64; windows];
                for &(s, e) in intervals {
                    let mut w = (s / tick_ns) as usize;
                    let mut cur = s;
                    while cur < e && w < windows {
                        let w_end = run.window_end(w);
                        busy[w] += e.min(w_end) - cur;
                        cur = w_end;
                        w += 1;
                    }
                }
                let util = busy.iter().enumerate().map(|(w, &b)| {
                    let span = (run.window_end(w) - w as u64 * tick_ns).max(1);
                    b as f64 / span as f64
                });
                run.resources[r].utilization = util.collect();
            }
        }
        run
    }

    /// End (ns) of utilization window `w`: the tick boundary, or the run's
    /// end for the last window.
    pub fn window_end(&self, w: usize) -> u64 {
        ((w as u64 + 1) * self.tick_ns).min(self.end_ns)
    }

    /// The flush backlog in effect at `t_ns` (the last sample at or before
    /// it; 0 before the first).
    pub fn backlog_at(&self, t_ns: u64) -> i64 {
        let i = self.backlog.partition_point(|&(t, _)| t <= t_ns);
        i.checked_sub(1).map_or(0, |i| self.backlog[i].1)
    }

    /// The largest flush backlog reached (0 if nothing was ever deferred).
    pub fn backlog_peak(&self) -> i64 {
        self.backlog.iter().map(|&(_, b)| b).max().unwrap_or(0)
    }

    /// Exact p50, p95 and p99 of the finished jobs' latencies (ns), or
    /// `None` if no job finished.
    pub fn latency_percentiles(&self) -> Option<[u64; 3]> {
        let p = |q| percentile(&self.latencies_ns, q);
        Some([p(50.0)?, p(95.0)?, p(99.0)?])
    }

    /// Every series under its exported name, in render order: the store's,
    /// then per resource its queue depth and utilization (each window
    /// stamped at its end), then the flush backlog.
    fn named_series(&self) -> Vec<(String, Vec<(u64, f64)>)> {
        let steps = |s: &[(u64, i64)]| s.iter().map(|&(t, v)| (t, v as f64)).collect();
        let mut all: Vec<(String, Vec<(u64, f64)>)> = self
            .store_series
            .iter()
            .map(|(name, s)| (name.to_string(), s.iter().map(|&(t, v)| (t, v as f64)).collect()))
            .collect();
        for r in &self.resources {
            if !r.queue_depth.is_empty() {
                all.push((format!("{}.queue_depth", r.name), steps(&r.queue_depth)));
            }
            if !r.utilization.is_empty() {
                let util = r.utilization.iter().enumerate().map(|(w, &u)| (self.window_end(w), u));
                all.push((format!("{}.utilization", r.name), util.collect()));
            }
        }
        if !self.backlog.is_empty() {
            all.push(("osm.flush_backlog_bytes".to_string(), steps(&self.backlog)));
        }
        all
    }

    /// Render every series as CSV: `series,t_ns,value` rows, one per sample.
    pub fn series_csv(&self) -> String {
        let mut out = String::from("series,t_ns,value\n");
        for (name, points) in self.named_series() {
            for (t, v) in points {
                let _ = writeln!(out, "{name},{t},{v}");
            }
        }
        out
    }

    /// Render the record as a JSON object: counters (the store's, then the
    /// stream's), the job-latency summary with exact percentiles, and each
    /// series' point count, last and largest value (the points themselves
    /// are [`RunMetrics::series_csv`]'s).
    pub fn metrics_json(&self) -> String {
        let own = [
            ("events", self.events as u64),
            ("jobs.finished", self.latencies_ns.len() as u64),
            ("jobs.spawned", self.jobs.len() as u64),
            ("osm.flush_bytes", self.flush_bytes),
        ];
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.store_counters.iter().copied().chain(own).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", json_escape(name));
        }
        let lat = &self.latencies_ns;
        let sum: u128 = lat.iter().map(|&v| u128::from(v)).sum();
        let mean = if lat.is_empty() { 0.0 } else { sum as f64 / lat.len() as f64 };
        let [p50, p95, p99] = self.latency_percentiles().unwrap_or_default();
        let _ = write!(
            out,
            "\n  }},\n  \"job_latency_ns\": {{\"count\": {}, \"min\": {}, \"max\": {}, \
             \"mean\": {mean:.3}, \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}},\n  \"gauges\": {{",
            lat.len(),
            lat.first().copied().unwrap_or(0),
            lat.last().copied().unwrap_or(0),
        );
        for (i, (name, points)) in self.named_series().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let last = points.last().map_or(0.0, |&(_, v)| v);
            let max = points.iter().map(|&(_, v)| v).reduce(f64::max).unwrap_or(0.0);
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"points\": {}, \"last\": {last}, \"max\": {max}}}",
                json_escape(name),
                points.len(),
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::json_is_valid;
    use crate::time::SimTime;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[7u64], 99.0), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    fn ev(at_ns: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent { at: SimTime(at_ns), event }
    }

    fn disk_write(at_ns: u64, done_at_ns: u64) -> [TimedEvent; 3] {
        let (res, task, kind, bytes, detached) = (0, 0, DemandKind::DiskWrite, 4096, true);
        [
            ev(at_ns, TraceEvent::Enqueued { res, task, kind, bytes, depth: 1, detached }),
            ev(
                at_ns,
                TraceEvent::ServiceStarted {
                    res,
                    task,
                    kind,
                    bytes,
                    waited_ns: 0,
                    done_at_ns,
                    detached,
                },
            ),
            ev(done_at_ns, TraceEvent::ServiceFinished { res, task, kind, bytes, detached }),
        ]
    }

    /// Two jobs of 3 ms and 5 ms: the percentiles are those latencies, not
    /// the power-of-two bucket bounds (4.096 and 8.192 ms) above them.
    #[test]
    fn percentiles_are_exact_latencies() {
        let spawn = |job| ev(0, TraceEvent::JobSpawned { job, label: format!("j{job}") });
        let events = [
            spawn(0),
            spawn(1),
            ev(3_000_000, TraceEvent::JobFinished { job: 0 }),
            ev(5_000_000, TraceEvent::JobFinished { job: 1 }),
        ];
        let run = RunMetrics::derive(&events, Vec::new(), SimDuration::from_millis(1));
        assert_eq!(run.latencies_ns, [3_000_000, 5_000_000]);
        assert_eq!(run.latency_percentiles(), Some([3_000_000, 5_000_000, 5_000_000]));
        assert_eq!(run.jobs[1].end_ns, Some(5_000_000));
    }

    #[test]
    fn derive_builds_backlog_depth_and_utilization() {
        let names = vec!["disk0".to_string()];
        let mut events = vec![ev(0, TraceEvent::JobSpawned { job: 0, label: "w".into() })];
        let [enq, start, fin] = disk_write(0, 1_000_000);
        events.extend([enq, start, ev(500_000, TraceEvent::JobFinished { job: 0 }), fin]);
        let run = RunMetrics::derive(&events, names, SimDuration::from_millis(1));
        assert_eq!(run.backlog, [(0, 4096), (1_000_000, 0)]);
        assert_eq!(
            (run.backlog_peak(), run.backlog_at(999_999), run.backlog_at(run.end_ns)),
            (4096, 4096, 0)
        );
        assert_eq!((run.flush_bytes, run.latencies_ns.as_slice()), (4096, &[500_000][..]));
        let disk = &run.resources[0];
        assert_eq!(
            (disk.queue_depth.as_slice(), disk.queue_peak()),
            (&[(0, 1), (1_000_000, 0)][..], 1)
        );
        // Disk busy the whole 1 ms run: one window, utilization 1.
        assert_eq!((run.tick_ns, disk.utilization.as_slice()), (1_000_000, &[1.0][..]));
    }

    #[test]
    fn csv_and_json_render_every_series_and_counter() {
        let mut run =
            RunMetrics::derive(&disk_write(0, 2_000), vec!["d".into()], SimDuration(1_000));
        run.store_counters = vec![("store.grants", 2)];
        run.store_series = vec![("store.by_op", vec![(0, 3)])];
        let csv = run.series_csv();
        let rows = [
            "series,t_ns,value",
            "store.by_op,0,3",
            "d.queue_depth,0,1",
            "d.queue_depth,2000,0",
            "d.utilization,1000,1",
            "d.utilization,2000,1",
            "osm.flush_backlog_bytes,0,4096",
            "osm.flush_backlog_bytes,2000,0",
        ];
        assert_eq!(csv.lines().collect::<Vec<_>>(), rows);
        let json = run.metrics_json();
        assert!(json_is_valid(&json), "invalid JSON:\n{json}");
        assert!(json.contains("\"store.grants\": 2,\n    \"events\": 3"), "{json}");
        assert!(json.contains("\"job_latency_ns\": {\"count\": 0"), "{json}");
        assert!(
            json.contains("\"d.utilization\": {\"points\": 2, \"last\": 1, \"max\": 1}"),
            "{json}"
        );
    }

    #[test]
    fn long_runs_widen_the_tick() {
        let run = RunMetrics::derive(&disk_write(0, 10_000_000), vec!["d".into()], SimDuration(1));
        assert_eq!(run.resources[0].utilization.len() as u64, MAX_UTIL_WINDOWS);
        assert_eq!(run.window_end(MAX_UTIL_WINDOWS as usize - 1), run.end_ns);
    }
}
