//! Metrics: counters, gauges, sim-time series and fixed-bucket histograms.
//!
//! A [`MetricsRegistry`] is a deterministic bag of named metrics. It can
//! be populated by hand, but the main entry point is
//! [`MetricsRegistry::from_events`], which derives the standard metric
//! set from a recorded [`TimedEvent`](crate::trace::TimedEvent) stream:
//!
//! * `"{resource}.queue_depth"` — step series of queued + in-service
//!   demands per active resource;
//! * `"{resource}.utilization"` — busy fraction per sim-time tick window
//!   for every registered resource (disks, NIC ports, buses, CPUs);
//! * `"osm.flush_backlog_bytes"` — bytes of detached (background) disk
//!   writes accepted but not yet on stable storage: the OSM
//!   mirror-flush backlog over time;
//! * `"job_latency_ns"` — a fixed-bucket histogram of foreground job
//!   latencies (p50/p95/p99 come from here).
//!
//! All timestamps are simulated time; nothing here consults a wall
//! clock, so the same run always yields byte-identical metrics.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};
use crate::trace::{TimedEvent, TraceEvent};

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are defined by a sorted list of inclusive upper bounds plus an
/// implicit overflow bucket; a sample `v` lands in the first bucket whose
/// bound is `>= v`. Percentile queries report the upper bound of the
/// bucket containing the requested rank (the overflow bucket reports the
/// exact maximum seen), so percentiles on bound-aligned distributions are
/// exact.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds (must be
    /// non-empty and strictly increasing).
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Exponential bounds: `first, first*factor, …` (`n` buckets).
    pub fn exponential(first: u64, factor: u64, n: usize) -> Histogram {
        assert!(first > 0 && factor > 1 && n > 0, "degenerate exponential bounds");
        let mut bounds = Vec::with_capacity(n);
        let mut b = first;
        for _ in 0..n {
            bounds.push(b);
            b = b.saturating_mul(factor);
        }
        bounds.dedup();
        Histogram::with_bounds(&bounds)
    }

    /// The stock latency histogram: 1 µs doubling through ~1100 s.
    pub fn latency_default() -> Histogram {
        Histogram::exponential(1_000, 2, 40)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The `p`-th percentile (`0 < p <= 100`), or `None` if the histogram
    /// is empty. Reports the upper bound of the bucket holding the
    /// requested rank; the overflow bucket reports the exact maximum.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < self.bounds.len() { self.bounds[i] } else { self.max });
            }
        }
        Some(self.max)
    }

    /// Samples that landed past the largest configured bound — the
    /// overflow bucket, where percentiles fall back to the exact maximum.
    /// A nonzero count means the bounds under-cover the distribution.
    pub fn overflow_count(&self) -> u64 {
        self.counts[self.bounds.len()]
    }

    /// `(upper_bound, count)` pairs for every non-overflow bucket plus a
    /// final `(max_seen, count)` overflow entry.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> =
            self.bounds.iter().copied().zip(self.counts.iter().copied()).collect();
        out.push((self.max, self.counts[self.bounds.len()]));
        out
    }
}

/// A time series of `(sim-time ns, value)` samples, in time order.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Append a sample at simulated time `t`.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t.as_nanos(), v));
    }

    /// All samples, in insertion (= time) order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// The most recent value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// The largest value seen, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |m, v| Some(m.map_or(v, |x: f64| x.max(v))))
    }

    /// The value in effect at time `t` under step semantics (the last
    /// sample at or before `t`), if any.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let ns = t.as_nanos();
        let idx = self.points.partition_point(|&(pt, _)| pt <= ns);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }
}

/// A deterministic bag of named counters, gauge series and histograms.
/// Names iterate in lexicographic order, so exports are reproducible.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, TimeSeries>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Set the named counter to an absolute value.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Mutable access to the named gauge series (creating it empty).
    pub fn gauge_mut(&mut self, name: &str) -> &mut TimeSeries {
        self.gauges.entry(name.to_string()).or_default()
    }

    /// The named gauge series, if present.
    pub fn gauge(&self, name: &str) -> Option<&TimeSeries> {
        self.gauges.get(name)
    }

    /// Mutable access to the named histogram, creating it with the given
    /// bounds if absent.
    pub fn histogram_mut(&mut self, name: &str, default: fn() -> Histogram) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_insert_with(default)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauge series in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Derive the standard metric set from a recorded event stream.
    ///
    /// `res_names[i]` names resource index `i` (as returned by
    /// [`Engine::resources`](crate::Engine::resources)); `tick` is the
    /// window width for utilization sampling (widened automatically if
    /// the run would need more than [`MAX_UTIL_WINDOWS`] windows).
    pub fn from_events(
        events: &[TimedEvent],
        res_names: &[String],
        tick: SimDuration,
    ) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("events", events.len() as u64);

        // Pass 1: bookkeeping shared by every derived metric.
        let mut end_ns = 0u64;
        let mut job_start: BTreeMap<u32, u64> = BTreeMap::new();
        let mut depth: Vec<i64> = vec![0; res_names.len()];
        // Per-resource service intervals for utilization windows.
        let mut service: Vec<Vec<(u64, u64)>> = vec![Vec::new(); res_names.len()];
        let mut backlog: i128 = 0;
        let mut backlog_series = TimeSeries::new();
        let mut jobs_spawned = 0u64;
        let mut jobs_finished = 0u64;
        let mut flush_bytes = 0u64;

        for te in events {
            let t = te.at;
            end_ns = end_ns.max(t.as_nanos());
            #[expect(clippy::wildcard_enum_match_arm, reason = "other kinds feed no metric")]
            match &te.event {
                TraceEvent::JobSpawned { job, .. } => {
                    jobs_spawned += 1;
                    job_start.insert(*job, t.as_nanos());
                }
                TraceEvent::JobFinished { job } => {
                    jobs_finished += 1;
                    if let Some(start) = job_start.get(job) {
                        let lat = t.as_nanos().saturating_sub(*start);
                        reg.histogram_mut("job_latency_ns", Histogram::latency_default).record(lat);
                    }
                }
                TraceEvent::Enqueued { res, kind, bytes, detached, .. } => {
                    let r = *res as usize;
                    if r < depth.len() {
                        depth[r] += 1;
                        reg.gauge_mut(&format!("{}.queue_depth", res_names[r]))
                            .push(t, depth[r] as f64);
                    }
                    if *detached && *kind == crate::trace::DemandKind::DiskWrite {
                        backlog += i128::from(*bytes);
                        backlog_series.push(t, backlog as f64);
                        flush_bytes += *bytes;
                    }
                }
                TraceEvent::ServiceStarted { res, done_at_ns, .. } => {
                    let r = *res as usize;
                    if r < service.len() {
                        service[r].push((t.as_nanos(), *done_at_ns));
                        end_ns = end_ns.max(*done_at_ns);
                    }
                }
                TraceEvent::ServiceFinished { res, kind, bytes, detached, .. } => {
                    let r = *res as usize;
                    if r < depth.len() {
                        depth[r] -= 1;
                        reg.gauge_mut(&format!("{}.queue_depth", res_names[r]))
                            .push(t, depth[r] as f64);
                    }
                    if *detached && *kind == crate::trace::DemandKind::DiskWrite {
                        backlog -= i128::from(*bytes);
                        backlog_series.push(t, backlog as f64);
                    }
                }
                _ => {}
            }
        }
        reg.set_counter("jobs.spawned", jobs_spawned);
        reg.set_counter("jobs.finished", jobs_finished);
        reg.set_counter("osm.flush_bytes", flush_bytes);
        if !backlog_series.points().is_empty() {
            *reg.gauge_mut("osm.flush_backlog_bytes") = backlog_series;
        }

        // Pass 2: utilization windows per resource on the sim-time tick.
        if end_ns > 0 {
            let mut tick_ns = tick.as_nanos().max(1);
            let max_windows = MAX_UTIL_WINDOWS as u64;
            if end_ns.div_ceil(tick_ns) > max_windows {
                tick_ns = end_ns.div_ceil(max_windows);
            }
            let windows = end_ns.div_ceil(tick_ns) as usize;
            for (r, name) in res_names.iter().enumerate() {
                let mut busy = vec![0u64; windows];
                for &(s, e) in &service[r] {
                    let mut w = (s / tick_ns) as usize;
                    let mut cur = s;
                    while cur < e && w < windows {
                        let w_end = ((w as u64 + 1) * tick_ns).min(end_ns);
                        busy[w] += e.min(w_end) - cur;
                        cur = w_end;
                        w += 1;
                    }
                }
                let series = reg.gauge_mut(&format!("{name}.utilization"));
                for (w, b) in busy.iter().enumerate() {
                    let w_start = w as u64 * tick_ns;
                    let w_end = (w_start + tick_ns).min(end_ns);
                    let span = (w_end - w_start).max(1);
                    series.push(SimTime(w_end), *b as f64 / span as f64);
                }
            }
        }
        reg
    }
}

/// Cap on utilization windows per resource; `from_events` widens the
/// tick rather than exceed it.
pub const MAX_UTIL_WINDOWS: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DemandKind;

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::latency_default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(99.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = Histogram::with_bounds(&[10, 100, 1000]);
        h.record(70);
        for p in [0.1, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(100), "p{p}");
        }
        assert_eq!((h.min(), h.max()), (Some(70), Some(70)));
        assert_eq!(h.mean(), Some(70.0));
    }

    #[test]
    fn bucket_boundary_samples_land_in_their_bucket() {
        let mut h = Histogram::with_bounds(&[10, 20, 30]);
        // A sample exactly on a bound belongs to that bucket (inclusive
        // upper bounds), one past it to the next.
        h.record(10);
        h.record(11);
        assert_eq!(h.buckets()[0], (10, 1));
        assert_eq!(h.buckets()[1], (20, 1));
    }

    #[test]
    fn exact_percentiles_on_known_distribution() {
        // 100 samples, one per bound 1..=100: pN is exactly N.
        let bounds: Vec<u64> = (1..=100).collect();
        let mut h = Histogram::with_bounds(&bounds);
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
        assert_eq!(h.percentile(1.0), Some(1));
    }

    #[test]
    fn overflow_bucket_reports_exact_max() {
        let mut h = Histogram::with_bounds(&[10]);
        h.record(5);
        h.record(12345);
        assert_eq!(h.percentile(100.0), Some(12345));
        assert_eq!(h.buckets().last(), Some(&(12345, 1)));
    }

    #[test]
    fn time_series_step_semantics() {
        let mut s = TimeSeries::new();
        assert_eq!(s.value_at(SimTime(5)), None);
        s.push(SimTime(10), 1.0);
        s.push(SimTime(20), 3.0);
        assert_eq!(s.value_at(SimTime(5)), None);
        assert_eq!(s.value_at(SimTime(10)), Some(1.0));
        assert_eq!(s.value_at(SimTime(15)), Some(1.0));
        assert_eq!(s.value_at(SimTime(25)), Some(3.0));
        assert_eq!(s.max_value(), Some(3.0));
    }

    fn ev(at_ns: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent { at: SimTime(at_ns), event }
    }

    #[test]
    fn from_events_builds_backlog_and_latency() {
        let names = vec!["disk0".to_string()];
        let events = vec![
            ev(0, TraceEvent::JobSpawned { job: 0, label: "w".into() }),
            ev(
                0,
                TraceEvent::Enqueued {
                    res: 0,
                    task: 0,
                    kind: DemandKind::DiskWrite,
                    bytes: 4096,
                    depth: 1,
                    detached: true,
                },
            ),
            ev(
                0,
                TraceEvent::ServiceStarted {
                    res: 0,
                    task: 0,
                    kind: DemandKind::DiskWrite,
                    bytes: 4096,
                    waited_ns: 0,
                    done_at_ns: 1_000_000,
                    detached: true,
                },
            ),
            ev(500_000, TraceEvent::JobFinished { job: 0 }),
            ev(
                1_000_000,
                TraceEvent::ServiceFinished {
                    res: 0,
                    task: 0,
                    kind: DemandKind::DiskWrite,
                    bytes: 4096,
                    detached: true,
                },
            ),
        ];
        let reg = MetricsRegistry::from_events(&events, &names, SimDuration::from_millis(1));
        let backlog = reg.gauge("osm.flush_backlog_bytes").expect("backlog series");
        assert_eq!(backlog.max_value(), Some(4096.0));
        assert_eq!(backlog.last(), Some(0.0));
        let lat = reg.histogram("job_latency_ns").expect("latency histogram");
        assert_eq!(lat.count(), 1);
        // Disk busy the whole 1ms run -> utilization 1.0.
        let util = reg.gauge("disk0.utilization").expect("utilization series");
        assert!(util.points().iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
        assert_eq!(util.last(), Some(1.0));
        assert_eq!(reg.counter("osm.flush_bytes"), Some(4096));
    }
}
