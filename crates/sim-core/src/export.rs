//! Exporters: Chrome trace-event JSON (Perfetto-loadable) and CSV/JSON
//! metrics snapshots.
//!
//! Every timestamp written here is **simulated** time (the Chrome format
//! wants microseconds, so nanosecond stamps are divided by 1000 with
//! three decimals kept — exact for the integer clock). Wall clocks are
//! banned from this module: `clippy.toml` disallows them, and the
//! `determinism` verify pass double-runs workloads to prove exports are
//! byte-identical.
//!
//! Track layout of the Chrome trace:
//!
//! * `pid 0` ("resources") — one thread track per registered resource
//!   (disk, NIC port, bus, CPU), carrying a complete (`"X"`) slice per
//!   service interval, counter (`"C"`) samples of that resource's queue
//!   depth, and instant (`"i"`) marks for barrier openings.
//! * `pid 1` ("jobs") — one thread track per foreground job, with a
//!   single slice spanning spawn→finish.
//! * `pid 0` counter `osm.flush_backlog_bytes` — the OSM background
//!   mirror-flush backlog over time.
//!
//! Open traces at <https://ui.perfetto.dev> ("Open trace file") or
//! `chrome://tracing`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsRegistry;
use crate::trace::{TimedEvent, TraceEvent};

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> String {
    // Chrome trace timestamps are microseconds; keep nanosecond precision
    // as three decimals.
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render a recorded event stream as Chrome trace-event JSON.
///
/// `res_names[i]` names resource index `i`. The output is a complete
/// JSON object loadable by Perfetto; see the module docs for the track
/// layout.
pub fn chrome_trace_json(events: &[TimedEvent], res_names: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    push(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"resources\"}}"
            .to_string(),
        &mut out,
    );
    push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"jobs\"}}"
            .to_string(),
        &mut out,
    );
    for (i, name) in res_names.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
            &mut out,
        );
    }

    // Job spans need both endpoints; collect first.
    let mut job_spawn: BTreeMap<u32, (u64, String)> = BTreeMap::new();
    let mut job_end: BTreeMap<u32, u64> = BTreeMap::new();
    // Queue depth per resource, recomputed while walking.
    let mut depth: Vec<i64> = vec![0; res_names.len()];
    let mut backlog: i128 = 0;

    for te in events {
        let t = te.at.as_nanos();
        #[expect(clippy::wildcard_enum_match_arm, reason = "only the kinds above are drawn")]
        match &te.event {
            TraceEvent::JobSpawned { job, label } => {
                job_spawn.insert(*job, (t, label.clone()));
            }
            TraceEvent::JobFinished { job } => {
                job_end.insert(*job, t);
            }
            TraceEvent::ServiceStarted {
                res,
                task,
                kind,
                bytes,
                waited_ns,
                done_at_ns,
                detached,
            } => {
                let dur = done_at_ns.saturating_sub(t);
                push(
                    format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{res},\"ts\":{},\"dur\":{},\
                         \"name\":\"{} {}B\",\"args\":{{\"task\":{task},\"wait_ns\":{waited_ns},\
                         \"background\":{detached}}}}}",
                        us(t),
                        us(dur),
                        kind.label(),
                        bytes,
                    ),
                    &mut out,
                );
            }
            TraceEvent::Enqueued { res, kind, bytes, detached, .. } => {
                let r = *res as usize;
                if r < depth.len() {
                    depth[r] += 1;
                    push(
                        format!(
                            "{{\"ph\":\"C\",\"pid\":0,\"tid\":{res},\"ts\":{},\
                             \"name\":\"queue {}\",\"args\":{{\"depth\":{}}}}}",
                            us(t),
                            json_escape(&res_names[r]),
                            depth[r],
                        ),
                        &mut out,
                    );
                }
                if *detached && *kind == crate::trace::DemandKind::DiskWrite {
                    backlog += i128::from(*bytes);
                    push(
                        format!(
                            "{{\"ph\":\"C\",\"pid\":0,\"ts\":{},\
                             \"name\":\"osm.flush_backlog_bytes\",\"args\":{{\"bytes\":{backlog}}}}}",
                            us(t),
                        ),
                        &mut out,
                    );
                }
            }
            TraceEvent::ServiceFinished { res, kind, bytes, detached, .. } => {
                let r = *res as usize;
                if r < depth.len() {
                    depth[r] -= 1;
                    push(
                        format!(
                            "{{\"ph\":\"C\",\"pid\":0,\"tid\":{res},\"ts\":{},\
                             \"name\":\"queue {}\",\"args\":{{\"depth\":{}}}}}",
                            us(t),
                            json_escape(&res_names[r]),
                            depth[r],
                        ),
                        &mut out,
                    );
                }
                if *detached && *kind == crate::trace::DemandKind::DiskWrite {
                    backlog -= i128::from(*bytes);
                    push(
                        format!(
                            "{{\"ph\":\"C\",\"pid\":0,\"ts\":{},\
                             \"name\":\"osm.flush_backlog_bytes\",\"args\":{{\"bytes\":{backlog}}}}}",
                            us(t),
                        ),
                        &mut out,
                    );
                }
            }
            TraceEvent::BarrierOpened { barrier, cycle, released, .. } => {
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":0,\"ts\":{},\"s\":\"p\",\
                         \"name\":\"barrier {barrier} cycle {cycle} ({released} released)\"}}",
                        us(t),
                    ),
                    &mut out,
                );
            }
            _ => {}
        }
    }

    for (job, (start, label)) in &job_spawn {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{job},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(label)
            ),
            &mut out,
        );
        if let Some(end) = job_end.get(job) {
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{job},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\"}}",
                    us(*start),
                    us(end.saturating_sub(*start)),
                    json_escape(label),
                ),
                &mut out,
            );
        }
    }

    out.push_str("\n]}\n");
    out
}

/// Render every gauge series of a registry as CSV:
/// `series,t_ns,value` rows in name then time order.
pub fn metrics_csv(reg: &MetricsRegistry) -> String {
    let mut out = String::from("series,t_ns,value\n");
    for (name, series) in reg.gauges() {
        for &(t, v) in series.points() {
            let _ = writeln!(out, "{name},{t},{v}");
        }
    }
    out
}

/// Render the per-resource utilization timelines as CSV:
/// `resource,window_end_ns,utilization` rows, one per tick window. Only
/// gauges named `{resource}.utilization` are included.
pub fn utilization_csv(reg: &MetricsRegistry) -> String {
    let mut out = String::from("resource,window_end_ns,utilization\n");
    for (name, series) in reg.gauges() {
        if let Some(res) = name.strip_suffix(".utilization") {
            for &(t, v) in series.points() {
                let _ = writeln!(out, "{res},{t},{v:.6}");
            }
        }
    }
    out
}

/// Render a registry snapshot as a JSON object: counters verbatim,
/// histograms as summary objects (count/min/max/mean/p50/p95/p99) and
/// gauges as last/max values (full series belong in the CSV export).
pub fn metrics_json(reg: &MetricsRegistry) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, v) in reg.counters() {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {v}", json_escape(name));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    let mut first = true;
    for (name, h) in reg.histograms() {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            json_escape(name),
            h.count(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0),
            h.mean().unwrap_or(0.0),
            h.percentile(50.0).unwrap_or(0),
            h.percentile(95.0).unwrap_or(0),
            h.percentile(99.0).unwrap_or(0),
        );
    }
    out.push_str("\n  },\n  \"gauges\": {");
    let mut first = true;
    for (name, series) in reg.gauges() {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"points\": {}, \"last\": {}, \"max\": {}}}",
            json_escape(name),
            series.points().len(),
            series.last().unwrap_or(0.0),
            series.max_value().unwrap_or(0.0),
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Minimal structural JSON validity check (objects, arrays, strings,
/// numbers, literals). Used by `bench trace --smoke` to assert emitted
/// trace files parse without pulling in a JSON dependency.
pub fn json_is_valid(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize, depth: usize) -> bool {
        if depth > 256 {
            return false;
        }
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return true;
                }
                loop {
                    skip_ws(b, i);
                    if !string(b, i) {
                        return false;
                    }
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return false;
                    }
                    *i += 1;
                    if !value(b, i, depth + 1) {
                        return false;
                    }
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return true;
                }
                loop {
                    if !value(b, i, depth + 1) {
                        return false;
                    }
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(_) => number(b, i),
            None => false,
        }
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if b.get(*i) != Some(&b'"') {
            return false;
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return true;
                }
                b'\\' => *i += 2,
                _ => *i += 1,
            }
        }
        false
    }
    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> bool {
        if b.len() - *i >= lit.len() && &b[*i..*i + lit.len()] == lit {
            *i += lit.len();
            true
        } else {
            false
        }
    }
    fn number(b: &[u8], i: &mut usize) -> bool {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        let digits = |b: &[u8], i: &mut usize| {
            let s = *i;
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
            *i > s
        };
        if !digits(b, i) {
            *i = start;
            return false;
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            if !digits(b, i) {
                return false;
            }
        }
        if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
                *i += 1;
            }
            if !digits(b, i) {
                return false;
            }
        }
        true
    }
    if !value(b, &mut i, 0) {
        return false;
    }
    skip_ws(b, &mut i);
    i == b.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::plan::{background, seq, use_res};
    use crate::resource::FixedRate;
    use crate::time::SimDuration;
    use crate::trace::EventLog;
    use crate::Demand;

    fn traced_run() -> (Vec<TimedEvent>, Vec<String>) {
        let mut e = Engine::new();
        let d = e.add_resource("disk0@node0", Box::new(FixedRate::rate(10 << 20)));
        let log = EventLog::new();
        e.set_tracer(Box::new(log.clone()));
        e.spawn_job(
            "client0/write",
            seq(vec![
                use_res(d, Demand::DiskWrite { offset: 0, bytes: 64 << 10 }),
                background(use_res(d, Demand::DiskWrite { offset: 64 << 10, bytes: 64 << 10 })),
            ]),
        );
        e.run().unwrap();
        let names = e.resources().map(|(_, n, _)| n.to_string()).collect();
        (log.events(), names)
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks_and_counters() {
        let (events, names) = traced_run();
        let json = chrome_trace_json(&events, &names);
        assert!(json_is_valid(&json), "invalid JSON:\n{json}");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("disk0@node0"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("osm.flush_backlog_bytes"));
        assert!(json.contains("client0/write"));
    }

    #[test]
    fn csv_and_json_snapshots_round_trip() {
        let (events, names) = traced_run();
        let reg = MetricsRegistry::from_events(&events, &names, SimDuration::from_millis(1));
        let csv = metrics_csv(&reg);
        assert!(csv.starts_with("series,t_ns,value\n"));
        assert!(csv.contains("disk0@node0.queue_depth"));
        let ucsv = utilization_csv(&reg);
        assert!(ucsv.contains("disk0@node0,"));
        let json = metrics_json(&reg);
        assert!(json_is_valid(&json), "invalid JSON:\n{json}");
        assert!(json.contains("job_latency_ns"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in
            ["{}", "[]", "null", "-1.5e3", "{\"a\": [1, 2, {\"b\": \"x\\\"y\"}], \"c\": false}"]
        {
            assert!(json_is_valid(good), "{good}");
        }
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "1.2.3", "{\"a\":1} extra", "\"unterminated"] {
            assert!(!json_is_valid(bad), "{bad}");
        }
    }
}
