//! Export: Chrome trace-event JSON (Perfetto-loadable), the JSON string
//! escape every writer in the workspace shares, and a dependency-free JSON
//! validity check. The CSV/JSON metric snapshots are rendered by the
//! record they snapshot, [`RunMetrics`].
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

use std::fmt::Write as _;

use crate::metrics::RunMetrics;
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

/// Render a traced run as Chrome trace-event JSON.
///
/// Service slices and barrier instants come from `events`; resource
/// names, queue-depth and backlog counters and job tracks come from
/// `run`, the stream's one derivation. The output is a complete JSON
/// object loadable by Perfetto; see the module docs for the track layout.
pub fn chrome_trace_json(events: &[TimedEvent], run: &RunMetrics) -> String {
    let mut lines = vec![
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"resources\"}}"
            .to_string(),
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"jobs\"}}"
            .to_string(),
    ];
    for (i, r) in run.resources.iter().enumerate() {
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&r.name)
        ));
    }
    for te in events {
        let t = te.at.as_nanos();
        #[expect(clippy::wildcard_enum_match_arm, reason = "only the kinds above are drawn")]
        match &te.event {
            TraceEvent::ServiceStarted {
                res,
                task,
                kind,
                bytes,
                waited_ns,
                done_at_ns,
                detached,
            } => lines.push(format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{res},\"ts\":{},\"dur\":{},\
                 \"name\":\"{} {bytes}B\",\"args\":{{\"task\":{task},\"wait_ns\":{waited_ns},\
                 \"background\":{detached}}}}}",
                us(t),
                us(done_at_ns.saturating_sub(t)),
                kind.label(),
            )),
            TraceEvent::BarrierOpened { barrier, cycle, released, .. } => lines.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"ts\":{},\"s\":\"p\",\
                 \"name\":\"barrier {barrier} cycle {cycle} ({released} released)\"}}",
                us(t),
            )),
            _ => {}
        }
    }
    for (i, r) in run.resources.iter().enumerate() {
        let name = json_escape(&r.name);
        for &(t, depth) in &r.queue_depth {
            lines.push(format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":{i},\"ts\":{},\
                 \"name\":\"queue {name}\",\"args\":{{\"depth\":{depth}}}}}",
                us(t),
            ));
        }
    }
    for &(t, bytes) in &run.backlog {
        lines.push(format!(
            "{{\"ph\":\"C\",\"pid\":0,\"ts\":{},\
             \"name\":\"osm.flush_backlog_bytes\",\"args\":{{\"bytes\":{bytes}}}}}",
            us(t),
        ));
    }
    for span in &run.jobs {
        let (job, label) = (span.job, json_escape(&span.label));
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{job},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{label}\"}}}}"
        ));
        if let Some(end) = span.end_ns {
            lines.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{job},\"ts\":{},\"dur\":{},\
                 \"name\":\"{label}\"}}",
                us(span.start_ns),
                us(end.saturating_sub(span.start_ns)),
            ));
        }
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
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

    #[test]
    fn chrome_trace_is_valid_json_with_tracks_and_counters() {
        let mut e = Engine::new();
        let d = e.add_resource("disk0@node0", Box::new(FixedRate::rate(10 << 20)));
        let log = EventLog::new();
        e.set_tracer(log.clone());
        e.spawn_job(
            "client0/write",
            seq(vec![
                use_res(d, Demand::DiskWrite { offset: 0, bytes: 64 << 10 }),
                background(use_res(d, Demand::DiskWrite { offset: 64 << 10, bytes: 64 << 10 })),
            ]),
        );
        e.run().unwrap();
        let (events, names) = (log.events(), e.resources().map(|(_, n, _)| n.into()).collect());
        let run = RunMetrics::derive(&events, names, SimDuration::from_millis(1));
        let json = chrome_trace_json(&events, &run);
        assert!(json_is_valid(&json), "invalid JSON:\n{json}");
        for needle in [
            "\"process_name\"",
            "\"ph\":\"X\",\"pid\":0",
            "\"name\":\"queue disk0@node0\",\"args\":{\"depth\":1}",
            "\"name\":\"osm.flush_backlog_bytes\",\"args\":{\"bytes\":65536}",
            "\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000",
            "client0/write",
        ] {
            assert!(json.contains(needle), "{needle} missing:\n{json}");
        }
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
