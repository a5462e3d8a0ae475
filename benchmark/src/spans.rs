//! In-memory span recorder for the traced run.
//!
//! The benchmark measures each layer from outside (choosing-metrics §4):
//! a span is opened around every call the load generator makes into a
//! layer, and around every call a layer makes into the next one where the
//! benchmark owns the boundary (the [`crate::store::SpanStore`] wrapper
//! sits between `cfs` and the block store). Spans stay in memory and are
//! written once, after the last repetition.
//!
//! A span's **self time** is its duration minus the part its direct
//! children cover. The benchmark is single-threaded and spans are strictly
//! nested, so the children of one span never overlap and that part is
//! their summed duration. Summed over every span under one root, self
//! times equal the root's duration exactly — the ledger's closing check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `cdd.write`; the layer is the part before
    /// the first dot.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Logical operation this span belongs to (0 = none): every span of
    /// one client request shares it.
    pub op_id: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Layer name: the part of `name` before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Inner {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

/// Handle to the recorder, cloned into every place that records. The
/// untraced benchmark uses [`Tracer::off`], where opening a span is one
/// branch and takes no timestamp.
#[derive(Clone)]
pub struct Tracer(Option<Rc<RefCell<Inner>>>);

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A recording recorder; its clock starts now.
    pub fn on() -> Self {
        Tracer(Some(Rc::new(RefCell::new(Inner {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }))))
    }

    /// Start a new logical operation: spans opened from now on carry a
    /// fresh `op_id`.
    pub fn next_op(&self) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().op_id += 1;
        }
    }

    /// Open a span; it closes when the guard is dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.0 else { return SpanGuard(None) };
        let mut r = inner.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let op_id = r.op_id;
        r.open.push(idx);
        let start_ns = r.t0.elapsed().as_nanos() as u64;
        r.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op_id });
        SpanGuard(Some((Rc::clone(inner), idx)))
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        match &self.0 {
            Some(inner) => std::mem::take(&mut inner.borrow_mut().spans),
            None => Vec::new(),
        }
    }
}

/// Closes its span on drop.
pub struct SpanGuard(Option<(Rc<RefCell<Inner>>, u32)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, idx)) = self.0.take() {
            let mut r = inner.borrow_mut();
            let end_ns = r.t0.elapsed().as_nanos() as u64;
            r.spans[idx as usize].end_ns = end_ns;
            // Guards drop in reverse order of creation, so this span is
            // the innermost open one.
            r.open.pop();
        }
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStat {
    /// Number of spans.
    pub calls: u64,
    /// Summed duration.
    pub busy_ns: u64,
    /// Summed self time (duration minus direct children).
    pub self_ns: u64,
}

/// Per-name totals of the spans under the root span called `root`
/// (the root itself included). Spans under other roots — set-up,
/// verification — are left out.
pub fn ledger(spans: &[Span], root: &str) -> BTreeMap<&'static str, NameStat> {
    // A parent is always recorded before its children, so one forward
    // pass resolves every span's root and one more its children's time.
    let mut in_root = vec![false; spans.len()];
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            in_root[i] = s.name == root;
        } else {
            in_root[i] = in_root[s.parent as usize];
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| in_root[*i]) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.busy_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Render spans as Chrome trace-event JSON (loadable in Perfetto). Each
/// `(label, spans)` group becomes one process track.
pub fn chrome_trace_json(groups: &[(String, Vec<Span>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, (label, spans)) in groups.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{label}\"}}}}"
        ));
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op_id\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op_id
            ));
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // driver[0,100] > cfs.write_file[10,70] > cdd.write[20,40], cdd.write[45,60]
        //               > engine.run[80,95]
        let spans = vec![
            sp("driver", 0, 100, NO_PARENT),
            sp("cfs.write_file", 10, 70, 0),
            sp("cdd.write", 20, 40, 1),
            sp("cdd.write", 45, 60, 1),
            sp("engine.run", 80, 95, 0),
        ];
        let l = ledger(&spans, "driver");
        assert_eq!(l["driver"], NameStat { calls: 1, busy_ns: 100, self_ns: 25 });
        assert_eq!(l["cfs.write_file"], NameStat { calls: 1, busy_ns: 60, self_ns: 25 });
        assert_eq!(l["cdd.write"], NameStat { calls: 2, busy_ns: 35, self_ns: 35 });
        assert_eq!(l["engine.run"], NameStat { calls: 1, busy_ns: 15, self_ns: 15 });
        // Self times of every layer sum to the root's wall time exactly.
        let total: u64 = l.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn grandchildren_are_not_subtracted_twice() {
        let spans = vec![
            sp("driver", 0, 50, NO_PARENT),
            sp("cfs.stat", 0, 40, 0),
            sp("cdd.read", 10, 30, 1),
        ];
        let l = ledger(&spans, "driver");
        assert_eq!(l["driver"].self_ns, 10);
        assert_eq!(l["cfs.stat"].self_ns, 20);
        assert_eq!(l["cdd.read"].self_ns, 20);
    }

    #[test]
    fn spans_under_other_roots_are_left_out() {
        let spans = vec![
            sp("setup", 0, 30, NO_PARENT),
            sp("cdd.write", 5, 25, 0),
            sp("driver", 30, 60, NO_PARENT),
            sp("cdd.read", 35, 45, 2),
        ];
        let l = ledger(&spans, "driver");
        assert!(!l.contains_key("cdd.write"));
        assert!(!l.contains_key("setup"));
        assert_eq!(l["cdd.read"].calls, 1);
        assert_eq!(l["driver"].self_ns, 20);
    }

    #[test]
    fn recorder_nests_and_shares_op_ids() {
        let tr = Tracer::on();
        {
            let _root = tr.span("driver");
            tr.next_op();
            {
                let _a = tr.span("cfs.mkdir");
                let _b = tr.span("cdd.write");
            }
            tr.next_op();
            let _c = tr.span("engine.run");
        }
        let spans = tr.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 0);
        assert_eq!(spans[1].op_id, spans[2].op_id, "spans of one op share its id");
        assert_ne!(spans[2].op_id, spans[3].op_id);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[0].end_ns >= spans[3].end_ns, "root closes last");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tr = Tracer::off();
        let _g = tr.span("driver");
        tr.next_op();
        assert!(tr.take().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = vec![sp("driver", 0, 1500, NO_PARENT), sp("cdd.write", 100, 900, 0)];
        let json = chrome_trace_json(&[("raidx".to_string(), spans)]);
        assert!(sim_core::export::json_is_valid(&json), "{json}");
        assert!(json.contains("\"cat\":\"cdd\""));
    }
}
