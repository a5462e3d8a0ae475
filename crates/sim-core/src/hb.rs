//! Happens-before analysis over trace event streams: a FastTrack-style
//! vector-clock race detector plus a same-timestamp commutativity
//! auditor.
//!
//! The DPOR model checker ([`crate::explore`]) proves ordering
//! properties exhaustively, but only on tiny scenarios. This module
//! scales with the workload instead: it consumes the deterministic
//! [`TimedEvent`] stream of a *full-size* run and checks two classes of
//! property on it.
//!
//! **Happens-before edges** are derived from the lifecycle events the
//! engine already emits plus the protocol-level [`TraceEvent::Access`]
//! points emitted by instrumented subsystems (the CDD lock/write path,
//! the OSM image queue):
//!
//! | edge | source events |
//! |------|---------------|
//! | program order | consecutive events of one actor |
//! | fork | `TaskSpawned { parent: Some(p) }`: p → child |
//! | join | `TaskFinished`: child → parent |
//! | barrier | `BarrierWaited`/`BarrierOpened`: all participants join |
//! | lock | `Access::Release(cells)` → later `Access::Acquire(cells)` |
//!
//! Deliberately **not** edges: resource service chains
//! (`ServiceFinished` → next `ServiceStarted`). Those order events under
//! the *current* scheduler, not by synchronization — treating them as
//! edges would mask exactly the races an engine rewrite (ROADMAP item 1,
//! the indexed event queue) could expose.
//!
//! **Detector classes** (reported as [`HbViolation`]s):
//!
//! * `WriteWrite` — two writes to an SIOS cell unordered by
//!   happens-before (a protocol data race). Read/write conflicts are not
//!   a detector class: CDD reads are deliberately lock-free, so
//!   read/write ordering is the model check's linearizability property,
//!   not a race. `Read` accesses feed only the same-tick auditor.
//! * `UncoveredWrite` — a protocol actor's SIOS write not covered by a
//!   live lock-group grant (the single-I/O-space discipline).
//! * `SameTickAccess`/`SameTickService` — two same-timestamp events with
//!   overlapping footprints, unordered by happens-before: a
//!   commutativity violation that would make a batched/indexed event
//!   queue order-sensitive.
//!
//! Image-queue cells ([`image_cell`]) are excluded from the race and
//! coverage detectors by design: cross-client surrender order is
//! legitimately unordered (the queue itself serializes), so only the
//! same-tick auditor watches them.
//!
//! Actors are `u32` ids in two namespaces that cannot collide: engine
//! task indices (slot reuse is handled by treating every `TaskSpawned`
//! as a fresh actor instance) and protocol actors with
//! [`PROTOCOL_ACTOR_BASE`] set ([`client_actor`], [`OSM_ACTOR`]).
//! Cells are `u64` ids namespaced in the top byte ([`sios_cell`],
//! [`image_cell`]).
//!
//! The analyzer is *total*: it accepts arbitrary sub-streams (unknown
//! parents become roots, releases without grants are ignored), which is
//! what makes ddmin shrinking ([`crate::check::shrink_list`] with a
//! same-[`HbViolation::key`] oracle) sound.

use std::collections::BTreeMap;

use crate::rng::fnv1a;
use crate::time::SimTime;
use crate::trace::{AccessKind, DemandKind, TimedEvent, TraceEvent};

/// Top-byte shift of the cell-id namespace tag.
const NS_SHIFT: u32 = 56;
/// Cell namespace of SIOS logical blocks (race + coverage checked).
pub const SIOS_NS: u8 = 0;
/// Cell namespace of OSM image-queue surrenders (same-tick checked only).
pub const IMAGE_NS: u8 = 1;

/// A namespaced cell id.
pub fn cell(ns: u8, index: u64) -> u64 {
    debug_assert!(index < 1 << NS_SHIFT, "cell index overflows namespace");
    (u64::from(ns) << NS_SHIFT) | index
}

/// The cell of SIOS logical block `lb`.
pub fn sios_cell(lb: u64) -> u64 {
    cell(SIOS_NS, lb)
}

/// The cell of an OSM image-queue surrender of logical block `lb`.
pub fn image_cell(lb: u64) -> u64 {
    cell(IMAGE_NS, lb)
}

/// Namespace tag of a cell id.
pub fn cell_ns(c: u64) -> u8 {
    (c >> NS_SHIFT) as u8
}

/// Index of a cell id within its namespace.
pub fn cell_index(c: u64) -> u64 {
    c & ((1 << NS_SHIFT) - 1)
}

/// Bit marking protocol actors (client modules, the OSM drain path) —
/// engine task indices never reach it.
pub const PROTOCOL_ACTOR_BASE: u32 = 0x8000_0000;

/// The protocol actor id of client node `client`.
#[expect(clippy::expect_used, reason = "client counts are far below the actor-namespace split")]
pub fn client_actor(client: usize) -> u32 {
    PROTOCOL_ACTOR_BASE | u32::try_from(client).expect("client id overflows actor namespace")
}

/// The protocol actor performing OSM image drains not attributable to a
/// client op (flush points, disk-failure drains).
pub const OSM_ACTOR: u32 = u32::MAX;

/// Human-readable form of an actor id.
pub fn actor_label(a: u32) -> String {
    if a == OSM_ACTOR {
        "osm".to_string()
    } else if a & PROTOCOL_ACTOR_BASE != 0 {
        format!("client{}", a & !PROTOCOL_ACTOR_BASE)
    } else {
        format!("task{a}")
    }
}

/// Human-readable form of a cell id.
pub fn cell_label(c: u64) -> String {
    match cell_ns(c) {
        SIOS_NS => format!("sios:{}", cell_index(c)),
        IMAGE_NS => format!("img:{}", cell_index(c)),
        ns => format!("ns{ns}:{}", cell_index(c)),
    }
}

/// A dense vector clock. Indices are analyzer-internal actor slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct VectorClock(Vec<u64>);

impl VectorClock {
    fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    fn tick(&mut self, i: usize) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
    }

    fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// True when epoch `(actor, counter)` happened before this clock.
    fn covers(&self, actor: usize, counter: u64) -> bool {
        self.get(actor) >= counter
    }
}

/// The detector class a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// Two writes to one cell unordered by happens-before.
    WriteWrite,
    /// A protocol SIOS write not covered by a live lock-group grant.
    UncoveredWrite,
    /// Two same-timestamp accesses with overlapping cells, unordered.
    SameTickAccess,
    /// Two same-timestamp disk services on one resource.
    SameTickService,
}

impl ViolationKind {
    /// Short stable label, used in renderings and fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::WriteWrite => "write-write race",
            ViolationKind::UncoveredWrite => "uncovered write",
            ViolationKind::SameTickAccess => "same-tick access overlap",
            ViolationKind::SameTickService => "same-tick service overlap",
        }
    }
}

/// One finding of the happens-before analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbViolation {
    /// Detector class.
    pub kind: ViolationKind,
    /// Representative conflicting cell (for `SameTickService`, the
    /// resource index).
    pub cell: u64,
    /// Raw actor ids of the (earlier, later) conflicting events; equal
    /// for `UncoveredWrite`.
    pub actors: (u32, u32),
    /// Indices of the (earlier, later) conflicting events in the
    /// analyzed stream; equal for `UncoveredWrite`.
    pub events: (usize, usize),
    /// Human-readable description.
    pub detail: String,
}

impl HbViolation {
    /// Stream-position-independent identity of the finding: the class,
    /// the cell and the actors involved. Shrinking preserves this key
    /// while event indices change.
    pub fn key(&self) -> (ViolationKind, u64, u32, u32) {
        (self.kind, self.cell, self.actors.0, self.actors.1)
    }
}

impl std::fmt::Display for HbViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let place = if self.kind == ViolationKind::SameTickService {
            format!("resource {}", self.cell)
        } else {
            cell_label(self.cell)
        };
        write!(
            f,
            "{} on {} between {} (event {}) and {} (event {}): {}",
            self.kind.label(),
            place,
            actor_label(self.actors.0),
            self.events.0,
            actor_label(self.actors.1),
            self.events.1,
            self.detail
        )
    }
}

/// Findings recorded per analysis; the analysis itself runs to the end
/// of the stream.
const MAX_VIOLATIONS: usize = 64;

/// What one [`analyze`] run saw.
#[derive(Debug, Clone)]
pub struct HbAnalysis {
    /// Findings, in stream order (the first 64).
    pub violations: Vec<HbViolation>,
    /// Events processed.
    pub events: usize,
    /// `Access` events processed.
    pub accesses: usize,
    /// Actor instances observed (task instances + protocol actors).
    pub actors: usize,
    /// Synchronization edges constructed (fork/join/barrier/lock).
    pub sync_edges: usize,
}

impl HbAnalysis {
    /// True when no detector fired.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// FNV-1a fingerprint of the findings and counters — two analyses
    /// of identical streams must agree bit-for-bit (the detector's own
    /// determinism is audited by the `race-detect` verify pass).
    pub fn fingerprint(&self) -> u64 {
        let findings = self.violations.iter().map(|v| format!("{v}\n").into_bytes());
        let counters = [self.events, self.accesses, self.actors];
        fnv1a(findings.chain(counters.map(|n| (n as u64).to_le_bytes().to_vec())))
    }
}

struct ActorState {
    /// Raw actor id as it appeared in the stream.
    id: u32,
    clock: VectorClock,
    /// Parent actor slot (for the join edge at `TaskFinished`).
    parent: Option<usize>,
    /// Live lock-group grants: `(first cell, len)`.
    held: Vec<(u64, u64)>,
}

/// One same-tick footprint already seen at the current timestamp.
struct TickAccess {
    slot: usize,
    cell: u64,
    len: u64,
    write: bool,
    event: usize,
    /// The actor's clock counter at the access (its epoch).
    counter: u64,
}

struct TickService {
    slot: usize,
    res: u32,
    write: bool,
    event: usize,
}

/// Per-access cell iteration cap: protocol accesses are stripe-sized;
/// anything larger is a malformed event, not a workload.
const MAX_ACCESS_CELLS: u64 = 4096;

struct Analyzer {
    actors: Vec<ActorState>,
    /// Live engine-task instances: raw task id → actor slot.
    live_tasks: BTreeMap<u32, usize>,
    /// Persistent protocol actors: raw id → actor slot.
    protocol: BTreeMap<u32, usize>,
    /// Parked barrier waiters: barrier id → actor slots.
    barrier_waiters: BTreeMap<u32, Vec<usize>>,
    /// Per SIOS cell, the last write: `(actor slot, counter, event index)`.
    last_writes: BTreeMap<u64, (usize, u64, usize)>,
    /// Per-cell join of clocks at lock release (the lock edge source).
    release_clocks: BTreeMap<u64, VectorClock>,
    /// Same-tick footprints at `tick_at`.
    tick_at: SimTime,
    tick_accesses: Vec<TickAccess>,
    tick_services: Vec<TickService>,
    out: HbAnalysis,
}

impl Analyzer {
    fn new() -> Self {
        Analyzer {
            actors: Vec::new(),
            live_tasks: BTreeMap::new(),
            protocol: BTreeMap::new(),
            barrier_waiters: BTreeMap::new(),
            last_writes: BTreeMap::new(),
            release_clocks: BTreeMap::new(),
            tick_at: SimTime::ZERO,
            tick_accesses: Vec::new(),
            tick_services: Vec::new(),
            out: HbAnalysis {
                violations: Vec::new(),
                events: 0,
                accesses: 0,
                actors: 0,
                sync_edges: 0,
            },
        }
    }

    fn report(&mut self, v: HbViolation) {
        if self.out.violations.len() < MAX_VIOLATIONS {
            self.out.violations.push(v);
        }
    }

    fn new_actor(&mut self, id: u32, parent: Option<usize>) -> usize {
        let slot = self.actors.len();
        let mut clock = match parent {
            Some(p) => self.actors[p].clock.clone(),
            None => VectorClock::default(),
        };
        clock.tick(slot);
        self.actors.push(ActorState { id, clock, parent, held: Vec::new() });
        self.out.actors += 1;
        slot
    }

    /// The actor slot an `Access` event's raw id resolves to: a live
    /// engine task instance if one matches, else a persistent protocol
    /// actor (created on first sight — roots with no fork edge).
    fn resolve_actor(&mut self, id: u32) -> usize {
        if let Some(&slot) = self.live_tasks.get(&id) {
            return slot;
        }
        if let Some(&slot) = self.protocol.get(&id) {
            return slot;
        }
        let slot = self.new_actor(id, None);
        self.protocol.insert(id, slot);
        slot
    }

    fn flip_tick(&mut self, at: SimTime) {
        if at != self.tick_at {
            self.tick_at = at;
            self.tick_accesses.clear();
            self.tick_services.clear();
        }
    }

    fn on_task_spawned(&mut self, task: u32, parent: Option<u32>) {
        let parent_slot = parent.and_then(|p| self.live_tasks.get(&p).copied());
        if let Some(p) = parent_slot {
            // Fork edge: parent's knowledge flows into the child.
            self.actors[p].clock.tick(p);
            self.out.sync_edges += 1;
        }
        let slot = self.new_actor(task, parent_slot);
        self.live_tasks.insert(task, slot);
    }

    fn on_task_finished(&mut self, task: u32) {
        let Some(slot) = self.live_tasks.remove(&task) else { return };
        if let Some(p) = self.actors[slot].parent {
            // Join edge: the child's final clock flows into the parent.
            let child_clock = self.actors[slot].clock.clone();
            self.actors[p].clock.join(&child_clock);
            self.actors[p].clock.tick(p);
            self.out.sync_edges += 1;
        }
    }

    fn on_barrier_waited(&mut self, barrier: u32, task: u32) {
        if let Some(&slot) = self.live_tasks.get(&task) {
            self.barrier_waiters.entry(barrier).or_default().push(slot);
        }
    }

    fn on_barrier_opened(&mut self, barrier: u32, task: u32) {
        let mut participants = self.barrier_waiters.remove(&barrier).unwrap_or_default();
        if let Some(&slot) = self.live_tasks.get(&task) {
            participants.push(slot);
        }
        if participants.len() < 2 {
            return;
        }
        let mut joined = VectorClock::default();
        for &p in &participants {
            joined.join(&self.actors[p].clock);
        }
        for &p in &participants {
            self.actors[p].clock = joined.clone();
            self.actors[p].clock.tick(p);
            self.out.sync_edges += 1;
        }
    }

    fn on_service_started(
        &mut self,
        at: SimTime,
        res: u32,
        task: u32,
        kind: DemandKind,
        ev: usize,
    ) {
        self.flip_tick(at);
        let write = kind == DemandKind::DiskWrite;
        if !matches!(kind, DemandKind::DiskRead | DemandKind::DiskWrite) {
            return;
        }
        let slot = self.live_tasks.get(&task).copied();
        for prev in &self.tick_services {
            if prev.res == res && Some(prev.slot) != slot && (prev.write || write) {
                let v = HbViolation {
                    kind: ViolationKind::SameTickService,
                    cell: u64::from(res),
                    actors: (self.actors[prev.slot].id, task),
                    events: (prev.event, ev),
                    detail: format!(
                        "two disk services started on resource {res} at {at} — the engine's \
                         same-instant dispatch on one resource is order-sensitive"
                    ),
                };
                self.report(v);
                break;
            }
        }
        if let Some(slot) = slot {
            self.tick_services.push(TickService { slot, res, write, event: ev });
        }
    }

    fn on_access(
        &mut self,
        at: SimTime,
        task: u32,
        first: u64,
        len: u64,
        kind: AccessKind,
        ev: usize,
    ) {
        self.flip_tick(at);
        self.out.accesses += 1;
        let slot = self.resolve_actor(task);
        match kind {
            AccessKind::Acquire => {
                let n = len.min(MAX_ACCESS_CELLS);
                let mut edged = false;
                for i in 0..n {
                    if let Some(rc) = self.release_clocks.get(&(first + i)) {
                        self.actors[slot].clock.join(rc);
                        edged = true;
                    }
                }
                if edged {
                    self.out.sync_edges += 1;
                }
                self.actors[slot].held.push((first, len));
                self.actors[slot].clock.tick(slot);
            }
            AccessKind::Release => {
                let n = len.min(MAX_ACCESS_CELLS);
                let clock = self.actors[slot].clock.clone();
                for i in 0..n {
                    self.release_clocks
                        .entry(first + i)
                        .and_modify(|rc| rc.join(&clock))
                        .or_insert_with(|| clock.clone());
                }
                let held = &mut self.actors[slot].held;
                if let Some(pos) = held.iter().position(|&(c, l)| c == first && l == len) {
                    held.swap_remove(pos);
                }
                self.actors[slot].clock.tick(slot);
            }
            AccessKind::Read => {
                self.record_tick_access(slot, first, len, false, ev);
                self.actors[slot].clock.tick(slot);
            }
            AccessKind::Write => {
                let n = len.min(MAX_ACCESS_CELLS);
                let mut uncovered: Option<u64> = None;
                for i in 0..n {
                    let c = first + i;
                    if cell_ns(c) != SIOS_NS {
                        continue;
                    }
                    self.check_write(slot, c, ev);
                    if self.actors[slot].id & PROTOCOL_ACTOR_BASE != 0
                        && self.actors[slot].id != OSM_ACTOR
                        && uncovered.is_none()
                        && !self.actors[slot].held.iter().any(|&(h0, hl)| c >= h0 && c < h0 + hl)
                    {
                        uncovered = Some(c);
                    }
                }
                if let Some(c) = uncovered {
                    let id = self.actors[slot].id;
                    let v = HbViolation {
                        kind: ViolationKind::UncoveredWrite,
                        cell: c,
                        actors: (id, id),
                        events: (ev, ev),
                        detail: "SIOS write outside any live lock-group grant — the \
                                 consistency module's covered-write discipline is broken"
                            .to_string(),
                    };
                    self.report(v);
                }
                self.record_tick_access(slot, first, len, true, ev);
                self.actors[slot].clock.tick(slot);
            }
        }
    }

    fn check_write(&mut self, slot: usize, c: u64, ev: usize) {
        let epoch = self.actors[slot].clock.get(slot);
        let prev = self.last_writes.insert(c, (slot, epoch, ev));
        if let Some((ws, wc, wev)) = prev {
            if ws != slot && !self.actors[slot].clock.covers(ws, wc) {
                self.report(HbViolation {
                    kind: ViolationKind::WriteWrite,
                    cell: c,
                    actors: (self.actors[ws].id, self.actors[slot].id),
                    events: (wev, ev),
                    detail: "two writes to the same cell unordered by \
                             fork/join/barrier/lock edges"
                        .to_string(),
                });
            }
        }
    }

    fn record_tick_access(&mut self, slot: usize, first: u64, len: u64, write: bool, ev: usize) {
        // Commutativity: two same-timestamp accesses with overlapping
        // footprints (≥ one write) from different actors, unordered by
        // happens-before, cannot be dispatched in arbitrary order.
        let my_counter = self.actors[slot].clock.get(slot);
        let my_clock = &self.actors[slot].clock;
        let mut hit: Option<HbViolation> = None;
        for prev in &self.tick_accesses {
            let overlap = first < prev.cell + prev.len && prev.cell < first + len;
            if prev.slot != slot
                && overlap
                && (prev.write || write)
                && !my_clock.covers(prev.slot, prev.counter)
            {
                hit = Some(HbViolation {
                    kind: ViolationKind::SameTickAccess,
                    cell: first.max(prev.cell),
                    actors: (self.actors[prev.slot].id, self.actors[slot].id),
                    events: (prev.event, ev),
                    detail: format!(
                        "overlapping cell footprints touched at the same timestamp {} \
                         with no ordering edge — same-instant dispatch would be \
                         nondeterministic",
                        self.tick_at
                    ),
                });
                break;
            }
        }
        if let Some(v) = hit {
            self.report(v);
        }
        self.tick_accesses.push(TickAccess {
            slot,
            cell: first,
            len,
            write,
            event: ev,
            counter: my_counter,
        });
    }

    fn run(mut self, events: &[TimedEvent]) -> HbAnalysis {
        for (i, te) in events.iter().enumerate() {
            self.out.events += 1;
            match te.event {
                TraceEvent::TaskSpawned { task, parent, .. } => self.on_task_spawned(task, parent),
                TraceEvent::TaskFinished { task, .. } => self.on_task_finished(task),
                TraceEvent::BarrierWaited { barrier, task } => {
                    self.on_barrier_waited(barrier, task)
                }
                TraceEvent::BarrierOpened { barrier, task, .. } => {
                    self.on_barrier_opened(barrier, task)
                }
                TraceEvent::ServiceStarted { res, task, kind, .. } => {
                    self.on_service_started(te.at, res, task, kind, i)
                }
                TraceEvent::Access { task, cell, len, kind } => {
                    self.on_access(te.at, task, cell, len, kind, i)
                }
                TraceEvent::JobSpawned { .. }
                | TraceEvent::JobFinished { .. }
                | TraceEvent::Enqueued { .. }
                | TraceEvent::ServiceFinished { .. } => {}
            }
        }
        self.out
    }
}

/// Run the happens-before analysis over an event stream.
pub fn analyze(events: &[TimedEvent]) -> HbAnalysis {
    Analyzer::new().run(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent { at: SimTime(at), event }
    }

    fn spawned(task: u32, parent: Option<u32>) -> TraceEvent {
        TraceEvent::TaskSpawned { task, parent, detached: false }
    }

    fn finished(task: u32) -> TraceEvent {
        TraceEvent::TaskFinished { task, detached: false }
    }

    fn access(task: u32, cell: u64, len: u64, kind: AccessKind) -> TraceEvent {
        TraceEvent::Access { task, cell, len, kind }
    }

    fn service(res: u32, task: u32, kind: DemandKind) -> TraceEvent {
        TraceEvent::ServiceStarted {
            res,
            task,
            kind,
            bytes: 4096,
            waited_ns: 0,
            done_at_ns: 1,
            detached: false,
        }
    }

    fn kinds(a: &HbAnalysis) -> Vec<ViolationKind> {
        a.violations.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn fork_join_edges_order_task_accesses() {
        let events = vec![
            ev(0, spawned(0, None)),
            ev(1, access(0, sios_cell(5), 1, AccessKind::Write)),
            ev(2, spawned(1, Some(0))),
            ev(3, access(1, sios_cell(5), 1, AccessKind::Write)),
            ev(4, finished(1)),
            ev(5, access(0, sios_cell(5), 1, AccessKind::Write)),
            ev(6, finished(0)),
        ];
        let a = analyze(&events);
        assert!(a.clean(), "fork/join edges must order these writes: {:?}", a.violations);
        assert_eq!(a.actors, 2);
        assert!(a.sync_edges >= 2, "fork and join edges expected");
    }

    #[test]
    fn unrelated_tasks_writing_one_cell_race() {
        let events = vec![
            ev(0, spawned(0, None)),
            ev(0, spawned(1, None)),
            ev(1, access(0, sios_cell(9), 1, AccessKind::Write)),
            ev(2, access(1, sios_cell(9), 1, AccessKind::Write)),
        ];
        let a = analyze(&events);
        assert_eq!(kinds(&a), vec![ViolationKind::WriteWrite]);
        assert_eq!(a.violations[0].cell, sios_cell(9));
    }

    #[test]
    fn barrier_orders_and_skipping_it_races() {
        let barrier = |extra: bool| {
            let mut events = vec![
                ev(0, spawned(0, None)),
                ev(0, spawned(1, None)),
                ev(1, access(0, sios_cell(3), 2, AccessKind::Write)),
            ];
            if extra {
                events.push(ev(2, TraceEvent::BarrierWaited { barrier: 7, task: 0 }));
                events.push(ev(
                    3,
                    TraceEvent::BarrierOpened { barrier: 7, task: 1, cycle: 1, released: 2 },
                ));
            }
            events.push(ev(4, access(1, sios_cell(4), 1, AccessKind::Write)));
            events
        };
        let clean = analyze(&barrier(true));
        assert!(clean.clean(), "barrier must order the writes: {:?}", clean.violations);
        let raced = analyze(&barrier(false));
        assert_eq!(kinds(&raced), vec![ViolationKind::WriteWrite]);
    }

    /// Two protocol clients writing an overlapping range, each under a
    /// lock-group grant: the release→acquire edge orders them. Dropping
    /// the first client's grant breaks both detectors at once.
    fn locked_protocol_stream(drop_first_grant: bool) -> Vec<TimedEvent> {
        let (c0, c1) = (client_actor(0), client_actor(1));
        let mut events = Vec::new();
        if !drop_first_grant {
            events.push(ev(10, access(c0, sios_cell(0), 4, AccessKind::Acquire)));
        }
        events.push(ev(10, access(c0, sios_cell(0), 4, AccessKind::Write)));
        if !drop_first_grant {
            events.push(ev(10, access(c0, sios_cell(0), 4, AccessKind::Release)));
        }
        events.push(ev(11, access(c1, sios_cell(2), 4, AccessKind::Acquire)));
        events.push(ev(11, access(c1, sios_cell(2), 4, AccessKind::Write)));
        events.push(ev(11, access(c1, sios_cell(2), 4, AccessKind::Release)));
        events
    }

    #[test]
    fn lock_edges_order_clients_and_dropped_grant_is_caught() {
        let clean = analyze(&locked_protocol_stream(false));
        assert!(clean.clean(), "lock edges must order the clients: {:?}", clean.violations);
        let raced = analyze(&locked_protocol_stream(true));
        let ks = kinds(&raced);
        assert!(
            ks.contains(&ViolationKind::UncoveredWrite),
            "missing grant must surface as an uncovered write: {ks:?}"
        );
        assert!(
            ks.contains(&ViolationKind::WriteWrite),
            "missing release edge must surface as a write-write race: {ks:?}"
        );
    }

    #[test]
    fn image_cells_are_exempt_from_race_and_coverage() {
        let (c0, c1) = (client_actor(0), client_actor(1));
        let events = vec![
            ev(0, access(c0, image_cell(7), 1, AccessKind::Write)),
            ev(1, access(c1, image_cell(7), 1, AccessKind::Write)),
        ];
        let a = analyze(&events);
        assert!(a.clean(), "image surrender order is legitimately unordered: {:?}", a.violations);
    }

    #[test]
    fn same_tick_overlapping_accesses_flagged() {
        let events = vec![
            ev(5, access(client_actor(0), sios_cell(0), 4, AccessKind::Write)),
            ev(5, access(client_actor(1), sios_cell(3), 2, AccessKind::Write)),
        ];
        let a = analyze(&events);
        assert!(kinds(&a).contains(&ViolationKind::SameTickAccess), "{:?}", kinds(&a));
        // Disjoint footprints at one tick commute: no finding.
        let disjoint = vec![
            ev(5, access(client_actor(0), sios_cell(0), 2, AccessKind::Write)),
            ev(5, access(client_actor(1), sios_cell(8), 2, AccessKind::Write)),
        ];
        let b = analyze(&disjoint);
        assert!(!kinds(&b).contains(&ViolationKind::SameTickAccess));
    }

    #[test]
    fn same_tick_disk_services_on_one_resource_flagged() {
        let events = vec![
            ev(0, spawned(0, None)),
            ev(0, spawned(1, None)),
            ev(9, service(3, 0, DemandKind::DiskWrite)),
            ev(9, service(3, 1, DemandKind::DiskWrite)),
        ];
        let a = analyze(&events);
        assert_eq!(kinds(&a), vec![ViolationKind::SameTickService]);
        // Different resources at one tick are fine.
        let ok = vec![
            ev(0, spawned(0, None)),
            ev(0, spawned(1, None)),
            ev(9, service(3, 0, DemandKind::DiskWrite)),
            ev(9, service(4, 1, DemandKind::DiskWrite)),
        ];
        assert!(analyze(&ok).clean());
    }

    #[test]
    fn task_slot_reuse_spawns_fresh_actor_instances() {
        let events = vec![
            ev(0, spawned(0, None)),
            ev(1, access(0, sios_cell(1), 1, AccessKind::Write)),
            ev(2, finished(0)),
            ev(3, spawned(0, None)), // engine free-list reuses slot 0
            ev(4, access(0, sios_cell(1), 1, AccessKind::Write)),
        ];
        let a = analyze(&events);
        assert_eq!(a.actors, 2, "slot reuse must not merge instances");
        assert_eq!(kinds(&a), vec![ViolationKind::WriteWrite], "instances are unordered");
    }

    #[test]
    fn ddmin_over_sub_streams_reduces_and_preserves_the_finding() {
        // Pad the dropped-grant defect with unrelated locked traffic.
        let mut events = Vec::new();
        for i in 0..20u64 {
            let c = client_actor(3);
            events.push(ev(100 + i, access(c, sios_cell(100 + i), 1, AccessKind::Acquire)));
            events.push(ev(100 + i, access(c, sios_cell(100 + i), 1, AccessKind::Write)));
            events.push(ev(100 + i, access(c, sios_cell(100 + i), 1, AccessKind::Release)));
        }
        events.extend(locked_protocol_stream(true));
        let a = analyze(&events);
        let race = a
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::WriteWrite)
            .expect("planted race");
        let exhibits =
            |w: &[TimedEvent]| analyze(w).violations.iter().any(|v| v.key() == race.key());
        let window = crate::check::shrink_list(&events, exhibits);
        assert!(window.len() < events.len(), "window must shrink");
        assert!(window.len() >= 2, "a race needs both accesses");
        assert!(exhibits(&window), "shrunk window must still exhibit the finding");
    }

    #[test]
    fn analysis_fingerprint_is_deterministic_and_sensitive() {
        let events = locked_protocol_stream(true);
        let a = analyze(&events);
        let b = analyze(&events);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let clean = analyze(&locked_protocol_stream(false));
        assert_ne!(a.fingerprint(), clean.fingerprint());
    }

    #[test]
    fn cell_namespacing_round_trips() {
        let c = image_cell(0xABCD);
        assert_eq!(cell_ns(c), IMAGE_NS);
        assert_eq!(cell_index(c), 0xABCD);
        assert_eq!(cell_ns(sios_cell(7)), SIOS_NS);
        assert_eq!(actor_label(client_actor(2)), "client2");
        assert_eq!(actor_label(OSM_ACTOR), "osm");
        assert_eq!(actor_label(17), "task17");
    }
}
