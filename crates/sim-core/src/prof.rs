//! Deterministic engine work counters.
//!
//! [`EngineStats`] is always on and machine-independent: events popped,
//! event-queue pushes, queue-scan iterations, task-slot allocations, tracer
//! calls. The counters depend only on the simulated workload, never on
//! the host, so they are *gateable*: verify pass `perf-smoke` compares
//! them against an in-code baseline to catch algorithmic regressions (an
//! O(n) scan quietly turning O(n²)) without ever trusting a clock. Host
//! time is measured from outside the engine, by `benchmark/`.

/// Deterministic lifetime work counters of one [`crate::Engine`].
///
/// Counters only ever grow (saturating at `u64::MAX`), count *work
/// performed* rather than time spent, and are identical across hosts for
/// the same workload — the property the `perf-smoke` verify pass gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped off the event queue and dispatched.
    pub events: u64,
    /// Events pushed onto the event queue ([`crate::Engine`] `schedule`).
    /// The name predates the queue, which was a binary heap.
    pub heap_pushes: u64,
    /// Largest event-queue population observed right after a push.
    pub heap_peak: u64,
    /// Tasks spawned (every `Par` child is its own task).
    pub tasks_spawned: u64,
    /// Spawns that had to allocate a fresh task slot (the remainder
    /// reused a free-list slot).
    pub task_slot_allocs: u64,
    /// Pending demands inspected by a non-FIFO pick
    /// ([`crate::ServiceModel::select_next`]); FIFO resources add nothing.
    pub queue_scan_iters: u64,
    /// Individual `EventLog::record` calls dispatched.
    pub tracer_records: u64,
}

impl EngineStats {
    /// Count one event pop + dispatch.
    pub fn on_event(&mut self) {
        self.events = self.events.saturating_add(1);
    }

    /// Count one event-queue push; `len_after` is the population after it.
    pub fn on_heap_push(&mut self, len_after: usize) {
        self.heap_pushes = self.heap_pushes.saturating_add(1);
        self.heap_peak = self.heap_peak.max(len_after as u64);
    }

    /// Count one task spawn; `fresh_slot` means a new slot was allocated
    /// rather than reused from the free list.
    pub fn on_task_spawn(&mut self, fresh_slot: bool) {
        self.tasks_spawned = self.tasks_spawned.saturating_add(1);
        if fresh_slot {
            self.task_slot_allocs = self.task_slot_allocs.saturating_add(1);
        }
    }

    /// Count one non-FIFO pick over `scanned` pending demands.
    pub fn on_queue_scan(&mut self, scanned: usize) {
        self.queue_scan_iters = self.queue_scan_iters.saturating_add(scanned as u64);
    }

    /// Count `n` tracer record dispatches.
    pub fn on_tracer_records(&mut self, n: u64) {
        self.tracer_records = self.tracer_records.saturating_add(n);
    }

    /// Stable `(name, value)` view in declaration order, for reports and
    /// the `perf-smoke` baseline table.
    pub fn pairs(&self) -> [(&'static str, u64); 7] {
        [
            ("events", self.events),
            ("heap_pushes", self.heap_pushes),
            ("heap_peak", self.heap_peak),
            ("tasks_spawned", self.tasks_spawned),
            ("task_slot_allocs", self.task_slot_allocs),
            ("queue_scan_iters", self.queue_scan_iters),
            ("tracer_records", self.tracer_records),
        ]
    }
}
