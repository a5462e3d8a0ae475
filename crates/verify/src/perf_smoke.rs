//! `perf-smoke`: the engine-performance regression gate.
//!
//! Wall-clock benchmarks cannot gate CI (they measure the host, not the
//! code; `benchmark/` reports them), so this test gates what *is*
//! deterministic: the engine's work counters ([`sim_core::EngineStats`]
//! — events dispatched, event-queue pushes, queue-scan iterations,
//! task-slot allocations, tracer calls). It re-runs a small scenario and
//! asserts that the fresh work counters equal the in-code baseline table.
//! The counters are deterministic, so any difference is a change in what
//! the engine does: a queue scan creeping back onto the FIFO resources of
//! the smoke scenario shows up as a non-zero `queue_scan_iters` long
//! before anyone profiles.
//!
//! An intentional engine change updates the table in the same change: the
//! failure message prints the fresh counters as a paste-able table.

#[cfg(test)]
mod tests {
    use raidx_core::Arch;
    use sim_core::trace::NoopTracer;
    use workloads::parallel_io::{run_parallel_io, IoPattern, ParallelIoConfig};

    /// Baseline of [`smoke_work`].
    const SMOKE_BASELINE: [(&str, u64); 7] = [
        ("events", 906),
        ("heap_pushes", 906),
        ("heap_peak", 16),
        ("tasks_spawned", 163),
        ("task_slot_allocs", 56),
        ("queue_scan_iters", 0),
        ("tracer_records", 2540),
    ];

    /// Engine work counters of the gated smoke scenario — a small RAID-x
    /// parallel-write workload on a 4×1 cluster with a tracer installed (so
    /// `tracer_records` is exercised too).
    fn smoke_work() -> Vec<(&'static str, u64)> {
        let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, Arch::RaidX);
        engine.set_tracer(Box::new(NoopTracer));
        let cfg = ParallelIoConfig {
            clients: 4,
            pattern: IoPattern::LargeWrite,
            large_bytes: 128 << 10,
            repeats: 2,
            ..Default::default()
        };
        run_parallel_io(&mut engine, &mut sys, &cfg).expect("smoke workload failed");
        engine.run().expect("drain failed");
        engine.stats().pairs().to_vec()
    }

    #[test]
    fn engine_work_counters_equal_the_baseline() {
        let fresh = smoke_work();
        assert_eq!(fresh, SMOKE_BASELINE, "fresh table: {fresh:?}");
    }
}
