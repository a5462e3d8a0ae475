//! The stateful per-disk service model.

use sim_core::{Demand, ServiceModel, SimDuration, SimTime, SplitMix64};

use crate::spec::{DiskSpec, SchedPolicy};

/// Mechanical disk service model.
///
/// Tracks head position between requests: a request whose offset equals the
/// previous request's end is served at media rate with only command overhead;
/// anything else pays a distance-dependent seek plus a rotational latency
/// drawn uniformly from one revolution.
pub struct DiskModel {
    spec: DiskSpec,
    rng: SplitMix64,
    /// Byte offset just past the last transferred byte (head position).
    head: u64,
    /// Cumulative positioning time (seek + rotation), for diagnostics.
    positioning: SimDuration,
    /// Number of sequential hits (requests that skipped positioning).
    sequential_hits: u64,
    ops: u64,
    /// Current elevator sweep direction (toward higher offsets).
    sweep_up: bool,
}

impl DiskModel {
    /// A disk following `spec`, with rotational phase noise from `seed`.
    pub fn new(spec: DiskSpec, seed: u64) -> Self {
        DiskModel {
            spec,
            rng: SplitMix64::new(seed),
            head: 0,
            positioning: SimDuration::ZERO,
            sequential_hits: 0,
            ops: 0,
            sweep_up: true,
        }
    }

    /// The parameters this model was built from.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Fraction of requests served without repositioning.
    pub fn sequential_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.sequential_hits as f64 / self.ops as f64
        }
    }

    fn access(&mut self, offset: u64, bytes: u64) -> SimDuration {
        self.ops += 1;
        let transfer = SimDuration::for_bytes(bytes, self.spec.media_rate);
        let positioning = if self.spec.sequential_detection && offset == self.head {
            self.sequential_hits += 1;
            SimDuration::ZERO
        } else {
            let distance = offset.abs_diff(self.head);
            let fraction = if self.spec.capacity == 0 {
                1.0
            } else {
                distance as f64 / self.spec.capacity as f64
            };
            let seek = self.spec.seek_at_fraction(fraction);
            let rotation = SimDuration::from_nanos(
                self.rng.next_below(self.spec.rotation_time().as_nanos().max(1)),
            );
            seek + rotation
        };
        self.positioning += positioning;
        self.head = offset + bytes;
        self.spec.command_overhead + positioning + transfer
    }
}

impl DiskModel {
    fn offset_of(demand: &Demand) -> Option<u64> {
        match *demand {
            Demand::DiskRead { offset, .. } | Demand::DiskWrite { offset, .. } => Some(offset),
            _ => None,
        }
    }
}

impl ServiceModel for DiskModel {
    fn service_time(&mut self, demand: &Demand, _now: SimTime) -> SimDuration {
        match *demand {
            Demand::Busy(d) => d,
            Demand::DiskRead { offset, bytes } | Demand::DiskWrite { offset, bytes } => {
                self.access(offset, bytes)
            }
            ref other => panic!("disk received non-disk demand {other:?}"),
        }
    }

    fn is_fifo(&self) -> bool {
        self.spec.scheduler == SchedPolicy::Fcfs
    }

    fn select_next(&mut self, pending: &mut dyn Iterator<Item = &Demand>) -> usize {
        match self.spec.scheduler {
            SchedPolicy::Fcfs => 0,
            SchedPolicy::Sstf => pending
                .enumerate()
                .min_by_key(|(_, d)| Self::offset_of(d).map_or(0, |off| off.abs_diff(self.head)))
                .map_or(0, |(i, _)| i),
            SchedPolicy::Elevator => {
                // Nearest request in the sweep direction; if none, reverse.
                // One pass finds the nearest on each side of the head.
                let (mut above, mut below) = (None, None);
                for (i, d) in pending.enumerate() {
                    let Some(off) = Self::offset_of(d) else { continue };
                    let cand = (off.abs_diff(self.head), i);
                    if off >= self.head && above.is_none_or(|best| cand < best) {
                        above = Some(cand);
                    }
                    if off <= self.head && below.is_none_or(|best| cand < best) {
                        below = Some(cand);
                    }
                }
                let (ahead, behind) = if self.sweep_up { (above, below) } else { (below, above) };
                if ahead.is_none() {
                    self.sweep_up = !self.sweep_up;
                }
                ahead.or(behind).map_or(0, |(_, i)| i)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DiskModel {
        DiskModel::new(DiskSpec::classic_scsi(), 42)
    }

    fn read(m: &mut DiskModel, offset: u64, bytes: u64) -> SimDuration {
        m.service_time(&Demand::DiskRead { offset, bytes }, SimTime::ZERO)
    }

    #[test]
    fn sequential_run_is_media_rate() {
        let mut m = model();
        let first = read(&mut m, 0, 64 << 10);
        // Head starts at 0, so the very first read at offset 0 is sequential.
        assert_eq!(first, m.spec().sequential_access(64 << 10));
        let mut total = SimDuration::ZERO;
        for i in 1..=15u64 {
            total += read(&mut m, i * (64 << 10), 64 << 10);
        }
        assert_eq!(total, m.spec().sequential_access(64 << 10) * 15);
        assert!((m.sequential_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_access_pays_positioning() {
        let mut m = model();
        read(&mut m, 0, 4096);
        let jump = read(&mut m, 2 << 30, 4096);
        let seq = m.spec().sequential_access(4096);
        assert!(jump.as_nanos() > seq.as_nanos() + 1_000_000, "jump={jump}");
    }

    #[test]
    fn longer_seeks_cost_more_on_average() {
        // Average over many samples to wash out rotational noise.
        let sample = |dist: u64| -> f64 {
            let mut m = model();
            let mut total = 0.0;
            for i in 0..200u64 {
                // Alternate between 0 and dist so every access seeks `dist`.
                let off = if i % 2 == 0 { dist } else { 0 };
                total += read(&mut m, off, 4096).as_secs_f64();
            }
            total / 200.0
        };
        let near = sample(16 << 20); // 16 MB away
        let far = sample(3 << 30); // 3 GB away
        assert!(far > near, "far={far} near={near}");
    }

    #[test]
    fn rotational_latency_bounded_by_one_revolution() {
        let mut m = model();
        let spec = m.spec().clone();
        let worst = spec.command_overhead
            + spec.seek_max
            + spec.rotation_time()
            + SimDuration::for_bytes(4096, spec.media_rate);
        for i in 0..500u64 {
            let off = (i * 997) % (spec.capacity / 2) * 2; // scattered
            let t = read(&mut m, off, 4096);
            assert!(t <= worst, "t={t} worst={worst}");
            assert!(t >= spec.command_overhead);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed: u64| {
            let mut m = DiskModel::new(DiskSpec::classic_scsi(), seed);
            (0..100u64).map(|i| read(&mut m, (i * 7919) % (1 << 30), 8192).as_nanos()).sum::<u64>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    fn with_policy(p: SchedPolicy) -> DiskModel {
        let mut spec = DiskSpec::classic_scsi();
        spec.scheduler = p;
        DiskModel::new(spec, 42)
    }

    fn rd(offset: u64) -> Demand {
        Demand::DiskRead { offset, bytes: 4096 }
    }

    #[test]
    fn fcfs_always_picks_head_of_queue() {
        let mut m = with_policy(SchedPolicy::Fcfs);
        let q = [rd(5 << 30), rd(0), rd(1 << 20)];
        assert_eq!(m.select_next(&mut q.iter()), 0);
    }

    #[test]
    fn sstf_picks_nearest_offset() {
        let mut m = with_policy(SchedPolicy::Sstf);
        read(&mut m, 1 << 30, 4096); // park the head around 1 GB
        let q = [rd(3 << 30), rd((1 << 30) + 8192), rd(0)];
        assert_eq!(m.select_next(&mut q.iter()), 1);
    }

    #[test]
    fn elevator_sweeps_then_reverses() {
        let mut m = with_policy(SchedPolicy::Elevator);
        read(&mut m, 1 << 30, 4096); // head ~1 GB, sweeping up
                                     // Requests above and below the head: the sweep picks the nearest
                                     // *above* first.
        let q = [rd(0), rd(2 << 30), rd(3 << 30)];
        assert_eq!(m.select_next(&mut q.iter()), 1);
        // With only lower offsets pending, the elevator reverses.
        let q = [rd(512 << 20), rd(0)];
        assert_eq!(m.select_next(&mut q.iter()), 0);
        assert!(!m.sweep_up);
    }

    #[test]
    fn sstf_reduces_total_positioning_vs_fcfs() {
        use sim_core::plan::{par, use_res};
        use sim_core::Engine;
        // A batch of scattered requests arriving at once: SSTF should
        // finish sooner than FCFS on the same arrival order.
        let run = |policy: SchedPolicy| {
            let mut spec = DiskSpec::classic_scsi();
            spec.scheduler = policy;
            let mut e = Engine::new();
            let d = e.add_resource("disk", Box::new(DiskModel::new(spec, 7)));
            // Interleaved far/near offsets (worst case for FCFS).
            let offs = [
                0u64,
                3 << 30,
                4096,
                (3 << 30) + 4096,
                8192,
                (3 << 30) + 8192,
                12288,
                (3 << 30) + 12288,
            ];
            e.spawn_job("batch", par(offs.iter().map(|&o| use_res(d, rd(o))).collect()));
            e.run().unwrap().end.as_secs_f64()
        };
        let fcfs = run(SchedPolicy::Fcfs);
        let sstf = run(SchedPolicy::Sstf);
        let elevator = run(SchedPolicy::Elevator);
        assert!(sstf < 0.8 * fcfs, "sstf={sstf:.4} fcfs={fcfs:.4}");
        assert!(elevator < 0.8 * fcfs, "elevator={elevator:.4} fcfs={fcfs:.4}");
    }

    #[test]
    #[should_panic(expected = "non-disk demand")]
    fn rejects_net_demand() {
        let mut m = model();
        m.service_time(&Demand::NetXfer { bytes: 1 }, SimTime::ZERO);
    }
}
