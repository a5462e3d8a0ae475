//! Disk and bus parameter sets.

use sim_core::SimDuration;

/// Queue discipline applied to a disk's pending requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// First-come first-served (arrival order).
    #[default]
    Fcfs,
    /// Shortest-seek-time-first: serve the request nearest the head.
    Sstf,
    /// Elevator (SCAN): sweep in one direction, reverse at the edge.
    Elevator,
}

/// Physical parameters of one disk.
///
/// Defaults mirror a late-1990s 7200 rpm SCSI drive of the class installed in
/// the Trojans cluster nodes ([`DiskSpec::classic_scsi`]).
#[derive(Debug, Clone)]
pub struct DiskSpec {
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Shortest (track-to-track) seek.
    pub seek_min: SimDuration,
    /// Full-stroke seek.
    pub seek_max: SimDuration,
    /// Sustained media transfer rate, bytes/second.
    pub media_rate: u64,
    /// Fixed controller/firmware overhead charged per command.
    pub command_overhead: SimDuration,
    /// Requests starting exactly where the previous one ended skip
    /// positioning when true (track buffer / no intervening seek).
    pub sequential_detection: bool,
    /// Queue discipline for pending requests.
    pub scheduler: SchedPolicy,
}

impl DiskSpec {
    /// A 1999-class 7200 rpm SCSI disk (≈ the Trojans cluster hardware):
    /// 8.3 ms rotation, 1–15 ms seek, 15 MB/s media rate, 0.3 ms command
    /// overhead, 4 GB capacity.
    pub fn classic_scsi() -> Self {
        DiskSpec {
            capacity: 4 << 30,
            rpm: 7200,
            seek_min: SimDuration::from_micros(1_000),
            seek_max: SimDuration::from_micros(15_000),
            media_rate: 15_000_000,
            command_overhead: SimDuration::from_micros(300),
            sequential_detection: true,
            scheduler: SchedPolicy::Fcfs,
        }
    }

    /// Time for one full platter revolution.
    pub fn rotation_time(&self) -> SimDuration {
        SimDuration::from_nanos(60_000_000_000 / u64::from(self.rpm))
    }

    /// Mean rotational latency (half a revolution).
    pub fn avg_rotational_latency(&self) -> SimDuration {
        self.rotation_time() / 2
    }

    /// Average seek (the seek curve evaluated at one-third stroke, the
    /// conventional average-seek distance).
    pub fn avg_seek(&self) -> SimDuration {
        self.seek_at_fraction(1.0 / 3.0)
    }

    /// Seek time for a head movement spanning `fraction` of the full stroke,
    /// using the standard square-root acceleration curve.
    pub fn seek_at_fraction(&self, fraction: f64) -> SimDuration {
        if fraction <= 0.0 {
            return SimDuration::ZERO;
        }
        let f = fraction.min(1.0);
        let min = self.seek_min.as_nanos() as f64;
        let max = self.seek_max.as_nanos() as f64;
        SimDuration::from_nanos((min + (max - min) * f.sqrt()) as u64)
    }

    /// Expected service time for a *random* access of `bytes`:
    /// overhead + average seek + average rotational latency + transfer.
    /// Used by the analytic model (Table 2) for the per-block R/W terms.
    pub fn avg_random_access(&self, bytes: u64) -> SimDuration {
        self.command_overhead
            + self.avg_seek()
            + self.avg_rotational_latency()
            + SimDuration::for_bytes(bytes, self.media_rate)
    }

    /// Expected service time for a *sequential* access of `bytes`.
    pub fn sequential_access(&self, bytes: u64) -> SimDuration {
        self.command_overhead + SimDuration::for_bytes(bytes, self.media_rate)
    }

    /// Effective bandwidth (bytes/sec) for a stream of random accesses of
    /// `bytes` each — the paper's per-disk `B` once block size is fixed.
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        bytes as f64 / self.avg_random_access(bytes).as_secs_f64()
    }
}

/// Parameters of a shared I/O bus (SCSI in the Trojans nodes).
#[derive(Debug, Clone)]
pub struct BusSpec {
    /// Bus bandwidth in bytes/second.
    pub rate: u64,
    /// Arbitration + command phase overhead charged per transfer.
    pub per_command: SimDuration,
}

impl BusSpec {
    /// UltraWide-SCSI-class bus: 40 MB/s, 50 µs arbitration per command.
    pub fn ultra_scsi() -> Self {
        BusSpec { rate: 40_000_000, per_command: SimDuration::from_micros(50) }
    }

    /// Fast-SCSI-class bus: 20 MB/s.
    pub fn fast_scsi() -> Self {
        BusSpec { rate: 20_000_000, per_command: SimDuration::from_micros(50) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_follows_rpm() {
        let spec = DiskSpec::classic_scsi();
        let rot = spec.rotation_time();
        assert!((rot.as_millis_f64() - 8.333).abs() < 0.01, "{rot}");
        // Integer division may lose a nanosecond.
        assert!(rot.as_nanos() - spec.avg_rotational_latency().as_nanos() * 2 <= 1);
    }

    #[test]
    fn seek_curve_monotone_and_bounded() {
        let spec = DiskSpec::classic_scsi();
        assert_eq!(spec.seek_at_fraction(0.0), SimDuration::ZERO);
        let mut prev = SimDuration::ZERO;
        for i in 1..=10 {
            let s = spec.seek_at_fraction(i as f64 / 10.0);
            assert!(s >= prev);
            prev = s;
        }
        assert_eq!(spec.seek_at_fraction(1.0), spec.seek_max);
        assert_eq!(spec.seek_at_fraction(2.0), spec.seek_max);
        assert!(spec.seek_at_fraction(1e-9) >= spec.seek_min);
    }

    #[test]
    fn random_access_dominated_by_positioning_for_small_blocks() {
        let spec = DiskSpec::classic_scsi();
        let small = spec.avg_random_access(32 << 10);
        let seq = spec.sequential_access(32 << 10);
        // Positioning must dominate a 32 KB transfer (that is the small-write
        // problem's raw material).
        assert!(small.as_nanos() > 4 * seq.as_nanos(), "small={small} seq={seq}");
    }

    #[test]
    fn effective_bandwidth_grows_with_block_size() {
        let spec = DiskSpec::classic_scsi();
        let b_small = spec.effective_bandwidth(32 << 10);
        let b_large = spec.effective_bandwidth(2 << 20);
        assert!(b_large > 4.0 * b_small);
        // Large-block bandwidth approaches but cannot exceed the media rate.
        assert!(b_large < spec.media_rate as f64);
    }
}
