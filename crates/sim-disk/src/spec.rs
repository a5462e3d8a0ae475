//! Disk parameters: the Trojans nodes' drive mechanics as constants, plus
//! the two per-disk settings an experiment varies.

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

/// Spindle speed of the Trojans nodes' 1999-class SCSI disks, rpm.
pub const RPM: u64 = 7200;
/// Shortest (track-to-track) seek.
pub const SEEK_MIN: SimDuration = SimDuration::from_micros(1_000);
/// Full-stroke seek.
pub const SEEK_MAX: SimDuration = SimDuration::from_micros(15_000);
/// Sustained media transfer rate, bytes/second.
pub const MEDIA_RATE: u64 = 15_000_000;
/// Fixed controller/firmware overhead charged per command.
pub const COMMAND_OVERHEAD: SimDuration = SimDuration::from_micros(300);

/// The per-disk parameters an experiment varies; the mechanics (seek
/// curve, rotation, media rate, overhead) are this module's constants.
#[derive(Debug, Clone)]
pub struct DiskSpec {
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Queue discipline for pending requests.
    pub scheduler: SchedPolicy,
}

impl DiskSpec {
    /// A 1999-class 7200 rpm SCSI disk (≈ the Trojans cluster hardware):
    /// 8.3 ms rotation, 1–15 ms seek, 15 MB/s media rate, 0.3 ms command
    /// overhead, 4 GB capacity, FCFS queue.
    pub fn classic_scsi() -> Self {
        DiskSpec { capacity: 4 << 30, scheduler: SchedPolicy::Fcfs }
    }
}

/// Time for one full platter revolution.
pub fn rotation_time() -> SimDuration {
    SimDuration::from_nanos(60_000_000_000 / RPM)
}

/// Seek time for a head movement spanning `fraction` of the full stroke,
/// using the standard square-root acceleration curve.
pub fn seek_at_fraction(fraction: f64) -> SimDuration {
    if fraction <= 0.0 {
        return SimDuration::ZERO;
    }
    let f = fraction.min(1.0);
    let min = SEEK_MIN.as_nanos() as f64;
    let max = SEEK_MAX.as_nanos() as f64;
    SimDuration::from_nanos((min + (max - min) * f.sqrt()) as u64)
}

/// Expected service time for a *random* access of `bytes`: overhead +
/// average seek (the curve at one-third stroke, the conventional
/// average-seek distance) + average rotational latency (half a
/// revolution) + transfer. Used by the analytic model (Table 2) for the
/// per-block R/W terms.
pub fn avg_random_access(bytes: u64) -> SimDuration {
    COMMAND_OVERHEAD
        + seek_at_fraction(1.0 / 3.0)
        + rotation_time() / 2
        + SimDuration::for_bytes(bytes, MEDIA_RATE)
}

/// Expected service time for a *sequential* access of `bytes`.
pub fn sequential_access(bytes: u64) -> SimDuration {
    COMMAND_OVERHEAD + SimDuration::for_bytes(bytes, MEDIA_RATE)
}

/// Effective bandwidth (bytes/sec) for a stream of random accesses of
/// `bytes` each — the paper's per-disk `B` once block size is fixed.
pub fn effective_bandwidth(bytes: u64) -> f64 {
    bytes as f64 / avg_random_access(bytes).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_follows_rpm() {
        let rot = rotation_time();
        assert!((rot.as_millis_f64() - 8.333).abs() < 0.01, "{rot}");
    }

    #[test]
    fn seek_curve_monotone_and_bounded() {
        assert_eq!(seek_at_fraction(0.0), SimDuration::ZERO);
        let mut prev = SimDuration::ZERO;
        for i in 1..=10 {
            let s = seek_at_fraction(i as f64 / 10.0);
            assert!(s >= prev);
            prev = s;
        }
        assert_eq!(seek_at_fraction(1.0), SEEK_MAX);
        assert_eq!(seek_at_fraction(2.0), SEEK_MAX);
        assert!(seek_at_fraction(1e-9) >= SEEK_MIN);
    }

    #[test]
    fn random_access_dominated_by_positioning_for_small_blocks() {
        let small = avg_random_access(32 << 10);
        let seq = sequential_access(32 << 10);
        // Positioning must dominate a 32 KB transfer (that is the small-write
        // problem's raw material).
        assert!(small.as_nanos() > 4 * seq.as_nanos(), "small={small} seq={seq}");
    }

    #[test]
    fn effective_bandwidth_grows_with_block_size() {
        let b_small = effective_bandwidth(32 << 10);
        let b_large = effective_bandwidth(2 << 20);
        assert!(b_large > 4.0 * b_small);
        // Large-block bandwidth approaches but cannot exceed the media rate.
        assert!(b_large < MEDIA_RATE as f64);
    }
}
