//! Interconnect parameter sets.

use sim_core::SimDuration;

/// Per-frame/segment protocol header bytes added on the wire (Ethernet +
/// IP + TCP), the same on both interconnects.
pub const HEADER_BYTES: u64 = 58;

/// Parameters of the cluster interconnect and of the per-message software
/// path (syscalls, TCP/IP stack, copies) on the hosts.
#[derive(Debug, Clone)]
pub struct NetSpec {
    /// Link bandwidth per NIC port, bytes/second (full duplex: tx and rx
    /// each run at this rate).
    pub link_rate: u64,
    /// Store-and-forward switch + propagation latency per segment.
    pub switch_latency: SimDuration,
    /// Fixed host software cost per message or segment (syscall + stack).
    pub sw_per_message: SimDuration,
    /// Host memory-copy bandwidth for protocol processing, bytes/second.
    pub sw_copy_rate: u64,
    /// Segment size used to pipeline bulk transfers.
    pub segment_bytes: u64,
}

impl NetSpec {
    /// Switched 100 Mbps Fast Ethernet with 1999-class host overheads
    /// (the Trojans cluster interconnect).
    pub fn fast_ethernet() -> Self {
        NetSpec {
            link_rate: 12_500_000,
            switch_latency: SimDuration::from_micros(20),
            sw_per_message: SimDuration::from_micros(80),
            sw_copy_rate: 120_000_000,
            segment_bytes: 32 << 10,
        }
    }

    /// Switched gigabit Ethernet with modern host overheads, for
    /// sensitivity studies.
    pub fn gigabit() -> Self {
        NetSpec {
            link_rate: 125_000_000,
            switch_latency: SimDuration::from_micros(5),
            sw_per_message: SimDuration::from_micros(15),
            sw_copy_rate: 2_000_000_000,
            segment_bytes: 64 << 10,
        }
    }

    /// Wire time for a payload of `bytes` on one port (headers included,
    /// per-segment segmentation accounted).
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        let segments = self.segments(bytes).max(1);
        SimDuration::for_bytes(bytes + segments * HEADER_BYTES, self.link_rate)
    }

    /// Number of segments a payload of `bytes` is split into.
    pub fn segments(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(self.segment_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ethernet_is_12_5_mbs() {
        let s = NetSpec::fast_ethernet();
        let t = s.wire_time(12_500_000);
        // 1 second of payload plus header overhead (< 1% for 32 KB segments).
        assert!(t >= SimDuration::from_secs(1));
        assert!(t < SimDuration::from_millis(1_010));
    }

    #[test]
    fn segment_count() {
        let s = NetSpec::fast_ethernet();
        assert_eq!(s.segments(0), 0);
        assert_eq!(s.segments(1), 1);
        assert_eq!(s.segments(32 << 10), 1);
        assert_eq!(s.segments((32 << 10) + 1), 2);
        assert_eq!(s.segments(2 << 20), 64);
    }
}
