//! Analytic peak-performance model — the paper's Table 2.
//!
//! Expected performance of the four architectures over `n` disks with
//! per-disk bandwidth `B`, average block-read time `R` and block-write time
//! `W`, for files of `m` blocks. The supplied OCR of the paper garbles
//! several cells; the formulas below are re-derived from the architecture
//! definitions and match every legible cell and every claim in the prose
//! (e.g. "the improvement factor approaches two" for RAID-x vs. chained
//! declustering on large writes, and RAID-x matching RAID-0's full-stripe
//! bandwidth).
//!
//! Conventions: bandwidths are *foreground* (what a client observes —
//! RAID-x's deferred image traffic is excluded there, exactly as the paper
//! counts it) and the `sustained_*` variants include it.

/// Architectures covered by Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Rotating parity.
    Raid5,
    /// Chained declustering.
    Chained,
    /// Striped mirroring.
    Raid10,
    /// Orthogonal striping and mirroring.
    RaidX,
}

impl Arch {
    /// All four, in the paper's column order.
    pub const ALL: [Arch; 4] = [Arch::Raid5, Arch::Chained, Arch::Raid10, Arch::RaidX];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Raid5 => "RAID-5",
            Arch::Chained => "Chained declustering",
            Arch::Raid10 => "RAID-10",
            Arch::RaidX => "RAID-x",
        }
    }
}

/// Inputs of the model: array size and per-disk block costs.
#[derive(Debug, Clone, Copy)]
pub struct PeakModel {
    /// Number of disks.
    pub n: u64,
    /// Maximum bandwidth per disk (any unit; results share it).
    pub disk_bw: f64,
    /// Average block read time (seconds).
    pub read_time: f64,
    /// Average block write time (seconds).
    pub write_time: f64,
}

impl PeakModel {
    /// Model for `n` disks with unit bandwidth and unit block times
    /// (useful for ratio-only comparisons).
    pub fn unit(n: u64) -> Self {
        PeakModel { n, disk_bw: 1.0, read_time: 1.0, write_time: 1.0 }
    }

    /// Maximum aggregate read bandwidth (large reads).
    ///
    /// RAID-5 delivers `(n-1)B` of *data* (one disk's worth of each stripe
    /// is parity); the mirrored schemes read from all `n` spindles.
    pub fn max_read_bw(&self, a: Arch) -> f64 {
        let n = self.n as f64;
        match a {
            Arch::Raid5 => (n - 1.0) * self.disk_bw,
            Arch::Chained | Arch::Raid10 | Arch::RaidX => n * self.disk_bw,
        }
    }

    /// Maximum aggregate large-write (full-stripe) bandwidth, foreground.
    ///
    /// RAID-5 writes `n` disks to store `n-1` data blocks; the foreground
    /// mirrors pay both copies; RAID-x's data goes at full stripe speed and
    /// its clustered images cost one long write of `n-1` blocks per group,
    /// i.e. a `1/(n-1)` surcharge: `nB · (n-1)/n = (n-1)B`.
    pub fn max_large_write_bw(&self, a: Arch) -> f64 {
        let n = self.n as f64;
        match a {
            Arch::Raid5 => (n - 1.0) * self.disk_bw,
            Arch::Chained | Arch::Raid10 => n * self.disk_bw / 2.0,
            Arch::RaidX => (n - 1.0) * self.disk_bw,
        }
    }

    /// Maximum aggregate small-write bandwidth, foreground.
    ///
    /// RAID-5 pays four accesses per block (read old data + old parity,
    /// write new data + parity): `nB/4`. Foreground mirrors pay two
    /// accesses: `nB/2`. RAID-x defers the image entirely: `nB`.
    pub fn max_small_write_bw(&self, a: Arch) -> f64 {
        let n = self.n as f64;
        match a {
            Arch::Raid5 => n * self.disk_bw / 4.0,
            Arch::Chained | Arch::Raid10 => n * self.disk_bw / 2.0,
            Arch::RaidX => n * self.disk_bw,
        }
    }

    /// Sustained small-write bandwidth, counting deferred image traffic.
    /// For RAID-x the background flush costs `1/(n-1)` of a long write per
    /// image, so sustained bandwidth is `nB(n-1)/n = (n-1)B`.
    pub fn sustained_small_write_bw(&self, a: Arch) -> f64 {
        match a {
            Arch::RaidX => (self.n as f64 - 1.0) * self.disk_bw,
            Arch::Raid5 | Arch::Chained | Arch::Raid10 => self.max_small_write_bw(a),
        }
    }

    /// Time for one client to read a large file of `m` blocks in parallel.
    pub fn large_read_time(&self, a: Arch, m: u64) -> f64 {
        let (n, m) = (self.n as f64, m as f64);
        match a {
            Arch::Raid5 => m * self.read_time / (n - 1.0),
            Arch::Chained | Arch::Raid10 | Arch::RaidX => m * self.read_time / n,
        }
    }

    /// Time for one small (single-block) read: one block access everywhere.
    pub fn small_read_time(&self, _a: Arch) -> f64 {
        self.read_time
    }

    /// Time for one client to write a large file of `m` blocks, foreground.
    ///
    /// RAID-x: `mW/n + mW/(n(n-1))` — the paper's cell, whose second term
    /// is the clustered image flush amortized over groups of `n-1`.
    pub fn large_write_time(&self, a: Arch, m: u64) -> f64 {
        let (n, m) = (self.n as f64, m as f64);
        match a {
            Arch::Raid5 => m * self.write_time / (n - 1.0),
            Arch::Chained | Arch::Raid10 => 2.0 * m * self.write_time / n,
            Arch::RaidX => m * self.write_time / n + m * self.write_time / (n * (n - 1.0)),
        }
    }

    /// Latency of one small write.
    ///
    /// RAID-5 serializes a read before the write (`R + W`); the mirrored
    /// schemes write both copies concurrently on different disks (`W`);
    /// RAID-x acknowledges after the data write (`W`).
    pub fn small_write_time(&self, a: Arch) -> f64 {
        match a {
            Arch::Raid5 => self.read_time + self.write_time,
            Arch::Chained | Arch::Raid10 | Arch::RaidX => self.write_time,
        }
    }

    /// Best-case fault coverage (Table 2's bottom row).
    pub fn max_fault_coverage(&self, a: Arch) -> u64 {
        match a {
            Arch::Raid5 => 1,
            Arch::Chained | Arch::Raid10 => self.n / 2,
            // For a 1-D RAID-x (k = 1) a single failure; the n×k variant
            // tolerates one per row, reported by the layout itself.
            Arch::RaidX => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> PeakModel {
        PeakModel { n: 8, disk_bw: 10.0, read_time: 0.01, write_time: 0.012 }
    }

    #[test]
    fn reads_scale_with_all_spindles() {
        let m = m();
        assert_eq!(m.max_read_bw(Arch::RaidX), 80.0);
        assert_eq!(m.max_read_bw(Arch::Raid10), 80.0);
        assert_eq!(m.max_read_bw(Arch::Raid5), 70.0);
    }

    #[test]
    fn raidx_large_write_beats_mirrors_and_matches_raid5() {
        let m = m();
        assert_eq!(m.max_large_write_bw(Arch::RaidX), 70.0);
        assert_eq!(m.max_large_write_bw(Arch::Raid5), 70.0);
        assert_eq!(m.max_large_write_bw(Arch::Raid10), 40.0);
    }

    #[test]
    fn raidx_small_write_advantage_is_about_4x_over_raid5() {
        let m = m();
        let ratio = m.max_small_write_bw(Arch::RaidX) / m.max_small_write_bw(Arch::Raid5);
        assert_eq!(ratio, 4.0);
        let vs_mirror = m.max_small_write_bw(Arch::RaidX) / m.max_small_write_bw(Arch::Raid10);
        assert_eq!(vs_mirror, 2.0);
    }

    #[test]
    fn large_write_improvement_over_chained_approaches_two() {
        // The paper: "For large array size, the improvement factor
        // approaches two."
        for &n in &[4u64, 16, 64, 256] {
            let m = PeakModel::unit(n);
            let factor =
                m.large_write_time(Arch::Chained, 1000) / m.large_write_time(Arch::RaidX, 1000);
            assert!(factor < 2.0);
            if n >= 64 {
                assert!(factor > 1.9, "n={n} factor={factor}");
            }
        }
    }

    #[test]
    fn small_write_latency_shows_rmw_penalty() {
        let m = m();
        assert!(m.small_write_time(Arch::Raid5) > m.small_write_time(Arch::RaidX));
        assert_eq!(m.small_write_time(Arch::RaidX), 0.012);
        assert_eq!(m.small_write_time(Arch::Raid5), 0.022);
    }

    #[test]
    fn sustained_raidx_small_write_still_wins() {
        let m = m();
        assert!(m.sustained_small_write_bw(Arch::RaidX) > m.max_small_write_bw(Arch::Raid10));
    }

    #[test]
    fn fault_coverage_row() {
        let m = m();
        assert_eq!(m.max_fault_coverage(Arch::Raid5), 1);
        assert_eq!(m.max_fault_coverage(Arch::Chained), 4);
        assert_eq!(m.max_fault_coverage(Arch::Raid10), 4);
        assert_eq!(m.max_fault_coverage(Arch::RaidX), 1);
    }

    #[test]
    fn arch_metadata() {
        assert_eq!(Arch::ALL.len(), 4);
        assert_eq!(Arch::RaidX.name(), "RAID-x");
    }
}
