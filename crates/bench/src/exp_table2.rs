//! Table 2: expected peak performance of the four RAID architectures,
//! from the analytic model, evaluated both symbolically (units of B/R/W)
//! and with Trojans-calibrated constants; the fault-coverage row is read
//! off the layouts themselves.

use raidx_core::{layout_for, Arch, PeakModel};
use sim_disk::spec::{avg_random_access, effective_bandwidth};

use crate::harness::md_table;

/// Render Table 2 for `n` disks.
pub fn render(n: u64) -> String {
    let unit = PeakModel::unit(n);
    // Calibrated: per-disk effective bandwidth for 32 KB random blocks.
    let bs = 32u64 << 10;
    let cal = PeakModel {
        n,
        disk_bw: effective_bandwidth(bs) / 1e6,
        read_time: avg_random_access(bs).as_secs_f64(),
        write_time: avg_random_access(bs).as_secs_f64(),
    };
    let m = 1024; // blocks per file for the parallel-time rows

    let mut out = format!(
        "\n### Table 2: expected peak performance, n = {n} disks \
         (symbolic: units of B; calibrated: MB/s with 32 KB blocks on the \
         1999 SCSI disk model, B = {:.2} MB/s)\n\n",
        cal.disk_bw
    );
    let headers = ["Indicator", "RAID-5", "Chained decl.", "RAID-10", "RAID-x"];
    let row = |name: &str, f: &dyn Fn(Arch) -> String| -> Vec<String> {
        let mut r = vec![name.to_string()];
        r.extend(Arch::ALL.iter().map(|&a| f(a)));
        r
    };
    let rows = vec![
        row("Max read bandwidth (xB)", &|a| format!("{:.1}", unit.max_read_bw(a))),
        row("Max large-write bandwidth (xB)", &|a| format!("{:.1}", unit.max_large_write_bw(a))),
        row("Max small-write bandwidth (xB)", &|a| format!("{:.1}", unit.max_small_write_bw(a))),
        row("Calibrated read bw (MB/s)", &|a| format!("{:.1}", cal.max_read_bw(a))),
        row("Calibrated large-write bw (MB/s)", &|a| format!("{:.1}", cal.max_large_write_bw(a))),
        row("Calibrated small-write bw (MB/s)", &|a| format!("{:.1}", cal.max_small_write_bw(a))),
        row("Large read time (xR, m=1024)", &|a| format!("{:.1}", unit.large_read_time(a, m))),
        row("Small read time", &|a| format!("{:.1}R", unit.small_read_time(a))),
        row("Large write time (xW, m=1024)", &|a| format!("{:.1}", unit.large_write_time(a, m))),
        row("Small write time", &|a| match a {
            Arch::Raid5 => "R+W".to_string(),
            _ => "W".to_string(),
        }),
        // Read off the layout of a 1-D array of n disks; 2n blocks per
        // disk fit at least one RAID-x image group per half.
        row("Max fault coverage (disks)", &|a| {
            layout_for(a, n as usize, 1, 2 * n).max_fault_coverage().to_string()
        }),
    ];
    out.push_str(&md_table(&headers, &rows));
    out.push_str(&format!(
        "\nRAID-x vs chained declustering large-write improvement factor at \
         n = {n}: {:.3} (approaches 2 as n grows).\n",
        unit.large_write_time(Arch::Chained, m) / unit.large_write_time(Arch::RaidX, m)
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_all_rows() {
        let t = super::render(16);
        assert!(t.contains("Max fault coverage"));
        assert!(t.contains("RAID-x"));
        assert!(t.contains("improvement factor"));
        assert!(t.matches('\n').count() > 12);
    }
}
