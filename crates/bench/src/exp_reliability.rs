//! Reliability analysis: probability of surviving `f` simultaneous random
//! disk failures — the expected-case companion to Table 2's best-case
//! fault-coverage row. Exact enumeration (no sampling noise).

use raidx_core::{survival_probability, ChainedDecluster, Layout, Raid10, Raid5, RaidX};

use crate::harness::md_table;

/// Render survival probabilities for 16-disk arrays, f = 1..4, including
/// the RAID-x shape family (more rows ⇒ more survivable multi-failures).
pub fn render() -> String {
    let bpd = 131_072;
    let layouts: Vec<(String, Box<dyn Layout>)> = vec![
        ("RAID-5 (16)".into(), Box::new(Raid5::new(16, bpd))),
        ("RAID-10 (16)".into(), Box::new(Raid10::new(16, bpd))),
        ("Chained (16)".into(), Box::new(ChainedDecluster::new(16, bpd))),
        ("RAID-x 16x1".into(), Box::new(RaidX::new(16, 1, bpd))),
        ("RAID-x 8x2".into(), Box::new(RaidX::new(8, 2, bpd))),
        ("RAID-x 4x4".into(), Box::new(RaidX::new(4, 4, bpd))),
    ];
    let mut out = String::from(
        "\n### Reliability: probability that f simultaneous random disk \
         failures lose no data (16 disks)\n\n",
    );
    let headers = ["Layout", "f=1", "f=2", "f=3", "f=4"];
    let rows: Vec<Vec<String>> = layouts
        .iter()
        .map(|(name, l)| {
            let mut row = vec![name.clone()];
            for f in 1..=4usize {
                row.push(format!("{:.3}", survival_probability(l.as_ref(), f)));
            }
            row
        })
        .collect();
    out.push_str(&md_table(&headers, &rows));
    out.push_str(
        "\nThe n×k trade-off in numbers: narrowing the stripe (16x1 -> 4x4) \
         confines each mirroring group to a smaller row, so random \
         multi-failures are likelier to land in distinct rows and survive — \
         at the bandwidth cost the shape ablation shows. Chained \
         declustering's ring survives best (only adjacent pairs are fatal); \
         RAID-5 dies at any second failure.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_ordered_probabilities() {
        let t = super::render();
        assert!(t.contains("RAID-x 4x4"));
        assert!(t.contains("f=4"));
        // RAID-5 at f=2 must be 0.
        let raid5_row = t.lines().find(|l| l.contains("RAID-5")).unwrap();
        assert!(raid5_row.contains("0.000"));
    }
}
