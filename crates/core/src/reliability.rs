//! Reliability analysis: survival probabilities under multiple random
//! disk failures.
//!
//! Table 2's "max fault coverage" row reports the *best case* (how many
//! failures can be survived when they land favourably). Operators care
//! about the expected case: the probability that `f` simultaneous random
//! failures lose no data, computed exactly by enumerating every fault
//! set (the 16-disk, f ≤ 4 sweep of `exp reliability` is C(16,4) = 1,820
//! sets at most).

use crate::layout::Layout;
use crate::types::FaultSet;

/// Probability that a uniformly random set of `f` distinct failed disks
/// is survivable, by enumerating every `f`-subset of the disks.
pub fn survival_probability(layout: &dyn Layout, f: usize) -> f64 {
    let n = layout.ndisks();
    if f == 0 {
        return 1.0;
    }
    if f > n {
        return 0.0;
    }
    let mut picked = vec![0usize; f];
    let mut survived = 0u64;
    let mut total = 0u64;
    enumerate_subsets(n, f, 0, 0, &mut picked, &mut |subset| {
        total += 1;
        if layout.tolerates(&FaultSet::of(subset)) {
            survived += 1;
        }
    });
    survived as f64 / total as f64
}

fn enumerate_subsets(
    n: usize,
    f: usize,
    depth: usize,
    start: usize,
    picked: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if depth == f {
        visit(picked);
        return;
    }
    for d in start..=n - (f - depth) {
        picked[depth] = d;
        enumerate_subsets(n, f, depth + 1, d + 1, picked, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChainedDecluster, Raid10, Raid5, RaidX};

    #[test]
    fn single_failure_always_survivable_on_redundant_layouts() {
        let n = 16;
        assert_eq!(survival_probability(&Raid5::new(n, 100), 1), 1.0);
        assert_eq!(survival_probability(&Raid10::new(n, 100), 1), 1.0);
        assert_eq!(survival_probability(&ChainedDecluster::new(n, 100), 1), 1.0);
        assert_eq!(survival_probability(&RaidX::new(16, 1, 131_072), 1), 1.0);
    }

    #[test]
    fn raid5_double_failure_always_fatal() {
        assert_eq!(survival_probability(&Raid5::new(8, 100), 2), 0.0);
    }

    #[test]
    fn raid10_double_failure_matches_combinatorics() {
        // 8 disks, 4 pairs: P(two failures hit one pair) = 4 / C(8,2) = 4/28.
        let p = survival_probability(&Raid10::new(8, 100), 2);
        assert!((p - 24.0 / 28.0).abs() < 1e-12, "p={p}");
    }

    #[test]
    fn chained_double_failure_matches_ring_adjacency() {
        // n-disk ring: fatal pairs are the n adjacent ones out of C(n,2).
        let n = 10;
        let p = survival_probability(&ChainedDecluster::new(n, 100), 2);
        let expect = 1.0 - n as f64 / (n as f64 * (n as f64 - 1.0) / 2.0);
        assert!((p - expect).abs() < 1e-12, "p={p} expect={expect}");
    }

    #[test]
    fn raidx_nxk_double_failure_matches_row_combinatorics() {
        // 4x3: fatal iff both failures share a row of 4: 3*C(4,2)=18 of C(12,2)=66.
        let p = survival_probability(&RaidX::new(4, 3, 240), 2);
        let expect = 1.0 - 18.0 / 66.0;
        assert!((p - expect).abs() < 1e-12, "p={p} expect={expect}");
    }

    #[test]
    fn survival_decreases_with_failures() {
        let l = RaidX::new(4, 3, 240);
        let mut prev = 1.0;
        for f in 1..=4 {
            let p = survival_probability(&l, f);
            assert!(p <= prev + 1e-12, "f={f}: {p} > {prev}");
            prev = p;
        }
        // Four failures over three rows always share a row: fatal.
        assert_eq!(prev, 0.0);
    }

    #[test]
    fn edge_cases() {
        let l = Raid5::new(4, 100);
        assert_eq!(survival_probability(&l, 0), 1.0);
        assert_eq!(survival_probability(&l, 5), 0.0);
    }
}
