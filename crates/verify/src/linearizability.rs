//! Wing–Gong linearizability checking of SIOS histories — the leaf
//! check [`crate::model_check`] runs on every explored schedule.
//!
//! The model checker records every completed group read/write with its
//! real-time invocation/response window ([`cdd::OpRecord`]). Each
//! schedule's history is checked against a **sequential block-store
//! specification**: there must exist a total order of the operations
//! that (a) respects real time — an operation that completed before
//! another was invoked stays before it — and (b) makes every group read
//! return exactly the store contents at its linearization point. A torn
//! read (a reader observing half of a group write) has no such order,
//! which is precisely the consistency the paper's lock-group protocol is
//! supposed to buy.
//!
//! The search is the classic Wing–Gong DFS over linearization prefixes,
//! memoized on `(remaining-ops mask, store state)` so equivalent
//! prefixes are explored once.

use cdd::{HistOp, OpRecord};
use std::collections::BTreeSet;

/// Check one history against the sequential block-store spec (`blocks`
/// cells, all initially zero). Returns the witness-free error if no
/// linearization exists.
pub fn check_history(blocks: u64, hist: &[OpRecord]) -> Result<(), String> {
    assert!(hist.len() < 64, "history too long for the mask encoding");
    let full: u64 = (1u64 << hist.len()) - 1;
    let store = vec![0u64; blocks as usize];
    let mut memo: BTreeSet<(u64, Vec<u64>)> = BTreeSet::new();
    if dfs(hist, full, &store, &mut memo) {
        Ok(())
    } else {
        let reads: Vec<String> = hist
            .iter()
            .filter_map(|r| match &r.op {
                HistOp::Read { start, vals } => {
                    Some(format!("client {} read [{start}..] = {vals:?}", r.client))
                }
                HistOp::Write { .. } => None,
            })
            .collect();
        Err(format!("no linearization of {} ops exists (reads: {})", hist.len(), reads.join("; ")))
    }
}

fn dfs(hist: &[OpRecord], mask: u64, store: &[u64], memo: &mut BTreeSet<(u64, Vec<u64>)>) -> bool {
    if mask == 0 {
        return true;
    }
    if !memo.insert((mask, store.to_vec())) {
        return false; // this configuration already failed
    }
    for i in 0..hist.len() {
        if (mask >> i) & 1 == 0 {
            continue;
        }
        // Real-time rule: i may linearize first among the remaining ops
        // only if no remaining j responded before i was invoked.
        let blocked =
            (0..hist.len()).any(|j| j != i && (mask >> j) & 1 == 1 && hist[j].resp < hist[i].inv);
        if blocked {
            continue;
        }
        match &hist[i].op {
            HistOp::Write { start, len, val } => {
                let mut next = store.to_vec();
                for lb in *start..*start + *len {
                    next[lb as usize] = *val;
                }
                if dfs(hist, mask & !(1 << i), &next, memo) {
                    return true;
                }
            }
            HistOp::Read { start, vals } => {
                let matches =
                    vals.iter().enumerate().all(|(k, v)| store[*start as usize + k] == *v);
                if matches && dfs(hist, mask & !(1 << i), store, memo) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(client: usize, inv: u64, resp: u64, start: u64, len: u64, val: u64) -> OpRecord {
        OpRecord { client, inv, resp, op: HistOp::Write { start, len, val } }
    }

    fn r(client: usize, inv: u64, resp: u64, start: u64, vals: Vec<u64>) -> OpRecord {
        OpRecord { client, inv, resp, op: HistOp::Read { start, vals } }
    }

    #[test]
    fn sequential_history_linearizes() {
        let hist = vec![w(0, 1, 2, 0, 2, 7), r(1, 3, 4, 0, vec![7, 7]), r(1, 5, 6, 0, vec![7, 7])];
        assert!(check_history(2, &hist).is_ok());
    }

    #[test]
    fn concurrent_read_may_see_old_or_new() {
        // Reader overlaps the write: both the pre- and post-state are
        // legal return values.
        for vals in [vec![0, 0], vec![7, 7]] {
            let hist = vec![w(0, 1, 10, 0, 2, 7), r(1, 2, 9, 0, vals)];
            assert!(check_history(2, &hist).is_ok());
        }
    }

    #[test]
    fn torn_read_is_rejected() {
        let hist = vec![w(0, 1, 10, 0, 2, 7), r(1, 2, 9, 0, vec![7, 0])];
        let err = check_history(2, &hist).expect_err("torn read accepted");
        assert!(err.contains("no linearization"), "{err}");
    }

    #[test]
    fn real_time_order_is_enforced() {
        // The write completed (resp 2) before the read was invoked
        // (inv 3): the read may not be moved before it.
        let hist = vec![w(0, 1, 2, 0, 2, 7), r(1, 3, 4, 0, vec![0, 0])];
        assert!(check_history(2, &hist).is_err());
        // But if they overlap, the stale read is fine.
        let hist = vec![w(0, 1, 4, 0, 2, 7), r(1, 3, 5, 0, vec![0, 0])];
        assert!(check_history(2, &hist).is_ok());
    }
}
