//! Minimal deterministic property-testing harness with counterexample
//! shrinking.
//!
//! A dependency-free stand-in for an external property-testing crate: test
//! cases are driven by the same [`SplitMix64`] generator the simulator uses,
//! seeded from the test name, so every run explores the same cases and a
//! failure report pinpoints the reproducing seed. Every raw draw a [`Gen`]
//! hands out is also recorded on a *tape*; when a case fails, the harness
//! replays the property against shrunk tapes (dropping draws, then lowering
//! their values) and prints the smallest still-failing tape next to the
//! original seed, replayable with [`run_tape`]. The same greedy minimizers
//! ([`shrink_list`], [`shrink_u64s`]) back the model checker's schedule
//! shrinking in [`crate::explore`].

use crate::rng::{fnv1a, SplitMix64};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Seed for the generator that continues a replay once a (shrunk) tape is
/// exhausted. Any fixed value works; replays must merely be deterministic.
const TAPE_CONTINUATION_SEED: u64 = 0x7A9E_5EED_0D15_C0DE;

/// Upper bound on oracle invocations per shrink call, so pathological
/// properties cannot stall a failing test indefinitely.
const SHRINK_BUDGET: usize = 2000;

/// Per-case random value source handed to the property closure.
///
/// Draws come from a seeded [`SplitMix64`] (or a replay tape) and every raw
/// value handed out is recorded, so a failing case can be minimized and
/// replayed exactly.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: SplitMix64,
    tape: Vec<u64>,
    pos: usize,
    record: Vec<u64>,
}

impl Gen {
    /// A generator for one case, from an explicit seed.
    pub fn new(seed: u64) -> Self {
        Gen { rng: SplitMix64::new(seed), tape: Vec::new(), pos: 0, record: Vec::new() }
    }

    /// A generator that replays `tape` verbatim, then continues from a
    /// fixed-seed stream if the property draws past the end. Used to replay
    /// (possibly shrunk) counterexamples.
    pub fn from_tape(tape: &[u64]) -> Self {
        Gen {
            rng: SplitMix64::new(TAPE_CONTINUATION_SEED),
            tape: tape.to_vec(),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// Every raw 64-bit value drawn so far, in order.
    pub fn recorded(&self) -> &[u64] {
        &self.record
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        let v = if self.pos < self.tape.len() {
            let v = self.tape[self.pos];
            self.pos += 1;
            v
        } else {
            self.rng.next_u64()
        };
        self.record.push(v);
        v
    }

    /// Uniform in `[0, bound)` from one recorded draw (multiply-shift).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `u64` in `[range.start, range.end)`.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `u8` over its full domain.
    pub fn u8(&mut self) -> u8 {
        (self.u64() & 0xFF) as u8
    }

    /// Uniform `u16` over its full domain.
    pub fn u16(&mut self) -> u16 {
        (self.u64() & 0xFFFF) as u16
    }

    /// Coin flip.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Pick an index with the given relative weights (like a weighted
    /// one-of combinator). Returns the chosen index in `0..weights.len()`.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "all weights zero");
        let mut roll = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if roll < w {
                return i;
            }
            roll -= w;
        }
        weights.len() - 1
    }

    /// A vector of `len` items drawn by `f`, with `len` uniform in `range`.
    pub fn vec_of<T>(&mut self, range: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.usize_in(range);
        (0..len).map(|_| f(self)).collect()
    }
}

/// Greedily minimize `items` under the failure oracle `still_fails` by
/// deleting contiguous chunks (ddmin-style: halves first, then single
/// elements). The oracle must return `true` when the candidate still
/// reproduces the failure; the returned list is a subsequence of `items`
/// on which it does.
pub fn shrink_list<T: Clone>(items: &[T], mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur = items.to_vec();
    let mut budget = SHRINK_BUDGET;
    let mut chunk = (cur.len() / 2).max(1);
    while !cur.is_empty() && budget > 0 {
        let mut improved = false;
        let mut i = 0;
        while i + chunk <= cur.len() && budget > 0 {
            let mut cand = Vec::with_capacity(cur.len() - chunk);
            cand.extend_from_slice(&cur[..i]);
            cand.extend_from_slice(&cur[i + chunk..]);
            budget -= 1;
            if still_fails(&cand) {
                cur = cand;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    cur
}

/// Minimize the *values* of `items` element-wise under `still_fails`:
/// each element is tried at zero, then binary-searched down to the
/// smallest still-failing value. Run after [`shrink_list`] has removed
/// whole elements.
pub fn shrink_u64s(items: &[u64], mut still_fails: impl FnMut(&[u64]) -> bool) -> Vec<u64> {
    let mut cur = items.to_vec();
    let mut budget = SHRINK_BUDGET;
    for i in 0..cur.len() {
        if budget == 0 || cur[i] == 0 {
            continue;
        }
        let mut cand = cur.clone();
        cand[i] = 0;
        budget -= 1;
        if still_fails(&cand) {
            cur = cand;
            continue;
        }
        // 0 passes and cur[i] fails: binary-search the boundary. For a
        // non-monotone oracle this is still sound (the result fails), just
        // not necessarily globally minimal.
        let (mut lo, mut hi) = (0u64, cur[i]);
        while hi - lo > 1 && budget > 0 {
            let mid = lo + (hi - lo) / 2;
            let mut cand = cur.clone();
            cand[i] = mid;
            budget -= 1;
            if still_fails(&cand) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        cur[i] = hi;
    }
    cur
}

/// Minimize a failing draw tape: drop draws first, then lower the
/// surviving values. The result still fails `still_fails`.
pub fn shrink_tape(tape: &[u64], mut still_fails: impl FnMut(&[u64]) -> bool) -> Vec<u64> {
    let cur = shrink_list(tape, &mut still_fails);
    shrink_u64s(&cur, still_fails)
}

fn format_tape(tape: &[u64]) -> String {
    let body = tape.iter().map(|v| format!("{v:#x}")).collect::<Vec<_>>().join(", ");
    format!("&[{body}]")
}

/// Run `cases` instances of the property `f`, each with an independent
/// deterministic generator. On failure the harness shrinks the recorded
/// draw tape to a minimal still-failing counterexample (replayable with
/// [`run_tape`]), prints both it and the reproducing seed, and re-raises
/// the original panic. Properties should be self-contained: the closure is
/// re-invoked many times during shrinking.
pub fn run_cases(name: &str, cases: u64, mut f: impl FnMut(&mut Gen)) {
    // A stable, platform-independent base seed.
    let base = fnv1a([name]);
    for case in 0..cases {
        let seed = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut g = Gen::new(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&mut g))) {
            let original = g.recorded().to_vec();
            // Silence the panic hook while the shrinker replays the
            // property, so hundreds of intermediate panics don't spam the
            // captured test output.
            let prev_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let minimized = shrink_tape(&original, |t| {
                let mut rg = Gen::from_tape(t);
                catch_unwind(AssertUnwindSafe(|| f(&mut rg))).is_err()
            });
            std::panic::set_hook(prev_hook);
            eprintln!(
                "property `{name}` failed at case {case}/{cases} \
                 (replay: run_seed({name:?}, {seed:#x}))"
            );
            eprintln!(
                "  minimized counterexample: {} draws (from {}); \
                 replay: run_tape({name:?}, {})",
                minimized.len(),
                original.len(),
                format_tape(&minimized)
            );
            resume_unwind(payload);
        }
    }
}

/// Replay a single failing case of a property by seed.
pub fn run_seed(_name: &str, seed: u64, mut f: impl FnMut(&mut Gen)) {
    let mut g = Gen::new(seed);
    f(&mut g);
}

/// Replay a property against an explicit draw tape (as printed by a shrunk
/// failure report). Draws beyond the tape continue from a fixed stream.
pub fn run_tape(_name: &str, tape: &[u64], mut f: impl FnMut(&mut Gen)) {
    let mut g = Gen::from_tape(tape);
    f(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut a = Vec::new();
        run_cases("det", 5, |g| a.push(g.u64()));
        let mut b = Vec::new();
        run_cases("det", 5, |g| b.push(g.u64()));
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_respected() {
        run_cases("ranges", 50, |g| {
            assert!((3..9).contains(&g.usize_in(3..9)));
            assert!((100..200).contains(&g.u64_in(100..200)));
        });
    }

    #[test]
    fn weighted_hits_every_arm() {
        let mut seen = [false; 3];
        run_cases("weighted", 200, |g| {
            seen[g.weighted(&[4, 2, 1])] = true;
        });
        assert!(seen.iter().all(|&s| s), "arms hit: {seen:?}");
    }

    #[test]
    fn failure_reports_case() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_cases("always-fails", 3, |_| panic!("boom"));
        }));
        assert!(err.is_err());
    }

    #[test]
    fn vec_of_lengths_in_range() {
        run_cases("vec-of", 40, |g| {
            let v = g.vec_of(1..7, Gen::u8);
            assert!((1..7).contains(&v.len()));
        });
    }

    #[test]
    fn tape_replays_recorded_draws_exactly() {
        let mut g = Gen::new(0xABCD);
        let vals: Vec<u64> = (0..8).map(|_| g.u64_in(0..1000)).collect();
        let mut r = Gen::from_tape(g.recorded());
        let replayed: Vec<u64> = (0..8).map(|_| r.u64_in(0..1000)).collect();
        assert_eq!(vals, replayed);
    }

    #[test]
    fn exhausted_tape_continues_deterministically() {
        let mut a = Gen::from_tape(&[1, 2]);
        let mut b = Gen::from_tape(&[1, 2]);
        for _ in 0..10 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn shrink_list_finds_minimal_subset() {
        let items: Vec<u64> = (0..20).collect();
        let min = shrink_list(&items, |c| c.contains(&3) && c.contains(&17));
        assert_eq!(min, vec![3, 17]);
    }

    #[test]
    fn shrink_u64s_lowers_values() {
        let min = shrink_u64s(&[1000, 77], |c| c[0] >= 5);
        assert_eq!(min[0], 5);
        assert_eq!(min[1], 0);
    }

    #[test]
    fn shrink_tape_minimizes_failing_property() {
        // Fails whenever any draw maps into the top half of 0..100. The
        // minimal tape is a single draw, as small as possible while still
        // mapping to >= 50.
        let fails = |t: &[u64]| {
            let mut g = Gen::from_tape(t);
            (0..t.len()).any(|_| g.u64_in(0..100) >= 50)
        };
        let noisy: Vec<u64> = (0..12).map(|i| u64::MAX - i * 1000).collect();
        let min = shrink_tape(&noisy, fails);
        assert_eq!(min.len(), 1, "{min:?}");
        let mut g = Gen::from_tape(&min);
        assert_eq!(g.u64_in(0..100), 50, "not fully lowered: {min:#x?}");
    }

    #[test]
    fn run_tape_reproduces_failure() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_tape("tape", &[u64::MAX], |g| assert!(g.u64_in(0..10) < 9));
        }));
        assert!(err.is_err());
    }

    #[test]
    fn run_cases_still_panics_after_shrinking() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_cases("shrinks", 5, |g| {
                let v = g.u64_in(0..1 << 20);
                assert!(v < 1 << 19, "drew {v}");
            });
        }));
        assert!(err.is_err());
    }
}
