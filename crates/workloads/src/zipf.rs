//! Zipfian-skew read workload — the cache's measured regime.
//!
//! Client caching pays off exactly when the read popularity distribution
//! is skewed: a Zipf(s) stream concentrates most accesses on a few hot
//! blocks, so a small per-client cache absorbs them after one cold miss
//! each. [`run_zipf`] seeds a region, then drives a deterministic
//! Zipf-distributed single-block read stream (with interleaved writes
//! that exercise the write-grant invalidation path), verifying
//! every read byte-for-byte against a shadow model and timing the read
//! phase in simulated time. The same seed produces the same access
//! sequence whether or not the cache is enabled — which is what lets the
//! `cache-coherence` verify pass compare cached and uncached runs
//! byte-for-byte and report the measured speedup.

use cdd::{IoError, IoSystem};
use sim_core::check::Gen;
use sim_core::{Engine, SimDuration};

/// Issuing nodes (reads and interleaved writes pick one per draw).
const CLIENTS: usize = 4;
/// One write is interleaved per this many reads. Writes sample the same
/// Zipf distribution, so they hit hot — cached — blocks and exercise
/// invalidation where it matters.
const WRITE_EVERY: usize = 16;
/// The Zipf exponent: the classic s = 1.0.
const SKEW: f64 = 1.0;

/// Shape of a Zipf read workload.
#[derive(Debug, Clone)]
pub struct ZipfConfig {
    /// Size of the accessed region in logical blocks.
    pub region_blocks: u64,
    /// Reads in the measured phase.
    pub reads: usize,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        ZipfConfig { region_blocks: 256, reads: 4000 }
    }
}

/// What a Zipf run observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipfOutcome {
    /// Reads completed in the measured phase.
    pub reads: usize,
    /// Interleaved writes completed.
    pub writes: usize,
    /// Reads whose bytes diverged from the shadow model. Any nonzero
    /// value is a coherence bug — the workload never runs faulted.
    pub stale_reads: usize,
    /// Simulated time the measured read phase took (seed phase excluded).
    pub read_time: SimDuration,
}

/// Deterministic Zipf(1.0) rank sampler over `0..n` via inverse-CDF
/// binary search on the cumulative weights `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cum: Vec<f64>,
}

impl ZipfSampler {
    /// Build the sampler for `n` ranks.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "empty rank space");
        let mut cum = Vec::with_capacity(n as usize);
        let mut acc = 0.0_f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(SKEW);
            cum.push(acc);
        }
        ZipfSampler { cum }
    }

    /// Draw a rank in `0..n`; rank 0 is the hottest.
    pub fn sample(&self, g: &mut Gen) -> u64 {
        let total = *self.cum.last().expect("sampler is non-empty");
        // 53 uniform mantissa bits; the draw is strictly below `total`,
        // so `partition_point` always lands inside `0..n`.
        let u = g.u64_in(0..(1 << 53)) as f64 / (1u64 << 53) as f64 * total;
        self.cum.partition_point(|&c| c <= u) as u64
    }
}

/// Fisher–Yates rank→block permutation, so the hot ranks scatter across
/// the physical layout instead of clustering on the first disks.
fn rank_permutation(g: &mut Gen, n: u64) -> Vec<u64> {
    let mut p: Vec<u64> = (0..n).collect();
    for i in (1..p.len()).rev() {
        let j = g.usize_in(0..i + 1);
        p.swap(i, j);
    }
    p
}

/// The fill byte of logical block `lb` written under `tag`.
fn fill_byte(tag: u8, lb: u64) -> u8 {
    tag ^ (lb as u8)
}

/// Seed the region, then run the measured Zipf read phase. Every read is
/// verified against the shadow model as it completes; `read_time` is the
/// simulated duration of the measured phase only.
pub fn run_zipf(
    engine: &mut Engine,
    sys: &mut IoSystem,
    cfg: &ZipfConfig,
    seed: u64,
) -> Result<ZipfOutcome, IoError> {
    assert!(cfg.region_blocks > 0, "degenerate workload shape");
    let bs = sys.block_size() as usize;
    let mut g = Gen::new(seed);
    let sampler = ZipfSampler::new(cfg.region_blocks);
    let perm = rank_permutation(&mut g, cfg.region_blocks);

    // Seed phase: every block written once so reads have known bytes.
    let mut model: Vec<u8> = (0..cfg.region_blocks).map(|lb| fill_byte(1, lb)).collect();
    for lb in 0..cfg.region_blocks {
        let plan = sys.write(0, lb, &vec![model[lb as usize]; bs])?;
        engine.spawn_job(format!("zipf-seed/{lb}"), plan);
    }
    engine.run().expect("zipf seed phase deadlocked");

    let t0 = engine.now();
    let mut out = ZipfOutcome { reads: 0, writes: 0, stale_reads: 0, read_time: SimDuration(0) };
    let mut tag: u8 = 1;
    for i in 0..cfg.reads {
        if i % WRITE_EVERY == WRITE_EVERY - 1 {
            let lb = perm[sampler.sample(&mut g) as usize];
            let client = g.usize_in(0..CLIENTS);
            tag = tag.wrapping_add(2); // stays odd: never collides with the 0-fill of unwritten blocks
            let plan = sys.write(client, lb, &vec![fill_byte(tag, lb); bs])?;
            model[lb as usize] = fill_byte(tag, lb);
            engine.spawn_job(format!("zipf-w/{i}"), plan);
            out.writes += 1;
        }
        let client = g.usize_in(0..CLIENTS);
        let lb = perm[sampler.sample(&mut g) as usize];
        let (data, plan) = sys.read(client, lb, 1)?;
        engine.spawn_job(format!("zipf-r/{i}"), plan);
        if data.iter().any(|&x| x != model[lb as usize]) {
            out.stale_reads += 1;
        }
        out.reads += 1;
        engine.run().expect("zipf op deadlocked");
    }
    out.read_time = engine.now().since(t0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd::{CacheConfig, CddConfig};
    use raidx_core::Arch;

    #[test]
    fn sampler_is_deterministic_and_skewed() {
        let s = ZipfSampler::new(256);
        let draw = |seed| {
            let mut g = Gen::new(seed);
            (0..2000).map(|_| s.sample(&mut g)).collect::<Vec<u64>>()
        };
        assert_eq!(draw(3), draw(3), "same seed must give the same rank stream");
        let ranks = draw(3);
        assert!(ranks.iter().all(|&r| r < 256));
        let hot = ranks.iter().filter(|&&r| r < 26).count();
        // Zipf(1.0) over 256 ranks puts ~54% of the mass on the top 10%.
        assert!(hot * 2 > ranks.len(), "top-10% ranks drew only {hot}/{}", ranks.len());
    }

    #[test]
    fn cached_and_uncached_runs_agree_and_the_cache_pays() {
        let cfg = ZipfConfig { region_blocks: 64, reads: 400 };
        let run = |cache: Option<CacheConfig>| {
            let cdd_cfg = CddConfig { cache, ..CddConfig::default() };
            let (mut engine, mut sys) =
                cdd::testkit::shape_with(4, 1, 8 << 20, Arch::RaidX, cdd_cfg);
            let out = run_zipf(&mut engine, &mut sys, &cfg, 9).expect("zipf run");
            (out, sys.cache_stats())
        };
        let (plain, no_stats) = run(None);
        let (cached, stats) = run(Some(CacheConfig { capacity_blocks: 32 }));
        assert!(no_stats.is_none(), "uncached system must report no cache stats");
        assert_eq!(plain.stale_reads, 0);
        assert_eq!(cached.stale_reads, 0, "cache must never serve stale bytes");
        assert_eq!(plain.reads, cached.reads);
        assert_eq!(plain.writes, cached.writes);
        let stats = stats.expect("cached system exports stats");
        assert!(stats.hits > 0, "a skewed read stream must hit the cache");
        assert!(stats.invalidations > 0, "interleaved writes must invalidate");
        assert!(
            cached.read_time < plain.read_time,
            "cache hits must shorten the measured phase: {:?} vs {:?}",
            cached.read_time,
            plain.read_time
        );
    }
}
