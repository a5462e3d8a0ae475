//! `cache-coherence`: the client block cache's transparency and payoff
//! gate.
//!
//! The cache ([`cdd::cache`]) must be *invisible* to correctness and
//! *visible* to performance. Its protocol — a write invalidates its range
//! in every client's cache under its grant; an epoch bump, a partition or
//! a crash flushes — is unit-tested in [`cdd::cache`] and checked on the
//! real `IoSystem` by `cdd/tests/cache.rs`. The tests here keep what only
//! the real cache in full-size runs can show:
//!
//! 1. **Transparency** — the same random re-reading op script runs
//!    cached and uncached on every architecture, 8 seeds each; both runs must
//!    acknowledge the same writes and return byte-identical data for
//!    every read, and the cached run must have served hits.
//! 2. **Payoff** — the shared Zipfian read workload must clear a ≥50%
//!    hit rate at skew s = 1.0 and actually shorten the measured phase
//!    in simulated time, with zero stale reads.

use raidx_core::Arch;
use sim_core::check::Gen;
use workloads::op_script::{
    check_against_model, gen_script, run_script, with_rereads, ScriptOutcome,
};
use workloads::zipf::{run_zipf, ZipfConfig, ZipfOutcome};

use cdd::{CacheConfig, CacheStats, CddConfig};

/// Minimum acceptable hit rate (percent) of the gated Zipf scenario.
pub const MIN_HIT_RATE_PCT: u64 = 50;
/// Cache capacity of the gated Zipf scenario, in blocks (a quarter of
/// the region: the hit rate is earned by skew, not by fitting the
/// working set).
pub const ZIPF_CAPACITY: usize = 64;
/// Workload seed of the gated Zipf scenario.
pub const ZIPF_SEED: u64 = 0x0ca_c4ed;

/// The gated Zipf scenario's shape: 4 clients reading 256 blocks with
/// Zipf(1.0) skew, one invalidating write per 16 reads.
pub fn zipf_scenario_config() -> ZipfConfig {
    ZipfConfig { clients: 4, region_blocks: 256, reads: 4000, write_every: 16, skew_x100: 100 }
}

/// Run the shared Zipf scenario once, cached or uncached, returning the
/// workload outcome and (for cached runs) the cache counters.
pub fn zipf_cache_run(cached: bool) -> (ZipfOutcome, Option<CacheStats>) {
    let cache = cached.then_some(CacheConfig { capacity_blocks: ZIPF_CAPACITY });
    let cfg = CddConfig { cache, ..CddConfig::default() };
    let (mut engine, mut sys) = cdd::testkit::shape_with(4, 1, 32 << 20, Arch::RaidX, cfg);
    let out = run_zipf(&mut engine, &mut sys, &zipf_scenario_config(), ZIPF_SEED)
        .expect("zipf scenario must run fault-free");
    let stats = sys.cache_stats();
    (out, stats)
}

/// Deterministic work counters of the gated Zipf scenario: cached and
/// uncached runs of the same access stream, the hit rate, and the
/// simulated-time speedup the cache bought (×100, so 250 = 2.5×).
pub fn zipf_cache_work() -> Vec<(String, u64)> {
    let (cached, stats) = zipf_cache_run(true);
    let (plain, _) = zipf_cache_run(false);
    let stats = stats.expect("cached run exports stats");
    let hit_rate_pct = (stats.hits * 100).checked_div(stats.hits + stats.misses).unwrap_or(0);
    let speedup_x100 = (plain.read_time.0 * 100).checked_div(cached.read_time.0).unwrap_or(0);
    vec![
        ("reads".to_string(), cached.reads as u64),
        ("cache_hits".to_string(), stats.hits),
        ("cache_misses".to_string(), stats.misses),
        ("invalidations".to_string(), stats.invalidations),
        ("evictions".to_string(), stats.evictions),
        ("stale_reads".to_string(), cached.stale_reads as u64),
        ("hit_rate_pct".to_string(), hit_rate_pct),
        ("speedup_x100".to_string(), speedup_x100),
    ]
}

/// Run the same random re-reading op script cached and uncached on
/// `arch` and require identical outcomes: same acknowledged writes, zero
/// stale reads on both sides (every read byte-checked against the shared
/// shadow model), a byte-identical final region, and — when
/// `capacity_blocks` can hold the longest scripted run (4 blocks), so a
/// re-read is sure to find its range resident — at least one cache hit.
/// `Err` carries the divergence.
pub fn transparency_check(
    arch: Arch,
    seed: u64,
    nops: usize,
    capacity_blocks: usize,
) -> Result<(), String> {
    type RunResult = Result<(ScriptOutcome, Result<(), u64>, Option<CacheStats>), String>;
    let run = |cache: Option<CacheConfig>| -> RunResult {
        let cfg = CddConfig { cache, ..CddConfig::default() };
        let (mut engine, mut sys) = cdd::testkit::shape_with(4, 1, 8 << 20, arch, cfg);
        let ops = with_rereads(gen_script(&mut Gen::new(seed), 4, 64, nops));
        let out = run_script(&mut engine, &mut sys, &ops, None)
            .map_err(|e| format!("{arch:?} seed {seed}: script aborted: {e}"))?;
        let readback = check_against_model(&mut sys, 0, &out.model)
            .map_err(|e| format!("{arch:?} seed {seed}: read-back failed: {e}"))?;
        Ok((out, readback, sys.cache_stats()))
    };
    let (plain, plain_back, _) = run(None)?;
    let (cached, cached_back, stats) = run(Some(CacheConfig { capacity_blocks }))?;
    let ctx = format!("{arch:?} seed {seed} cap {capacity_blocks}");
    if plain.failed != 0 || cached.failed != 0 {
        return Err(format!("{ctx}: fault-free ops failed ({}/{})", plain.failed, cached.failed));
    }
    if cached.stale_reads != 0 || plain.stale_reads != 0 {
        return Err(format!(
            "{ctx}: stale reads (cached {}, uncached {})",
            cached.stale_reads, plain.stale_reads
        ));
    }
    if plain.model != cached.model {
        return Err(format!("{ctx}: acknowledged write sets diverge"));
    }
    if plain_back != Ok(()) || cached_back != Ok(()) {
        return Err(format!("{ctx}: final region diverges from the model"));
    }
    let stats = stats.ok_or_else(|| format!("{ctx}: cached system reports no stats"))?;
    if capacity_blocks >= 4 && stats.hits == 0 {
        return Err(format!("{ctx}: cache never served a read ({} misses)", stats.misses));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::check::run_cases;

    #[test]
    fn zipf_work_counters_are_deterministic_and_clear_the_gates() {
        let work = zipf_cache_work();
        assert_eq!(work, zipf_cache_work(), "zipf counters must be reproducible");
        let counter = |key: &str| work.iter().find(|(k, _)| k == key).map_or(0, |&(_, v)| v);
        assert_eq!(counter("stale_reads"), 0, "{work:?}");
        assert!(counter("hit_rate_pct") >= MIN_HIT_RATE_PCT, "{work:?}");
        assert!(counter("speedup_x100") > 100, "{work:?}");
        assert!(counter("invalidations") > 0, "{work:?}");
    }

    /// Satellite property: random op scripts, every architecture, ≥8
    /// seeds each, random cache capacities (down to 1 block, where a
    /// multi-block fill evicts itself) — the cached array must be
    /// byte-for-byte indistinguishable from the uncached one.
    #[test]
    fn cache_is_transparent_for_random_scripts_on_every_arch() {
        for arch in Arch::ALL {
            run_cases(&format!("cache-transparency-{arch:?}"), 8, |g| {
                let nops = g.usize_in(25..45);
                let capacity = [1, 4, 16, 64, 256][g.usize_in(0..5)];
                let seed = g.u64_in(0..u64::MAX);
                transparency_check(arch, seed, nops, capacity)
                    .unwrap_or_else(|e| panic!("transparency violated: {e}"));
            });
        }
    }
}
