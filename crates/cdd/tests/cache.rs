//! Edge cases of the client-side block cache against the full
//! [`cdd::IoSystem`]: zero capacity, single-block capacity, cross-client
//! invalidation, eviction correctness under a read-only workload, the
//! remove→re-add retargeting flush and the crash/partition flush. The
//! happy paths and the transparency property live in `raidx-verify`'s
//! model test and `workloads::zipf`; these are the corners.

use cdd::{CacheConfig, CddConfig, IoSystem};
use raidx_core::Arch;
use sim_core::Engine;

fn cached_shape(capacity_blocks: usize) -> (Engine, IoSystem) {
    let cfg = CddConfig { cache: Some(CacheConfig { capacity_blocks }), ..CddConfig::default() };
    cdd::testkit::shape_with(4, 1, 8 << 20, Arch::RaidX, cfg)
}

/// Seed `[0, span)` with a per-block tag and return the expected byte of
/// each block.
fn seed_region(sys: &mut IoSystem, span: u64) -> Vec<u8> {
    let bs = sys.block_size() as usize;
    let mut model = Vec::new();
    for lb in 0..span {
        let tag = 0x40 ^ lb as u8;
        sys.write(0, lb, &vec![tag; bs]).expect("seed write");
        model.push(tag);
    }
    model
}

fn assert_block(sys: &mut IoSystem, client: usize, lb: u64, want: u8) {
    let bs = sys.block_size() as usize;
    let (got, _) = sys.read(client, lb, 1).expect("read");
    assert_eq!(got, vec![want; bs], "block {lb} read by client {client}");
}

/// A zero-capacity cache is legal: every lookup misses, every fill is
/// dropped on the floor, and reads stay byte-correct throughout.
#[test]
fn zero_capacity_cache_is_correct_and_never_stores() {
    let (_engine, mut sys) = cached_shape(0);
    assert!(sys.cache_stats().is_some());
    let model = seed_region(&mut sys, 8);
    for pass in 0..2 {
        for (lb, &want) in model.iter().enumerate() {
            let _ = pass;
            assert_block(&mut sys, 1, lb as u64, want);
        }
    }
    let stats = sys.cache_stats().expect("stats");
    assert_eq!(stats.hits, 0, "nothing can ever be cached at capacity 0");
    assert!(stats.misses >= 16);
    assert_eq!(stats.evictions, 0, "nothing stored means nothing evicted");
    assert_eq!(sys.cached_blocks(1), 0);
}

/// A single-block cache caches exactly one block: re-reading it hits,
/// touching any other block evicts it, and every answer stays correct.
#[test]
fn single_block_cache_hits_on_repeats_and_evicts_on_conflict() {
    let (_engine, mut sys) = cached_shape(1);
    let model = seed_region(&mut sys, 2);
    assert_block(&mut sys, 1, 0, model[0]); // miss + fill
    assert_block(&mut sys, 1, 0, model[0]); // hit
    let stats = sys.cache_stats().expect("stats");
    assert_eq!((stats.hits, stats.evictions), (1, 0));
    assert_block(&mut sys, 1, 1, model[1]); // miss: evicts block 0
    assert_block(&mut sys, 1, 0, model[0]); // miss again: 0 was evicted
    let stats = sys.cache_stats().expect("stats");
    assert_eq!(stats.hits, 1, "block 0 must not have survived the conflict");
    assert_eq!(stats.evictions, 2);
    assert_eq!(sys.cached_blocks(1), 1);
}

/// The write-grant invalidation reaches every other client's cache: a
/// cached copy never outlives the write that supersedes it.
#[test]
fn a_write_invalidates_every_other_clients_cached_copy() {
    let (_engine, mut sys) = cached_shape(16);
    let bs = sys.block_size() as usize;
    seed_region(&mut sys, 1);
    assert_block(&mut sys, 1, 0, 0x40); // client 1 caches block 0
    assert_block(&mut sys, 3, 0, 0x40); // client 3 caches it too
    sys.write(2, 0, &vec![0x99; bs]).expect("superseding write");
    let stats = sys.cache_stats().expect("stats");
    assert_eq!(stats.invalidations, 2, "both cached copies must be purged");
    assert_block(&mut sys, 1, 0, 0x99);
    assert_block(&mut sys, 3, 0, 0x99);
}

/// Read-only workload over a region four times the cache: eviction churn
/// on every sweep, capacity never exceeded, every byte still correct.
#[test]
fn eviction_churn_under_a_read_only_workload_stays_correct() {
    const SPAN: u64 = 16;
    const CAPACITY: usize = 4;
    let (_engine, mut sys) = cached_shape(CAPACITY);
    let model = seed_region(&mut sys, SPAN);
    for sweep in 0..3 {
        for lb in 0..SPAN {
            // Vary the order a little so the LRU victim rotates.
            let lb = (lb + sweep) % SPAN;
            assert_block(&mut sys, 1, lb, model[lb as usize]);
            assert!(sys.cached_blocks(1) <= CAPACITY, "capacity must bound the cache");
        }
    }
    let stats = sys.cache_stats().expect("stats");
    assert!(stats.evictions > 0, "a 4-block cache over 16 blocks must churn");
    assert!(stats.hits + stats.misses == 3 * SPAN, "{stats:?}");
}

/// A disk remove→re-add retargets blocks to new homes. Both epoch bumps
/// flush every client's cache (a cached fill predates the new cluster
/// map), and reads during and after the drain
/// return the retargeted bytes, never the cached pre-migration copies.
#[test]
fn membership_epoch_bumps_flush_the_cache_and_reads_retarget() {
    const SPAN: u64 = 12;
    let (mut engine, mut sys) = cached_shape(32);
    let model = seed_region(&mut sys, SPAN);
    for lb in 0..SPAN {
        assert_block(&mut sys, 1, lb, model[lb as usize]);
    }
    assert_eq!(sys.cached_blocks(1), SPAN as usize);

    // Epoch transitions: register a spare, retire disk 1 onto it.
    sys.add_disk(&mut engine).expect("add spare");
    assert_eq!(sys.cached_blocks(1), 0, "the add's epoch bump must flush");
    sys.remove_disk(1).expect("remove disk 1");
    let stats = sys.cache_stats().expect("stats");
    assert!(stats.flushes >= 2, "both membership transitions flush: {stats:?}");

    // Mid-migration reads refill from the correct (old or new) home.
    for lb in 0..SPAN {
        assert_block(&mut sys, 1, lb, model[lb as usize]);
    }
    let out = sys.rebalance(0, None).expect("drain the migration");
    assert!(out.finished && out.lost.is_none());
    // Post-drain reads see the retargeted placement; cached copies from
    // before the drain are still byte-identical because invalidation
    // tracks logical blocks, not physical homes.
    for lb in 0..SPAN {
        assert_block(&mut sys, 2, lb, model[lb as usize]);
        assert_block(&mut sys, 1, lb, model[lb as usize]);
    }
    sys.scrub().expect("redundancy must hold after the migration");
}

/// A node that crashes or is cut off heard no invalidation while away, so
/// it loses its cache at once and comes back empty.
#[test]
fn a_crash_and_a_partition_empty_the_node_cache() {
    let (_engine, mut sys) = cached_shape(32);
    let model = seed_region(&mut sys, 4);
    for (node, crash) in [(1, true), (2, false)] {
        for lb in 0..4 {
            assert_block(&mut sys, node, lb, model[lb as usize]);
        }
        assert_eq!(sys.cached_blocks(node), 4);
        if crash {
            sys.crash_node(node);
        } else {
            sys.partition_node(node);
        }
        assert_eq!(sys.cached_blocks(node), 0, "node {node}, crash: {crash}");
    }
}
