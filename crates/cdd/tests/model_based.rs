//! Model-based property testing of the single I/O space: random
//! sequences of writes, reads (from two clients), permanent disk failures
//! and rebuilds, transient outages and resyncs are applied both to the
//! real system and to a trivial in-memory reference model; every read
//! must agree byte-for-byte as long as the failure pattern is one the
//! layout tolerates. Each architecture runs the same scenarios twice:
//! uncached, and behind a four-block client cache whose entries are the
//! plane's own block handles — a handle that outlived the overwrite
//! invalidating it would read back a stale tag.

use cdd::{CacheConfig, CddConfig, IoSystem};
use raidx_core::Arch;
use sim_core::check::{run_cases, Gen};

#[derive(Debug, Clone)]
enum Op {
    /// Write `nblocks` tagged blocks at a position derived from `pos`.
    Write { pos: u64, nblocks: u64, tag: u8 },
    /// Read `nblocks` at a position derived from `pos`, as `client`.
    Read { client: usize, pos: u64, nblocks: u64 },
    /// Fail the disk derived from `pick` (skipped if it would exceed the
    /// layout's tolerance).
    Fail { pick: usize },
    /// Rebuild the lowest-numbered failed disk, if any.
    Rebuild,
    /// Take the disk derived from `pick` transiently offline (skipped if
    /// it would exceed the layout's tolerance).
    Transient { pick: usize },
    /// Bring the lowest-numbered offline disk back, resyncing the copies
    /// degraded writes parked against it.
    Recover,
}

/// Three positions in four fall in a handful of hot blocks, so ranges are
/// re-read (cache hits) and overwritten while cached (invalidations).
fn draw_pos(g: &mut Gen) -> u64 {
    match g.weighted(&[3, 1]) {
        0 => g.u64_in(0..6),
        _ => g.u64_in(0..10_000),
    }
}

fn draw_op(g: &mut Gen) -> Op {
    match g.weighted(&[4, 4, 1, 1, 1, 1]) {
        0 => Op::Write { pos: draw_pos(g), nblocks: g.u64_in(1..8), tag: g.u8() },
        1 => Op::Read { client: g.usize_in(1..3), pos: draw_pos(g), nblocks: g.u64_in(1..8) },
        2 => Op::Fail { pick: g.usize_in(0..64) },
        3 => Op::Rebuild,
        4 => Op::Transient { pick: g.usize_in(0..64) },
        _ => Op::Recover,
    }
}

/// Reference model: one tag byte per logical block (0 = never written).
struct Model {
    tags: Vec<u8>,
}

impl Model {
    fn new(cap: u64) -> Self {
        Model { tags: vec![0; cap as usize] }
    }
}

/// Runs `ops` and returns how many blocks the client caches served.
fn run_scenario(arch: Arch, cache: Option<CacheConfig>, ops: Vec<Op>) -> u64 {
    // Tiny disks keep the plane small.
    let cfg = CddConfig { cache, ..CddConfig::default() };
    let (_engine, mut sys) = cdd::testkit::shape_with(4, 2, 8 << 20, arch, cfg);
    let bs = sys.block_size() as usize;
    let cap = sys.capacity_blocks();
    let mut model = Model::new(cap);
    // `disk` may go out (either way) if it is in and the layout tolerates
    // losing it on top of everything already out.
    let may_lose = |sys: &IoSystem, disk: usize| {
        let mut out = sys.storage_faults();
        !out.contains(disk) && {
            out.insert(disk);
            sys.layout().tolerates(&out)
        }
    };

    for op in ops {
        match op {
            Op::Write { pos, nblocks, tag } => {
                let lb0 = pos % (cap - nblocks);
                let data: Vec<u8> = (0..nblocks as usize)
                    .flat_map(|i| vec![tag.wrapping_add(i as u8); bs])
                    .collect();
                sys.write(0, lb0, &data)
                    .unwrap_or_else(|e| panic!("write failed under tolerated faults: {e}"));
                for i in 0..nblocks {
                    model.tags[(lb0 + i) as usize] = tag.wrapping_add(i as u8);
                }
            }
            Op::Read { client, pos, nblocks } => {
                let lb0 = pos % (cap - nblocks);
                let (got, _) = sys
                    .read(client, lb0, nblocks)
                    .unwrap_or_else(|e| panic!("read failed under tolerated faults: {e}"));
                for i in 0..nblocks as usize {
                    let want = model.tags[lb0 as usize + i];
                    let block = &got[i * bs..(i + 1) * bs];
                    assert!(
                        block.iter().all(|&b| b == want),
                        "{arch:?}: client {client} block {} read tag {} want {want} \
                         (failed: {:?}, offline: {:?})",
                        lb0 + i as u64,
                        block[0],
                        sys.faults().iter().collect::<Vec<_>>(),
                        sys.offline_disks().iter().collect::<Vec<_>>()
                    );
                }
            }
            Op::Fail { pick } => {
                let disk = pick % sys.layout().ndisks();
                if may_lose(&sys, disk) {
                    sys.fail_disk(disk);
                }
            }
            Op::Rebuild => {
                let first = sys.faults().iter().next();
                if let Some(disk) = first {
                    sys.rebuild_disk(0, disk).expect("rebuild of tolerated failure");
                }
            }
            Op::Transient { pick } => {
                let disk = pick % sys.layout().ndisks();
                if may_lose(&sys, disk) {
                    sys.fail_disk_transient(disk);
                }
            }
            Op::Recover => {
                let first = sys.offline_disks().iter().next();
                if let Some(disk) = first {
                    sys.recover_disk_transient(0, disk).expect("resync of tolerated outage");
                }
            }
        }
    }
    // Final invariant: all surviving redundancy must be self-consistent.
    sys.scrub().unwrap_or_else(|e| panic!("{arch:?}: scrub failed after scenario: {e}"));
    sys.cache_stats().map_or(0, |s| s.hits)
}

fn agree_with_model(name: &str, arch: Arch) {
    for cache in [None, Some(CacheConfig { capacity_blocks: 4 })] {
        let mut hits = 0;
        run_cases(name, 24, |g| {
            let ops = g.vec_of(1..40, draw_op);
            hits += run_scenario(arch, cache, ops);
        });
        // A cached run that never hit says nothing about cached handles.
        assert_eq!(cache.is_some(), hits > 0, "{arch:?}: {hits} cache hits with {cache:?}");
    }
}

#[test]
fn raidx_agrees_with_model() {
    agree_with_model("raidx_agrees_with_model", Arch::RaidX);
}

#[test]
fn raid10_agrees_with_model() {
    agree_with_model("raid10_agrees_with_model", Arch::Raid10);
}

#[test]
fn chained_agrees_with_model() {
    agree_with_model("chained_agrees_with_model", Arch::Chained);
}

#[test]
fn raid5_agrees_with_model() {
    agree_with_model("raid5_agrees_with_model", Arch::Raid5);
}
