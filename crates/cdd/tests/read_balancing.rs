//! Tests of the replica read-balancing policies (the paper's announced
//! "I/O load balancing" follow-up, implemented in the CDD client module).

use cdd::{CddConfig, IoSystem, ReadBalance};
use raidx_core::Arch;
use sim_core::Engine;

fn setup(policy: ReadBalance, arch: Arch) -> (Engine, IoSystem) {
    let cfg = CddConfig { read_balance: policy, ..CddConfig::default() };
    let (e, mut s) = cdd::testkit::shape_with(4, 1, 64 << 20, arch, cfg);
    // Seed data across many stripes.
    let bs = s.block_size() as usize;
    let data: Vec<u8> = (0..64 * bs).map(|i| (i % 251) as u8).collect();
    s.write(0, 0, &data).expect("seed write failed");
    (e, s)
}

fn disk_read_bytes(e: &Engine, s: &IoSystem) -> Vec<u64> {
    s.cluster().disks.iter().map(|d| e.resource_stats(d.res).bytes).collect()
}

#[test]
fn primary_only_leaves_mirrors_idle() {
    let (mut e, mut s) = setup(ReadBalance::PrimaryOnly, Arch::Raid10);
    // RAID-10 on 4 disks: primaries are disks 0 and 2, mirrors 1 and 3.
    for burst in 0..4 {
        let (_, p) = s.read(1, burst * 16, 16).unwrap();
        e.spawn_job("r", p);
    }
    e.run().unwrap();
    // The seeding write plans were never spawned, so the disk counters
    // reflect read traffic only.
    let bytes = disk_read_bytes(&e, &s);
    assert!(bytes[0] > 0 && bytes[2] > 0, "primaries unused: {bytes:?}");
    assert_eq!(bytes[1], 0, "mirror 1 served reads: {bytes:?}");
    assert_eq!(bytes[3], 0, "mirror 3 served reads: {bytes:?}");
}

#[test]
fn least_loaded_spreads_over_both_copies() {
    let (mut e, mut s) = setup(ReadBalance::LeastLoaded, Arch::Raid10);
    for burst in 0..8 {
        let (_, p) = s.read(1, (burst % 4) * 16, 16).unwrap();
        e.spawn_job("r", p);
    }
    e.run().unwrap();
    let bytes = disk_read_bytes(&e, &s);
    // Both the primary and the mirror of each pair served read traffic.
    assert!(bytes.iter().all(|&b| b > 0), "a copy sat idle under LeastLoaded: {bytes:?}");
    // And the split is balanced: no copy does more than 65% of its pair.
    for pair in [(0, 1), (2, 3)] {
        let total = bytes[pair.0] + bytes[pair.1];
        assert!(bytes[pair.0] as f64 <= 0.65 * total as f64, "{bytes:?}");
        assert!(bytes[pair.1] as f64 <= 0.65 * total as f64, "{bytes:?}");
    }
}

#[test]
fn balanced_reads_still_return_correct_bytes() {
    for policy in
        [ReadBalance::PrimaryOnly, ReadBalance::LayoutPreference, ReadBalance::LeastLoaded]
    {
        for arch in [Arch::Raid10, Arch::Chained, Arch::RaidX] {
            let (_e, mut s) = setup(policy, arch);
            let bs = s.block_size() as usize;
            let want: Vec<u8> = (0..64 * bs).map(|i| (i % 251) as u8).collect();
            let (got, _) = s.read(2, 0, 64).unwrap();
            assert_eq!(got, want, "{policy:?}/{arch:?} corrupted reads");
        }
    }
}

#[test]
fn least_loaded_respects_failures() {
    let (_e, mut s) = setup(ReadBalance::LeastLoaded, Arch::Chained);
    let dead = s.layout().locate_images(0)[0].disk;
    s.fail_disk(dead);
    // All reads must still succeed and be correct with the mirror gone.
    let bs = s.block_size() as usize;
    let want: Vec<u8> = (0..64 * bs).map(|i| (i % 251) as u8).collect();
    let (got, _) = s.read(1, 0, 64).unwrap();
    assert_eq!(got, want);
}

#[test]
fn least_loaded_counters_alternate_copies() {
    // Direct check of the dispatch decision: repeated identical reads
    // alternate between the two copies as the counters leapfrog.
    let (mut e, mut s) = setup(ReadBalance::LeastLoaded, Arch::Raid10);
    let mut plans = Vec::new();
    for _ in 0..6 {
        let (_, p) = s.read(1, 0, 4).unwrap();
        plans.push(p);
    }
    for p in plans {
        e.spawn_job("r", p);
    }
    e.run().unwrap();
    let bytes = disk_read_bytes(&e, &s);
    // lbs 0..4 span both pairs; repeated reads must alternate copies, so
    // both disks of pair (0,1) serve traffic.
    assert!(bytes[0] > 0 && bytes[1] > 0, "no alternation: {bytes:?}");
}
