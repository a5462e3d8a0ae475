//! End-to-end integration: the full stack (engine → cluster → CDD →
//! layout → file system → workload) exercised through the umbrella crate.

use cdd::{BlockStore, CddConfig, IoSystem};
use cfs::{Fs, InodeKind};
use checkpoint::{run_striped_checkpoint, verify_checkpoint, CheckpointConfig};
use cluster::ClusterConfig;
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::Engine;
use workloads::{run_andrew, AndrewConfig};

#[test]
fn andrew_runs_on_every_architecture() {
    for arch in Arch::ALL {
        let mut engine = Engine::new();
        let store =
            IoSystem::new(&mut engine, ClusterConfig::trojans(), arch, CddConfig::default());
        let (mut fs, _) = Fs::format(store, 2048, 0).unwrap();
        let cfg = AndrewConfig { clients: 4, dirs: 2, files_per_dir: 3, ..Default::default() };
        let r = run_andrew(&mut engine, &mut fs, &cfg).unwrap();
        assert!(r.total_secs() > 0.0, "{arch:?}");
        // The tree is complete and consistent afterwards.
        for c in 0..4 {
            let (entries, _) = fs.readdir(0, &format!("/c{c}/d0")).unwrap();
            // 3 sources + 1 object from the Make phase.
            assert_eq!(entries.len(), 4, "{arch:?} client {c}");
        }
    }
}

#[test]
fn andrew_runs_over_nfs() {
    let mut engine = Engine::new();
    let store = NfsSystem::new(&mut engine, ClusterConfig::trojans(), NfsConfig::default());
    let (mut fs, _) = Fs::format(store, 2048, 0).unwrap();
    let cfg = AndrewConfig { clients: 4, dirs: 2, files_per_dir: 3, ..Default::default() };
    let r = run_andrew(&mut engine, &mut fs, &cfg).unwrap();
    assert!(r.total_secs() > 0.0);
}

/// The array carries exactly the traffic the simulation charges for: over
/// RAID-x (whose writes read nothing) an Andrew run reads one block from
/// the functional plane per metadata-cache miss and per block of file
/// data, and nothing for a hit — the host cost the cache exists to save.
#[test]
fn andrew_reads_only_misses_and_file_data() {
    let mut engine = Engine::new();
    let store =
        IoSystem::new(&mut engine, ClusterConfig::trojans(), Arch::RaidX, CddConfig::default());
    let (mut fs, _) = Fs::format(store, 2048, 0).unwrap();
    let cfg = AndrewConfig { clients: 4, dirs: 2, files_per_dir: 3, ..Default::default() };
    let ((hits0, misses0), read0) = (fs.cache_stats(), fs.store_mut().plane_mut().bytes_read());
    run_andrew(&mut engine, &mut fs, &cfg).unwrap();
    let ((hits1, misses1), read1) = (fs.cache_stats(), fs.store_mut().plane_mut().bytes_read());
    assert!(hits1 - hits0 > misses1 - misses0, "the run is mostly hits");
    // ReadAll and Make each read every source file once.
    let mut data_blocks = 0;
    for c in 0..4 {
        for (d, f) in (0..2).flat_map(|d| (0..3).map(move |f| (d, f))) {
            data_blocks += 2 * fs.stat(0, &format!("/c{c}/d{d}/src{f}.c")).unwrap().0.blocks();
        }
    }
    let bs = fs.store().block_size();
    assert_eq!(read1 - read0, (misses1 - misses0 + data_blocks) * bs);
}

/// Disk failure in the middle of a filesystem workload: everything
/// written before the failure remains readable; rebuild restores
/// redundancy; a second failure elsewhere is then survivable.
#[test]
fn failure_during_fs_workload_and_double_rebuild() {
    let mut engine = Engine::new();
    let store =
        IoSystem::new(&mut engine, ClusterConfig::trojans(), Arch::RaidX, CddConfig::default());
    let (mut fs, _) = Fs::format(store, 1024, 0).unwrap();
    fs.mkdir(0, "/w").unwrap();
    let payloads: Vec<Vec<u8>> = (0..8)
        .map(|i| (0..50_000 + i * 1111).map(|j| ((i * 31 + j) % 256) as u8).collect())
        .collect();
    for (i, p) in payloads.iter().enumerate() {
        fs.write_file(i % 16, &format!("/w/f{i}"), p).unwrap();
    }

    fs.store_mut().fail_disk(4);
    for (i, p) in payloads.iter().enumerate() {
        let (got, _) = fs.read_file(2, &format!("/w/f{i}")).unwrap();
        assert_eq!(&got, p, "file {i} corrupted under failure");
    }
    assert_eq!(fs.store_mut().rebuild_disk(4, 4, None).unwrap().lost, None);

    fs.store_mut().fail_disk(11);
    for (i, p) in payloads.iter().enumerate() {
        let (got, _) = fs.read_file(3, &format!("/w/f{i}")).unwrap();
        assert_eq!(&got, p, "file {i} corrupted after second failure");
    }
    let (st, _) = fs.stat(0, "/w").unwrap();
    assert_eq!(st.kind, InodeKind::Dir);
}

/// Checkpoint, fail, restore, checkpoint again — state machine of a
/// long-running job with storage faults.
#[test]
fn checkpoint_failure_checkpoint_cycle() {
    let mut cc = ClusterConfig::trojans_4x3();
    cc.disk.capacity = 1 << 30;
    let mut engine = Engine::new();
    let mut array = IoSystem::new(&mut engine, cc, Arch::RaidX, CddConfig::default());
    let cfg = CheckpointConfig { processes: 8, stagger_width: 4, rounds: 1, ..Default::default() };
    run_striped_checkpoint(&mut engine, &mut array, &cfg).unwrap();

    array.fail_disk(2);
    for p in 0..8 {
        verify_checkpoint(&mut array, &cfg, p, 0).unwrap();
    }
    assert_eq!(array.rebuild_disk(2, 2, None).unwrap().lost, None);

    // Second round after recovery (round index 1 via a fresh config so
    // barrier ids do not collide with the first run's).
    let cfg2 = CheckpointConfig { processes: 8, stagger_width: 4, rounds: 1, ..cfg };
    let mut engine2 = Engine::new();
    let mut array2 = IoSystem::new(
        &mut engine2,
        {
            let mut cc = ClusterConfig::trojans_4x3();
            cc.disk.capacity = 1 << 30;
            cc
        },
        Arch::RaidX,
        CddConfig::default(),
    );
    run_striped_checkpoint(&mut engine2, &mut array2, &cfg2).unwrap();
    for p in 0..8 {
        verify_checkpoint(&mut array2, &cfg2, p, 0).unwrap();
    }
}

/// The same byte pattern round-trips across every architecture and both
/// store types under one generic function (the BlockStore abstraction).
#[test]
fn generic_store_roundtrip() {
    fn roundtrip(store: &mut dyn BlockStore) {
        let bs = store.block_size() as usize;
        let data: Vec<u8> = (0..3 * bs).map(|i| (i % 253) as u8).collect();
        store.write(1, 5, &data).unwrap();
        let (got, _) = store.read(2, 5, 3).unwrap();
        assert_eq!(got, data);
    }
    for arch in Arch::ALL {
        let mut engine = Engine::new();
        let mut s =
            IoSystem::new(&mut engine, ClusterConfig::trojans(), arch, CddConfig::default());
        roundtrip(&mut s);
    }
    let mut engine = Engine::new();
    let mut s = NfsSystem::new(&mut engine, ClusterConfig::trojans(), NfsConfig::default());
    roundtrip(&mut s);
}

/// Simulated time composes sensibly across sequential runs on one
/// engine: later workloads start where earlier ones ended.
#[test]
fn engine_time_is_monotone_across_runs() {
    let mut engine = Engine::new();
    let mut store =
        IoSystem::new(&mut engine, ClusterConfig::trojans(), Arch::Raid10, CddConfig::default());
    let bs = store.block_size() as usize;
    let p1 = store.write(0, 0, &vec![1u8; bs]).unwrap();
    engine.spawn_job("w1", p1);
    let r1 = engine.run().unwrap();
    let p2 = store.write(1, 1, &vec![2u8; bs]).unwrap();
    engine.spawn_job("w2", p2);
    let r2 = engine.run().unwrap();
    assert!(r2.end > r1.end);
}
