//! Functional tests of the cluster file system over real block stores.

use cdd::{BlockStore, CddConfig, IoSystem, ReadBalance};
use cfs::{Fs, FsError, InodeKind};
use cluster::ClusterConfig;
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::Engine;

fn raidx_store() -> (Engine, IoSystem) {
    cdd::testkit::shape(4, 1, 64 << 20, Arch::RaidX)
}

fn make_fs() -> (Engine, Fs<IoSystem>) {
    let (e, s) = raidx_store();
    let (fs, _plan) = Fs::format(s, 512, 0).expect("format failed");
    (e, fs)
}

#[test]
fn format_and_stat_root() {
    let (_e, mut fs) = make_fs();
    let (root, _) = fs.stat(0, "/").unwrap();
    assert_eq!(root.kind, InodeKind::Dir);
}

#[test]
fn mkdir_create_readdir() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/src").unwrap();
    fs.mkdir(0, "/src/lib").unwrap();
    fs.create(0, "/src/main.rs").unwrap();
    fs.create(0, "/src/lib/util.rs").unwrap();
    let (entries, _) = fs.readdir(0, "/src").unwrap();
    let mut names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
    names.sort();
    assert_eq!(names, vec!["lib", "main.rs"]);
    let lib = entries.iter().find(|e| e.name == "lib").unwrap();
    assert_eq!(lib.kind, InodeKind::Dir);
}

#[test]
fn file_roundtrip_and_sizes() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/data").unwrap();
    // Sizes exercising zero, sub-block, exact-block and multi-block files.
    let bs = fs.store().block_size() as usize;
    for (i, size) in [0usize, 10, 1000, bs, bs + 1, 3 * bs + 17].into_iter().enumerate() {
        let path = format!("/data/f{i}");
        let data: Vec<u8> = (0..size).map(|j| ((i * 31 + j * 7) % 256) as u8).collect();
        fs.write_file(0, &path, &data).unwrap();
        let (got, _) = fs.read_file(0, &path).unwrap();
        assert_eq!(got, data, "size {size} corrupted");
        let (st, _) = fs.stat(0, &path).unwrap();
        assert_eq!(st.size, size as u64);
    }
}

#[test]
fn overwrite_replaces_content() {
    let (_e, mut fs) = make_fs();
    fs.write_file(0, "/f", b"first version, long enough to span").unwrap();
    fs.write_file(0, "/f", b"v2").unwrap();
    let (got, _) = fs.read_file(0, "/f").unwrap();
    assert_eq!(got, b"v2");
}

#[test]
fn unlink_removes_and_frees() {
    let (_e, mut fs) = make_fs();
    let bs = fs.store().block_size() as usize;
    fs.write_file(0, "/big", &vec![9u8; 4 * bs]).unwrap();
    fs.unlink(0, "/big").unwrap();
    assert!(matches!(fs.read_file(0, "/big"), Err(FsError::NotFound(_))));
    // Freed blocks are reused: writing the same amount again succeeds and
    // readdir shows only the new file.
    fs.write_file(0, "/big2", &vec![8u8; 4 * bs]).unwrap();
    let (entries, _) = fs.readdir(0, "/").unwrap();
    assert_eq!(entries.len(), 1);
}

#[test]
fn errors_are_specific() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/d").unwrap();
    fs.create(0, "/d/f").unwrap();
    assert!(matches!(fs.mkdir(0, "/d"), Err(FsError::Exists(_))));
    assert!(matches!(fs.create(0, "/d/f"), Err(FsError::Exists(_))));
    assert!(matches!(fs.read_file(0, "/nope"), Err(FsError::NotFound(_))));
    assert!(matches!(fs.read_file(0, "/d"), Err(FsError::IsDir(_))));
    assert!(matches!(fs.readdir(0, "/d/f"), Err(FsError::NotDir(_))));
    assert!(matches!(fs.mkdir(0, "relative"), Err(FsError::InvalidName(_))));
    let long = format!("/{}", "x".repeat(100));
    assert!(matches!(fs.create(0, &long), Err(FsError::InvalidName(_))));
    // A directory is not unlinked out from over its children.
    assert!(matches!(fs.unlink(0, "/d"), Err(FsError::IsDir(_))));
    assert_eq!(fs.readdir(1, "/d").unwrap().0.len(), 1);
}

#[test]
fn plans_execute_on_engine() {
    let (mut e, s) = raidx_store();
    let (mut fs, fmt_plan) = Fs::format(s, 512, 0).unwrap();
    let p1 = fs.mkdir(0, "/w").unwrap();
    let p2 = fs.write_file(1, "/w/file", &vec![1u8; 100_000]).unwrap();
    let (_, p3) = fs.read_file(2, "/w/file").unwrap();
    e.spawn_job("fmt", fmt_plan);
    e.spawn_job("mkdir", p1);
    e.spawn_job("write", p2);
    e.spawn_job("read", p3);
    let rep = e.run().unwrap();
    assert!(rep.end.as_secs_f64() > 0.0);
}

#[test]
fn metadata_cache_hits_on_repeat_resolution() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/proj").unwrap();
    for i in 0..10 {
        fs.create(0, &format!("/proj/f{i}")).unwrap();
    }
    let ((h0, m0), read0) = (fs.cache_stats(), fs.store_mut().plane_mut().bytes_read());
    for i in 0..10 {
        fs.stat(0, &format!("/proj/f{i}")).unwrap();
    }
    let ((h1, m1), read1) = (fs.cache_stats(), fs.store_mut().plane_mut().bytes_read());
    assert!(h1 > h0, "repeat path resolution should hit the cache");
    assert_eq!((m1, read1), (m0, read0), "a hit reads nothing from the store");
    // A different client has a cold cache.
    let (_, m0) = fs.cache_stats();
    fs.stat(3, "/proj/f0").unwrap();
    let (_, m1) = fs.cache_stats();
    assert!(m1 > m0, "client 3 should miss on first access");
}

/// A warm client's lookups are traffic the simulation never carries, so
/// they must not show in the store's counters either: not as bytes read,
/// and behind a partition not as timeouts or failovers.
#[test]
fn cache_hits_carry_no_traffic_behind_a_partition() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/proj").unwrap();
    fs.create(0, "/proj/f").unwrap();
    fs.stat(0, "/proj/f").unwrap();
    // Cut off the node whose disk serves the inode table (block 1 on; one
    // disk per node, so disk and node numbers agree).
    let node = fs.store().layout().locate_data(1).disk;
    assert_ne!(node, 0, "the warm client itself stays connected");
    fs.store_mut().partition_node(node);
    let counters = |fs: &mut Fs<IoSystem>| {
        let s = fs.store_mut();
        (s.timeouts(), s.failovers(), s.plane_mut().bytes_read())
    };
    let before = counters(&mut fs);
    for _ in 0..10 {
        fs.stat(0, "/proj/f").unwrap();
    }
    assert_eq!(counters(&mut fs), before, "ten hits, no traffic");
    // A cold client does go to the array, and meets the partition.
    fs.stat(2, "/proj/f").unwrap();
    let after = counters(&mut fs);
    assert!(after.0 > before.0 && after.2 > before.2, "{before:?} -> {after:?}");
}

/// The least-loaded balancer sends a read to the copy whose disk has had
/// fewer bytes dispatched to it; metadata hits dispatch none, so however
/// many precede a run of data reads they cannot change which copy each is
/// sent to.
#[test]
fn least_loaded_choice_ignores_metadata_hits() {
    let data_reads = |warm_stats: usize| {
        let cfg = CddConfig { read_balance: ReadBalance::LeastLoaded, ..CddConfig::default() };
        let (_e, s) = cdd::testkit::shape_with(4, 1, 64 << 20, Arch::RaidX, cfg);
        let (mut fs, _) = Fs::format(s, 512, 0).unwrap();
        fs.write_file(0, "/f", &[7u8; 1000]).unwrap();
        for _ in 0..warm_stats {
            fs.stat(0, "/f").unwrap();
        }
        (0..32).map(|_| format!("{:?}", fs.read_file(0, "/f").unwrap().1)).collect::<Vec<_>>()
    };
    let (cold, warm) = (data_reads(0), data_reads(100));
    assert!(cold.iter().any(|plan| *plan != cold[0]), "the balancer never moved a read");
    assert_eq!(cold, warm);
}

/// A metadata write the array refuses must leave nothing in the cache
/// that the array does not hold: afterwards a warm client sees exactly
/// what a cold mount of the same store decodes.
#[test]
fn refused_metadata_write_leaves_no_stale_entry() {
    let tree = |fs: &mut Fs<IoSystem>, client: usize| {
        let mut names: Vec<String> =
            fs.readdir(client, "/a").unwrap().0.into_iter().map(|e| e.name).collect();
        names.sort();
        let found: Vec<bool> =
            ["/a/old", "/a/new"].iter().map(|p| fs.stat(client, p).is_ok()).collect();
        (names, found)
    };
    let mut refused = 0;
    // Every pair of disks taken offline in turn: some pair holds both
    // copies of the block a `create` writes first, another of the next.
    for (d1, d2) in (0..4).flat_map(|d1| (d1 + 1..4).map(move |d2| (d1, d2))) {
        let (_e, mut fs) = make_fs();
        fs.mkdir(0, "/a").unwrap();
        fs.create(0, "/a/old").unwrap();
        fs.store_mut().fail_disk_transient(d1);
        fs.store_mut().fail_disk_transient(d2);
        refused += usize::from(matches!(fs.create(0, "/a/new"), Err(FsError::Io(_))));
        // The first disk back may find its resync sources still out.
        let _ = fs.store_mut().recover_disk_transient(0, d1);
        assert_eq!(fs.store_mut().recover_disk_transient(0, d2).unwrap().lost, None);
        assert_eq!(fs.store_mut().resync_parked(0, d1).unwrap().lost, None);
        let warm = tree(&mut fs, 0);
        let (mut cold_fs, _) = Fs::mount(fs.into_store(), 0).unwrap();
        assert_eq!(warm, tree(&mut cold_fs, 0), "disks {d1} and {d2} out");
    }
    assert!(refused > 0, "no pair of disks refused the write");
}

/// A metadata rewrite leaves its writer the only holder of the block: a
/// client that read it before pays a miss on its next read.
#[test]
fn a_peer_rewrite_makes_the_next_read_a_miss() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/shared").unwrap();
    fs.create(0, "/shared/f").unwrap();
    fs.stat(1, "/shared/f").unwrap();
    fs.write_file(0, "/shared/f", b"new bytes").unwrap();
    let (_, misses) = fs.cache_stats();
    fs.stat(1, "/shared/f").unwrap();
    assert!(fs.cache_stats().1 > misses, "client 1 read the rewritten inode at hit cost");
}

#[test]
fn cache_invalidated_on_peer_write() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/shared").unwrap();
    fs.readdir(1, "/shared").unwrap(); // client 1 caches the dir
    fs.create(0, "/shared/new").unwrap(); // client 0 modifies it
    let (entries, _) = fs.readdir(1, "/shared").unwrap();
    assert_eq!(entries.len(), 1, "client 1 must see the new entry");
}

#[test]
fn survives_disk_failure_under_raidx() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/safe").unwrap();
    let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
    fs.write_file(0, "/safe/f", &data).unwrap();
    fs.store_mut().fail_disk(2);
    // The whole tree — superblock, inodes, directories, data — must
    // remain readable through the mirrors.
    let (got, _) = fs.read_file(1, "/safe/f").unwrap();
    assert_eq!(got, data);
    let (entries, _) = fs.readdir(1, "/safe").unwrap();
    assert_eq!(entries.len(), 1);
}

#[test]
fn mount_recovers_state() {
    let (_e, s) = raidx_store();
    let (mut fs, _) = Fs::format(s, 256, 0).unwrap();
    fs.mkdir(0, "/persist").unwrap();
    fs.write_file(0, "/persist/f", b"durable bytes").unwrap();
    // Take the store back and remount it fresh (state must come from the
    // blocks, not from the old in-memory Fs).
    let (mut fs2, _) = Fs::mount(fs.into_store(), 1).unwrap();
    let (got, _) = fs2.read_file(1, "/persist/f").unwrap();
    assert_eq!(got, b"durable bytes");
    // New allocations must not clobber existing data.
    fs2.write_file(1, "/persist/g", b"more").unwrap();
    let (got, _) = fs2.read_file(0, "/persist/f").unwrap();
    assert_eq!(got, b"durable bytes");
}

#[test]
fn works_over_nfs_store() {
    let mut cfg = ClusterConfig::shape(4, 1);
    cfg.disk.capacity = 64 << 20;
    let mut e = Engine::new();
    let s = NfsSystem::new(&mut e, cfg, NfsConfig::default());
    let (mut fs, _) = Fs::format(s, 256, 0).unwrap();
    fs.mkdir(1, "/n").unwrap();
    fs.write_file(2, "/n/f", b"over nfs").unwrap();
    let (got, _) = fs.read_file(3, "/n/f").unwrap();
    assert_eq!(got, b"over nfs");
    assert_eq!(fs.store().arch_name(), "NFS");
    // No cache to look in: every access misses, and a second name goes in
    // the directory's one block, not in a block of its own.
    fs.create(1, "/n/g").unwrap();
    assert_eq!(fs.stat(1, "/n").unwrap().0.blocks(), 1);
    assert_eq!(fs.cache_stats().0, 0);
}

#[test]
fn append_grows_files_correctly() {
    let (_e, mut fs) = make_fs();
    let bs = fs.store().block_size() as usize;
    // Append to a missing file creates it.
    fs.append(0, "/log", b"hello ").unwrap();
    fs.append(0, "/log", b"world").unwrap();
    let (got, _) = fs.read_file(0, "/log").unwrap();
    assert_eq!(got, b"hello world");
    // Appends spanning block boundaries.
    let chunk: Vec<u8> = (0..bs + 100).map(|i| (i % 251) as u8).collect();
    fs.append(1, "/log", &chunk).unwrap();
    let (got, _) = fs.read_file(2, "/log").unwrap();
    assert_eq!(got.len(), 11 + bs + 100);
    assert_eq!(&got[..11], b"hello world");
    assert_eq!(&got[11..], &chunk[..]);
    // Many small appends accumulate exactly.
    let mut want = got;
    for i in 0..20u8 {
        fs.append(0, "/log", &[i; 37]).unwrap();
        want.extend_from_slice(&[i; 37]);
    }
    let (got, _) = fs.read_file(3, "/log").unwrap();
    assert_eq!(got, want);
}

#[test]
fn append_to_directory_fails() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/d").unwrap();
    assert!(matches!(fs.append(0, "/d", b"x"), Err(FsError::IsDir(_))));
}

#[test]
fn rename_moves_files_and_dirs() {
    let (_e, mut fs) = make_fs();
    fs.mkdir(0, "/a").unwrap();
    fs.mkdir(0, "/b").unwrap();
    fs.write_file(0, "/a/f", b"payload").unwrap();
    // Across directories.
    fs.rename(0, "/a/f", "/b/g").unwrap();
    assert!(matches!(fs.read_file(0, "/a/f"), Err(FsError::NotFound(_))));
    let (got, _) = fs.read_file(0, "/b/g").unwrap();
    assert_eq!(got, b"payload");
    // Within one directory.
    fs.rename(1, "/b/g", "/b/h").unwrap();
    let (got, _) = fs.read_file(2, "/b/h").unwrap();
    assert_eq!(got, b"payload");
    // Renaming a directory carries its contents.
    fs.rename(0, "/b", "/c").unwrap();
    let (got, _) = fs.read_file(0, "/c/h").unwrap();
    assert_eq!(got, b"payload");
    let (entries, _) = fs.readdir(0, "/").unwrap();
    let mut names: Vec<String> = entries.into_iter().map(|e| e.name).collect();
    names.sort();
    assert_eq!(names, vec!["a", "c"]);
}

#[test]
fn rename_refuses_clobber_and_missing() {
    let (_e, mut fs) = make_fs();
    fs.write_file(0, "/x", b"1").unwrap();
    fs.write_file(0, "/y", b"2").unwrap();
    assert!(matches!(fs.rename(0, "/x", "/y"), Err(FsError::Exists(_))));
    assert!(matches!(fs.rename(0, "/nope", "/z"), Err(FsError::NotFound(_))));
    // Both files untouched.
    assert_eq!(fs.read_file(0, "/x").unwrap().0, b"1");
    assert_eq!(fs.read_file(0, "/y").unwrap().0, b"2");
}

/// Space that `unlink` frees is found again at mount: a file written after
/// a remount lands in the freed extent, not past the allocation frontier.
#[test]
fn remount_reuses_the_extent_unlink_freed() {
    let (_e, mut fs) = make_fs();
    let bs = fs.store().block_size() as usize;
    for (path, tag) in [("/a", 1u8), ("/b", 2), ("/c", 3)] {
        fs.write_file(0, path, &vec![tag; 3 * bs]).unwrap();
    }
    let freed = fs.stat(0, "/b").unwrap().0.extents[0];
    fs.unlink(0, "/b").unwrap();
    let (mut fs, _) = Fs::mount(fs.into_store(), 1).unwrap();
    fs.write_file(1, "/d", &vec![4u8; 3 * bs]).unwrap();
    assert_eq!(fs.stat(1, "/d").unwrap().0.extents[0], freed);
    for (path, tag) in [("/a", 1u8), ("/c", 3), ("/d", 4)] {
        assert_eq!(fs.read_file(1, path).unwrap().0, vec![tag; 3 * bs], "{path}");
    }
}
