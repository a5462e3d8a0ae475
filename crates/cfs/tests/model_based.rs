//! Model-based property testing of the cluster file system: random
//! operation sequences over a bounded namespace are applied to the real
//! fs — over each CDD array, whose clients cache metadata, and over the
//! NFS baseline, whose clients do not — and to a trivial in-memory model;
//! results — contents and errors alike — must agree, and so must what a
//! cold mount of the store finds afterwards: what the metadata cache
//! served is what the array holds.

use std::collections::{BTreeMap, BTreeSet};

use cdd::BlockStore;
use cfs::{Fs, FsError};
use cluster::ClusterConfig;
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::check::{run_cases, Gen};
use sim_core::Engine;

#[derive(Debug, Clone)]
enum Op {
    Mkdir { d: u8 },
    Create { d: u8, f: u8 },
    WriteFile { d: u8, f: u8, size: u16, tag: u8 },
    ReadFile { d: u8, f: u8 },
    Unlink { d: u8, f: u8 },
    Readdir { d: u8 },
    Append { d: u8, f: u8, size: u16, tag: u8 },
    Rename { d: u8, f: u8, d2: u8, f2: u8 },
}

fn draw_op(g: &mut Gen) -> Op {
    let d = |g: &mut Gen| (g.u64_in(0..3) & 0xFF) as u8;
    let f = |g: &mut Gen| (g.u64_in(0..3) & 0xFF) as u8;
    match g.weighted(&[1, 2, 4, 4, 1, 2, 3, 1]) {
        0 => Op::Mkdir { d: d(g) },
        1 => Op::Create { d: d(g), f: f(g) },
        2 => Op::WriteFile { d: d(g), f: f(g), size: g.u16(), tag: g.u8() },
        3 => Op::ReadFile { d: d(g), f: f(g) },
        4 => Op::Unlink { d: d(g), f: f(g) },
        5 => Op::Readdir { d: d(g) },
        6 => {
            Op::Append { d: d(g), f: f(g), size: (g.u64_in(0..4096) & 0xFFFF) as u16, tag: g.u8() }
        }
        _ => Op::Rename { d: d(g), f: f(g), d2: d(g), f2: f(g) },
    }
}

fn dir_path(d: u8) -> String {
    format!("/d{d}")
}

fn file_path(d: u8, f: u8) -> String {
    format!("/d{d}/f{f}")
}

fn payload(size: u16, tag: u8) -> Vec<u8> {
    (0..size as usize).map(|i| tag.wrapping_add((i % 191) as u8)).collect()
}

/// In-memory reference: which dirs exist, and file path -> contents.
#[derive(Default)]
struct Model {
    dirs: BTreeSet<u8>,
    files: BTreeMap<(u8, u8), Vec<u8>>,
}

impl Model {
    /// `client`'s listing of directory `d` names the model's files in it.
    fn check_listing<S: BlockStore>(&self, fs: &mut Fs<S>, client: usize, d: u8) {
        let (entries, _) = fs.readdir(client, &dir_path(d)).expect("readdir of existing dir");
        let mut got: Vec<String> = entries.into_iter().map(|e| e.name).collect();
        got.sort();
        let in_d = self.files.keys().filter(|(dd, _)| *dd == d);
        assert_eq!(got, in_d.map(|(_, f)| format!("f{f}")).collect::<Vec<_>>());
    }

    /// Every file and every directory listing of `fs`, as `client` reads
    /// them, is what the model holds.
    fn check<S: BlockStore>(&self, fs: &mut Fs<S>, client: usize) {
        for ((d, f), want) in &self.files {
            let (got, _) = fs.read_file(client, &file_path(*d, *f)).expect("final read");
            assert_eq!(&got, want);
        }
        for d in &self.dirs {
            self.check_listing(fs, client, *d);
        }
    }
}

#[test]
fn fs_agrees_with_model() {
    run_cases("fs_agrees_with_model", 32, |g| {
        let script = g.vec_of(1..60, draw_op);
        for arch in [Arch::Raid5, Arch::Raid10, Arch::RaidX] {
            let (_engine, store) = cdd::testkit::shape(4, 1, 64 << 20, arch);
            run_script(store, &script);
        }
        let mut cfg = ClusterConfig::shape(4, 1);
        cfg.disk.capacity = 64 << 20;
        run_script(NfsSystem::new(&mut Engine::new(), cfg, NfsConfig::default()), &script);
    });
}

/// Apply `script` to a fresh file system on `store` and to the model.
fn run_script<S: BlockStore>(store: S, script: &[Op]) {
    let (mut fs, _) = Fs::format(store, 256, 0).expect("format");
    let mut model = Model::default();

    for (i, op) in script.iter().cloned().enumerate() {
        let client = i % 4;
        match op {
            Op::Mkdir { d } => {
                let real = fs.mkdir(client, &dir_path(d));
                if model.dirs.insert(d) {
                    assert!(real.is_ok(), "mkdir should succeed");
                } else {
                    assert!(matches!(real, Err(FsError::Exists(_))));
                }
            }
            Op::Create { d, f } => {
                let real = fs.create(client, &file_path(d, f));
                if !model.dirs.contains(&d) {
                    assert!(matches!(real, Err(FsError::NotFound(_))));
                } else if let std::collections::btree_map::Entry::Vacant(e) =
                    model.files.entry((d, f))
                {
                    assert!(real.is_ok());
                    e.insert(Vec::new());
                } else {
                    assert!(matches!(real, Err(FsError::Exists(_))));
                }
            }
            Op::WriteFile { d, f, size, tag } => {
                let data = payload(size, tag);
                let real = fs.write_file(client, &file_path(d, f), &data);
                if !model.dirs.contains(&d) {
                    assert!(matches!(real, Err(FsError::NotFound(_))));
                } else {
                    assert!(real.is_ok(), "write_file failed: {:?}", real.err());
                    model.files.insert((d, f), data);
                }
            }
            Op::ReadFile { d, f } => {
                let real = fs.read_file(client, &file_path(d, f));
                match model.files.get(&(d, f)) {
                    Some(want) => {
                        let (got, _) = real.expect("read of existing file");
                        assert_eq!(&got, want);
                    }
                    None => assert!(matches!(real, Err(FsError::NotFound(_)))),
                }
            }
            Op::Unlink { d, f } => {
                let real = fs.unlink(client, &file_path(d, f));
                if model.files.remove(&(d, f)).is_some() {
                    assert!(real.is_ok());
                } else {
                    assert!(matches!(real, Err(FsError::NotFound(_))));
                }
            }
            Op::Append { d, f, size, tag } => {
                let data = payload(size, tag);
                let real = fs.append(client, &file_path(d, f), &data);
                if !model.dirs.contains(&d) {
                    if data.is_empty() {
                        assert!(real.is_ok(), "empty append is a no-op");
                    } else {
                        assert!(matches!(real, Err(FsError::NotFound(_))));
                    }
                } else {
                    assert!(real.is_ok(), "append failed: {:?}", real.err());
                    if !data.is_empty() || model.files.contains_key(&(d, f)) {
                        model.files.entry((d, f)).or_default().extend_from_slice(&data);
                    }
                }
            }
            Op::Rename { d, f, d2, f2 } => {
                let real = fs.rename(client, &file_path(d, f), &file_path(d2, f2));
                let src_exists = model.files.contains_key(&(d, f));
                let dst_exists = model.files.contains_key(&(d2, f2)) || (d, f) == (d2, f2);
                let dst_dir = model.dirs.contains(&d2);
                if !src_exists || !dst_dir {
                    assert!(matches!(real, Err(FsError::NotFound(_))));
                } else if dst_exists {
                    assert!(matches!(real, Err(FsError::Exists(_))));
                } else {
                    assert!(real.is_ok(), "rename failed: {:?}", real.err());
                    let contents = model.files.remove(&(d, f)).expect("src exists");
                    model.files.insert((d2, f2), contents);
                }
            }
            Op::Readdir { d } => {
                if model.dirs.contains(&d) {
                    model.check_listing(&mut fs, client, d);
                } else {
                    let real = fs.readdir(client, &dir_path(d));
                    assert!(matches!(real, Err(FsError::NotFound(_))));
                }
            }
        }
    }
    // Final sweep, twice: through the cache that served the script,
    // then from a cold mount of what the store holds.
    model.check(&mut fs, 0);
    let (mut cold, _) = Fs::mount(fs.into_store(), 1).expect("remount");
    model.check(&mut cold, 1);
}
