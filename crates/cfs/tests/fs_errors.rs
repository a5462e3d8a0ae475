//! `FsError` reachability: every variant, produced through `Fs`'s public
//! API — one table row each. `Io` and `Corrupt` need a damaged store
//! underneath; the store is reached the way a test reaches it anywhere,
//! through `Fs::store_mut` or between `Fs::into_store` and `Fs::mount`.

use cdd::IoSystem;
use cfs::format::MAX_EXTENTS;
use cfs::{Fs, FsError, SuperBlock};
use raidx_core::Arch;

/// Which variant `e` is. The match is exhaustive, so a new variant does
/// not compile until it is named here; name it together with a row of
/// [`ROWS`] that produces it.
fn variant(e: &FsError) -> &'static str {
    match e {
        FsError::Io(_) => "Io",
        FsError::NotFound(_) => "NotFound",
        FsError::Exists(_) => "Exists",
        FsError::NotDir(_) => "NotDir",
        FsError::IsDir(_) => "IsDir",
        FsError::NoSpace => "NoSpace",
        FsError::NoInodes => "NoInodes",
        FsError::TooManyExtents => "TooManyExtents",
        FsError::InvalidName(_) => "InvalidName",
        FsError::Corrupt(_) => "Corrupt",
    }
}

/// A fresh volume of `n_inodes` slots on a 4-node RAID-x array holding a
/// directory `/d` and a file `/d/f`.
fn volume(n_inodes: u32) -> Fs<IoSystem> {
    let (_engine, store) = cdd::testkit::shape(4, 1, 4 << 20, Arch::RaidX);
    let (mut fs, _) = Fs::format(store, n_inodes, 0).expect("format");
    fs.mkdir(0, "/d").expect("mkdir /d");
    fs.write_file(0, "/d/f", b"payload").expect("write /d/f");
    fs
}

/// Runs a call sequence and returns the error it ended in, if any.
type Produce = fn() -> Option<FsError>;

/// `(variant, how it is produced)`.
const ROWS: [(&str, Produce); 10] = [
    // Every disk fails; a client with a cold metadata cache resolves a path.
    ("Io", || {
        let mut fs = volume(16);
        (0..4).for_each(|disk| fs.store_mut().fail_disk(disk));
        fs.stat(1, "/d").err()
    }),
    ("NotFound", || volume(16).read_file(0, "/d/none").err()),
    ("Exists", || volume(16).mkdir(0, "/d").err()),
    // A path component below a file.
    ("NotDir", || volume(16).readdir(0, "/d/f").err()),
    ("IsDir", || volume(16).read_file(0, "/d").err()),
    // A file as large as the whole array cannot fit its data area.
    ("NoSpace", || {
        let mut fs = volume(16);
        let bytes = fs.store().capacity_blocks() * fs.store().block_size();
        fs.write_file(0, "/big", &vec![1; bytes as usize]).err()
    }),
    // The root, `/d` and `/d/f` take all three slots.
    ("NoInodes", || volume(3).create(0, "/g").err()),
    // Appends to `/a` and `/b` alternate, so no block of `/a` lands next
    // to its previous one and each takes an extent slot of its own.
    ("TooManyExtents", || {
        let mut fs = volume(16);
        let data = vec![5; fs.store().block_size() as usize];
        (0..=MAX_EXTENTS).find_map(|_| {
            let err = fs.append(0, "/a", &data).err();
            if err.is_none() {
                fs.append(0, "/b", &data).expect("append /b");
            }
            err
        })
    }),
    ("InvalidName", || volume(16).mkdir(0, "relative").err()),
    // A superblock whose inode table has no slot for the root.
    ("Corrupt", || {
        let mut store = volume(16).into_store();
        let (mut raw, _) = store.read(0, 0, 1).expect("read the superblock");
        let mut sb = SuperBlock::decode(&raw).expect("a formatted superblock");
        sb.n_inodes = 0;
        sb.encode(&mut raw);
        store.write(0, 0, &raw).expect("write the superblock");
        Fs::mount(store, 0).err()
    }),
];

#[test]
fn every_fs_error_variant_is_reachable() {
    for (name, produce) in ROWS {
        let err = produce().unwrap_or_else(|| panic!("{name}: the call succeeded"));
        assert_eq!(variant(&err), name, "{err}");
    }
}
