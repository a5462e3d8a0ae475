//! Hostile images: a cfs volume whose superblock, inode table or root
//! directory block holds random bytes must mount and serve `readdir`,
//! `read_file` and `unlink` with an `Ok` or an `Err` — never a panic.

use cdd::IoSystem;
use cfs::Fs;
use raidx_core::Arch;
use sim_core::check::{run_cases, Gen};

/// Every path the operations try, the last one never created.
const PATHS: [&str; 6] = ["/", "/a", "/b", "/sub", "/sub/c", "/none"];

/// A formatted volume holding two files, a subdirectory and a file in
/// it, plus the block of its root directory.
fn volume() -> (IoSystem, u64) {
    let (_engine, store) = cdd::testkit::shape(4, 1, 4 << 20, Arch::RaidX);
    let (mut fs, _) = Fs::format(store, 16, 0).expect("format");
    let bs = fs.store().block_size() as usize;
    fs.write_file(0, "/a", b"alpha").expect("write /a");
    fs.write_file(0, "/b", &vec![7u8; 2 * bs + 3]).expect("write /b");
    fs.mkdir(0, "/sub").expect("mkdir /sub");
    fs.write_file(0, "/sub/c", b"gamma").expect("write /sub/c");
    let (root, _) = fs.stat(0, "/").expect("stat /");
    (fs.into_store(), root.extents[0].start)
}

/// Where a volume's live on-disk fields lie: block, bytes per record,
/// records, and the leading bytes of each record that hold its fields.
type Target = (u64, usize, usize, usize);

/// Overwrite one field byte of `target`, or one 8-aligned `u64` (the
/// width of every on-disk count and address) with a value that is
/// random, small, or at `u64::MAX`.
fn corrupt(g: &mut Gen, store: &mut IoSystem, (lb, stride, records, width): Target) {
    let (mut raw, _) = store.read(0, lb, 1).expect("read the block to corrupt");
    let record = g.usize_in(0..records) * stride;
    if g.bool() {
        raw[record + g.usize_in(0..width)] = g.u8();
    } else {
        let at = record + g.usize_in(0..width / 8) * 8;
        let v = match g.usize_in(0..3) {
            0 => g.u64(),
            1 => g.u64_in(0..1024),
            _ => u64::MAX - g.u64_in(0..2),
        };
        raw[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
    store.write(0, lb, &raw).expect("write the corrupted block");
}

#[test]
fn corrupt_images_fail_with_an_error_never_a_panic() {
    run_cases("corrupt_images_fail_with_an_error_never_a_panic", 512, |g| {
        let (mut store, root_dir) = volume();
        // The superblock; kind, size and first extents of the five live
        // inodes; length, kind and inode of the root's three entries.
        let targets = [(0, 32, 1, 32), (1, 256, 5, 48), (root_dir, 64, 3, 8)];
        for _ in 0..g.usize_in(1..4) {
            let target = targets[g.usize_in(0..targets.len())];
            corrupt(g, &mut store, target);
        }
        let Ok((mut fs, _)) = Fs::mount(store, 1) else { return };
        for path in PATHS {
            let _ = fs.readdir(1, path);
            let _ = fs.read_file(1, path);
        }
        for path in PATHS {
            let _ = fs.unlink(1, path);
        }
        let _ = fs.readdir(1, "/");
    });
}
