//! A crash inside `rename` never loses the file. The rename runs over a
//! store that keeps only its first *i* writes, for every *i* the rename
//! spans; the volume is then mounted afresh, and the file must be found
//! under its old name or its new one with its bytes intact — and under
//! one name only, so that unlinking it frees nothing another name reads.

use cdd::{BlockStore, IoError};
use cfs::{Fs, FsError};
use sim_core::{Engine, FixedRate, Plan, ResourceId, SimDuration};

/// The smallest block the format takes: eight directory slots a block,
/// so a directory grows after a handful of names.
const BS: usize = 512;

/// An in-memory volume whose operations cost nothing.
#[derive(Clone)]
struct Mem {
    bytes: Vec<u8>,
    cpu: ResourceId,
}

impl Mem {
    fn new(blocks: usize) -> Self {
        let cpu = Engine::new().add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        Mem { bytes: vec![0; blocks * BS], cpu }
    }
}

impl BlockStore for Mem {
    fn block_size(&self) -> u64 {
        BS as u64
    }
    fn capacity_blocks(&self) -> u64 {
        (self.bytes.len() / BS) as u64
    }
    fn nodes(&self) -> usize {
        1
    }
    fn arch_name(&self) -> String {
        "mem".into()
    }
    fn cpu_of(&self, _client: usize) -> ResourceId {
        self.cpu
    }
    fn write(&mut self, _client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        assert_eq!(data.len() % BS, 0, "a store takes whole blocks");
        let at = lb0 as usize * BS;
        self.bytes[at..at + data.len()].copy_from_slice(data);
        Ok(Plan::Noop)
    }
    fn read(&mut self, _client: usize, lb0: u64, nblocks: u64) -> Result<(Vec<u8>, Plan), IoError> {
        let at = lb0 as usize * BS;
        Ok((self.bytes[at..at + nblocks as usize * BS].to_vec(), Plan::Noop))
    }
}

/// A store that crashes after `left` more writes: it accepts them and
/// silently drops every one after, as a machine that lost power would.
struct Cut<S> {
    inner: S,
    left: usize,
    /// Writes offered, kept or not.
    offered: usize,
}

impl<S: BlockStore> BlockStore for Cut<S> {
    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }
    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
    fn arch_name(&self) -> String {
        self.inner.arch_name()
    }
    fn cpu_of(&self, client: usize) -> ResourceId {
        self.inner.cpu_of(client)
    }
    fn write(&mut self, client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        self.offered += 1;
        if self.left == 0 {
            return Ok(Plan::Noop);
        }
        self.left -= 1;
        self.inner.write(client, lb0, data)
    }
    fn read(&mut self, client: usize, lb0: u64, nblocks: u64) -> Result<(Vec<u8>, Plan), IoError> {
        self.inner.read(client, lb0, nblocks)
    }
}

const PAYLOAD: &[u8] = b"the file that must survive";
const FRESH: &[u8] = b"a file made after the unlink";

/// A volume with `/a/f` and `fillers` further names in `/a` and in `/b`.
fn volume(fillers: usize) -> Mem {
    let (mut fs, _) = Fs::format(Mem::new(256), 64, 0).expect("format");
    fs.mkdir(0, "/a").expect("mkdir /a");
    fs.mkdir(0, "/b").expect("mkdir /b");
    fs.write_file(0, "/a/f", PAYLOAD).expect("write /a/f");
    for i in 0..fillers {
        fs.create(0, &format!("/a/x{i}")).expect("filler in /a");
        fs.create(0, &format!("/b/x{i}")).expect("filler in /b");
    }
    fs.into_store()
}

/// Rename `from` to `to` on a copy of `image` that keeps `keep` writes;
/// returns the image left behind and the writes the rename offered.
fn crash_rename(image: &Mem, keep: usize, from: &str, to: &str) -> (Mem, usize) {
    let store = Cut { inner: image.clone(), left: keep, offered: 0 };
    let (mut fs, _) = Fs::mount(store, 0).expect("mount before the rename");
    fs.rename(0, from, to).expect("rename");
    let store = fs.into_store();
    (store.inner, store.offered)
}

/// Every cut of `from -> to`: the file is still there, under one name
/// or both. Returns how many writes the rename takes.
fn every_cut_keeps_the_file(fillers: usize, from: &str, to: &str) -> usize {
    let image = volume(fillers);
    let (_, writes) = crash_rename(&image, usize::MAX, from, to);
    for keep in 0..=writes {
        let (after, _) = crash_rename(&image, keep, from, to);
        let (mut fs, _) = Fs::mount(after, 0)
            .unwrap_or_else(|e| panic!("{from} -> {to}, {keep} of {writes} writes: mount: {e}"));
        let old = fs.read_file(0, from).map(|(bytes, _)| bytes);
        let new = fs.read_file(0, to).map(|(bytes, _)| bytes);
        assert!(
            matches!(&old, Ok(b) if b == PAYLOAD) || matches!(&new, Ok(b) if b == PAYLOAD),
            "{from} -> {to}, {keep} of {writes} writes kept: old {old:?}, new {new:?}"
        );
        if keep == writes {
            assert!(matches!(old, Err(FsError::NotFound(_))), "{from} survived the whole rename");
        }
        // Mount left the file one name: removing it frees the inode and
        // its extents, and the new file that reuses them is read under
        // no other name.
        let survivor = if old.is_ok() { from } else { to };
        fs.unlink(0, survivor).expect("unlink the surviving name");
        fs.write_file(0, "/fresh", FRESH).expect("a new file");
        for name in [from, to] {
            let got = fs.read_file(0, name).map(|(bytes, _)| bytes);
            assert!(
                matches!(got, Err(FsError::NotFound(_))),
                "{from} -> {to}, {keep} of {writes} writes kept, {survivor} unlinked: \
                 {name} reads {got:?}"
            );
        }
        assert_eq!(fs.read_file(0, "/fresh").expect("the new file").0, FRESH);
    }
    writes
}

#[test]
fn a_cut_anywhere_in_a_cross_directory_rename_keeps_the_file() {
    // `/b` has room for the name; then, with eight names in its one
    // block, it must grow to take it.
    assert!(every_cut_keeps_the_file(2, "/a/f", "/b/g") >= 2);
    assert!(every_cut_keeps_the_file(8, "/a/f", "/b/g") >= 3);
}

#[test]
fn a_cut_anywhere_in_a_same_directory_rename_keeps_the_file() {
    assert!(every_cut_keeps_the_file(2, "/a/f", "/a/g") >= 2);
    // `/a` is full: the new name grows the directory it is removed from.
    assert!(every_cut_keeps_the_file(7, "/a/f", "/a/g") >= 3);
}

#[test]
fn a_directory_cannot_move_below_itself() {
    let (mut fs, _) = Fs::mount(volume(0), 0).expect("mount");
    assert!(matches!(fs.rename(0, "/a", "/a/sub"), Err(FsError::InvalidName(_))));
    assert_eq!(fs.read_file(0, "/a/f").expect("/a/f untouched").0, PAYLOAD);
}
