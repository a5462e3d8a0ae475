//! On-disk structures of the cluster file system.
//!
//! Deliberately small and 1990s-shaped: a superblock, a fixed inode table,
//! extent-based files and flat directories of fixed-size entries. Every
//! structure really serializes to bytes — metadata corruption would be
//! caught by the integrity tests, exactly like data corruption.

/// Magic number identifying a formatted volume.
pub const MAGIC: u64 = 0x5241_4944_5846_5321; // "RAIDXFS!"

/// Bytes per inode slot in the table.
pub const INODE_SIZE: usize = 256;

/// Maximum extents per inode.
pub const MAX_EXTENTS: usize = 12;

/// Bytes per directory entry.
pub const DIRENT_SIZE: usize = 64;

/// Maximum file-name bytes per entry.
pub const MAX_NAME: usize = 54;

/// What an inode describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Unallocated slot.
    Free,
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

impl InodeKind {
    fn to_byte(self) -> u8 {
        match self {
            InodeKind::Free => 0,
            InodeKind::File => 1,
            InodeKind::Dir => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(InodeKind::Free),
            1 => Some(InodeKind::File),
            2 => Some(InodeKind::Dir),
            _ => None,
        }
    }
}

/// A contiguous run of logical blocks backing part of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extent {
    /// First logical block.
    pub start: u64,
    /// Number of blocks (0 = unused slot).
    pub len: u64,
}

/// An inode: type, byte size and up to [`MAX_EXTENTS`] extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// File or directory (or free).
    pub kind: InodeKind,
    /// Logical size in bytes.
    pub size: u64,
    /// Backing extents, in file order.
    pub extents: [Extent; MAX_EXTENTS],
}

impl Inode {
    /// An unallocated inode.
    pub fn free() -> Self {
        Inode { kind: InodeKind::Free, size: 0, extents: [Extent::default(); MAX_EXTENTS] }
    }

    /// A fresh empty inode of `kind`.
    pub fn empty(kind: InodeKind) -> Self {
        Inode { kind, size: 0, extents: [Extent::default(); MAX_EXTENTS] }
    }

    /// Total blocks across extents.
    pub fn blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Serialize into an [`INODE_SIZE`] region.
    pub fn encode(&self, out: &mut [u8]) {
        assert!(out.len() >= INODE_SIZE);
        out[..INODE_SIZE].fill(0);
        out[0] = self.kind.to_byte();
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        for (i, e) in self.extents.iter().enumerate() {
            let off = 16 + i * 16;
            out[off..off + 8].copy_from_slice(&e.start.to_le_bytes());
            out[off + 8..off + 16].copy_from_slice(&e.len.to_le_bytes());
        }
    }

    /// Deserialize from an [`INODE_SIZE`] region.
    pub fn decode(raw: &[u8]) -> Option<Self> {
        let kind = InodeKind::from_byte(raw[0])?;
        let size = u64::from_le_bytes(raw[8..16].try_into().ok()?);
        let mut extents = [Extent::default(); MAX_EXTENTS];
        for (i, e) in extents.iter_mut().enumerate() {
            let off = 16 + i * 16;
            e.start = u64::from_le_bytes(raw[off..off + 8].try_into().ok()?);
            e.len = u64::from_le_bytes(raw[off + 8..off + 16].try_into().ok()?);
        }
        Some(Inode { kind, size, extents })
    }
}

/// A directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (≤ [`MAX_NAME`] bytes).
    pub name: String,
    /// Target inode number.
    pub inode: u32,
    /// Target kind (cached for scan efficiency, like ext2's file_type).
    pub kind: InodeKind,
}

impl DirEntry {
    /// Serialize into a [`DIRENT_SIZE`] region.
    pub fn encode(&self, out: &mut [u8]) {
        assert!(out.len() >= DIRENT_SIZE);
        assert!(self.name.len() <= MAX_NAME, "name too long");
        out[..DIRENT_SIZE].fill(0);
        out[0] = self.name.len() as u8;
        out[1] = self.kind.to_byte();
        out[2..6].copy_from_slice(&self.inode.to_le_bytes());
        out[8..8 + self.name.len()].copy_from_slice(self.name.as_bytes());
    }

    /// Deserialize; `None` for an empty slot.
    pub fn decode(raw: &[u8]) -> Option<Self> {
        let (name, inode, kind) = Self::peek(raw)?;
        Some(DirEntry { name: name.to_string(), inode, kind })
    }

    /// [`DirEntry::decode`] without copying the name out of the slot.
    pub(crate) fn peek(raw: &[u8]) -> Option<(&str, u32, InodeKind)> {
        let len = raw[0] as usize;
        if len == 0 || len > MAX_NAME {
            return None;
        }
        let kind = InodeKind::from_byte(raw[1])?;
        let inode = u32::from_le_bytes(raw[2..6].try_into().ok()?);
        Some((std::str::from_utf8(&raw[8..8 + len]).ok()?, inode, kind))
    }
}

/// The live entries of a directory block with their slot numbers, names
/// still in place. `block` may be any prefix that holds every live slot.
pub(crate) fn dir_slots(block: &[u8]) -> impl Iterator<Item = (usize, (&str, u32, InodeKind))> {
    let slots = block.chunks_exact(DIRENT_SIZE).enumerate();
    slots.filter_map(|(at, slot)| Some((at, DirEntry::peek(slot)?)))
}

/// Bytes of a directory block up to the end of its last live slot.
pub(crate) fn dir_live_len(block: &[u8]) -> usize {
    dir_slots(block).last().map_or(0, |(last, _)| (last + 1) * DIRENT_SIZE)
}

/// Volume geometry, stored in block 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperBlock {
    /// Must equal [`MAGIC`].
    pub magic: u64,
    /// Number of inode slots.
    pub n_inodes: u32,
    /// First block of the inode table.
    pub itable_start: u64,
    /// First block of the data area.
    pub data_start: u64,
}

impl SuperBlock {
    /// Serialize into a block-sized buffer.
    pub fn encode(&self, out: &mut [u8]) {
        out.fill(0);
        out[0..8].copy_from_slice(&self.magic.to_le_bytes());
        out[8..12].copy_from_slice(&self.n_inodes.to_le_bytes());
        out[16..24].copy_from_slice(&self.itable_start.to_le_bytes());
        out[24..32].copy_from_slice(&self.data_start.to_le_bytes());
    }

    /// Deserialize, checking the magic.
    pub fn decode(raw: &[u8]) -> Option<Self> {
        let magic = u64::from_le_bytes(raw[0..8].try_into().ok()?);
        if magic != MAGIC {
            return None;
        }
        Some(SuperBlock {
            magic,
            n_inodes: u32::from_le_bytes(raw[8..12].try_into().ok()?),
            itable_start: u64::from_le_bytes(raw[16..24].try_into().ok()?),
            data_start: u64::from_le_bytes(raw[24..32].try_into().ok()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_roundtrip() {
        let mut ino = Inode::empty(InodeKind::File);
        ino.size = 123_456;
        ino.extents[0] = Extent { start: 77, len: 4 };
        ino.extents[3] = Extent { start: 1000, len: 1 };
        let mut buf = [0u8; INODE_SIZE];
        ino.encode(&mut buf);
        assert_eq!(Inode::decode(&buf).unwrap(), ino);
        assert_eq!(ino.blocks(), 5);
    }

    #[test]
    fn free_inode_roundtrip() {
        let mut buf = [0u8; INODE_SIZE];
        Inode::free().encode(&mut buf);
        assert_eq!(Inode::decode(&buf).unwrap().kind, InodeKind::Free);
    }

    #[test]
    fn dirent_roundtrip() {
        let e = DirEntry { name: "Makefile".into(), inode: 42, kind: InodeKind::File };
        let mut buf = [0u8; DIRENT_SIZE];
        e.encode(&mut buf);
        assert_eq!(DirEntry::decode(&buf).unwrap(), e);
    }

    #[test]
    fn empty_dirent_is_none() {
        assert!(DirEntry::decode(&[0u8; DIRENT_SIZE]).is_none());
    }

    #[test]
    fn superblock_roundtrip_and_magic_check() {
        let sb = SuperBlock { magic: MAGIC, n_inodes: 2048, itable_start: 1, data_start: 17 };
        let mut buf = vec![0u8; 4096];
        sb.encode(&mut buf);
        assert_eq!(SuperBlock::decode(&buf).unwrap(), sb);
        buf[0] ^= 0xFF;
        assert!(SuperBlock::decode(&buf).is_none());
    }

    #[test]
    #[should_panic(expected = "name too long")]
    fn oversized_name_rejected() {
        let e = DirEntry { name: "x".repeat(60), inode: 1, kind: InodeKind::File };
        e.encode(&mut [0u8; DIRENT_SIZE]);
    }
}
