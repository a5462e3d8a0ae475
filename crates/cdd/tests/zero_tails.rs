//! Zero-tailed blocks through every path of the array. The plane stores a
//! block only up to its last non-zero byte, so each reader must zero-extend
//! and each XOR must treat a short part as zero-padded. Every layout, on
//! 4×1 and 4×3, with the client cache on and off, writes blocks of every
//! shape, reads them healthy (twice, so a cached read is served too) and
//! with one disk failed (RAID-5 then XORs stored parts of different
//! lengths), rebuilds, and requires a clean scrub and the same bytes.

use cdd::{CacheConfig, CddConfig};
use raidx_core::Arch;

/// Blocks written: a few stripes on every shape tested.
const NBLOCKS: u64 = 40;

/// Logical block `lb`'s bytes, one of five shapes by `lb % 5`: all zero,
/// one leading byte then zeros, half zero, last byte zero, no zero tail.
/// `salt` varies the non-zero bytes between generations.
fn shaped(lb: u64, salt: u8, bs: usize) -> Vec<u8> {
    let tag = (lb as u8).wrapping_mul(7) | 1;
    let mut b: Vec<u8> =
        (0..bs).map(|i| (i as u8).wrapping_add(tag).wrapping_add(salt) | 1).collect();
    match lb % 5 {
        0 => b.fill(0),
        1 => b[1..].fill(0),
        2 => b[bs / 2..].fill(0),
        3 => b[bs - 1] = 0,
        _ => {}
    }
    b
}

fn range(lb0: u64, n: u64, salt: u8, bs: usize) -> Vec<u8> {
    (lb0..lb0 + n).flat_map(|lb| shaped(lb, salt, bs)).collect()
}

#[test]
fn zero_tailed_blocks_survive_reads_failure_and_rebuild() {
    for arch in Arch::ALL {
        for (nodes, disks) in [(4, 1), (4, 3)] {
            for cache in [None, Some(CacheConfig::default())] {
                let tag = format!("{arch:?} {nodes}x{disks} cache {}", cache.is_some());
                let cfg = CddConfig { cache, ..CddConfig::default() };
                let (_e, mut s) = cdd::testkit::shape_with(nodes, disks, 4 << 20, arch, cfg);
                let bs = s.block_size() as usize;
                // One large write (RAID-5 full stripes), then single-block
                // overwrites of every shape (RAID-5 read-modify-write,
                // whose old data and parity are themselves short).
                let mut want = range(0, NBLOCKS, 0, bs);
                s.write(0, 0, &want).unwrap();
                for lb in [5, 6, 7, 8, 9, 21, 33] {
                    let b = shaped(lb + 1, 3, bs);
                    s.write(1, lb, &b).unwrap();
                    want[lb as usize * bs..(lb as usize + 1) * bs].copy_from_slice(&b);
                }
                s.flush_images();
                assert!(s.scrub().is_ok(), "{tag}: healthy scrub");
                for round in ["healthy", "cached"] {
                    let (got, _) = s.read(2, 0, NBLOCKS).unwrap();
                    assert!(got == want, "{tag}: {round} read");
                }

                s.fail_disk(1);
                for client in [0, 3] {
                    let (got, _) = s.read(client, 0, NBLOCKS).unwrap();
                    assert!(got == want, "{tag}: degraded read from client {client}");
                    for lb in 0..NBLOCKS {
                        let (got, _) = s.read(client, lb, 1).unwrap();
                        let at = lb as usize * bs;
                        assert!(got == want[at..at + bs], "{tag}: degraded block {lb}");
                    }
                }

                assert_eq!(s.rebuild_disk(0, 1, None).unwrap().lost, None, "{tag}");
                assert!(s.scrub().is_ok(), "{tag}: scrub after rebuild");
                let (got, _) = s.read(3, 0, NBLOCKS).unwrap();
                assert!(got == want, "{tag}: read after rebuild");
            }
        }
    }
}
