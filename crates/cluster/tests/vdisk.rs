//! Unit tests of the functional data plane ([`cluster::vdisk`]): the
//! copying `write`/`read` forms, the handle-sharing `put`/`get` forms,
//! the isolation between copies that share one buffer, and the canonical
//! form of a stored block (no zero tail).

use std::sync::Arc;

use cluster::{block_of, extend_block, xor_into, xor_of, Block, DataPlane, DiskError};

const BS: usize = 64;

fn plane() -> DataPlane {
    DataPlane::new(4, BS, 128)
}

fn block(tag: u8) -> Vec<u8> {
    vec![tag; BS]
}

#[test]
fn write_read_roundtrip() {
    let mut p = plane();
    p.write(2, 7, &block(0xAB)).unwrap();
    assert_eq!(p.get(2, 7).unwrap()[..], block(0xAB)[..]);
}

#[test]
fn failure_loses_data_and_rejects_io() {
    let mut p = plane();
    p.write(1, 3, &block(9)).unwrap();
    p.fail(1);
    assert_eq!(p.read(1, 3, &mut block(0)).unwrap_err(), DiskError::Failed { disk: 1 });
    assert_eq!(p.write(1, 3, &block(9)).unwrap_err(), DiskError::Failed { disk: 1 });
    assert_eq!((0..4).map(|d| p.is_failed(d)).collect::<Vec<_>>(), [false, true, false, false]);
    // After replacement the disk is healthy but blank.
    p.replace(1);
    let mut out = block(0xFF);
    p.read(1, 3, &mut out).unwrap();
    assert_eq!(out, block(0));
    assert!(!p.is_failed(1));
}

#[test]
fn offline_rejects_io_but_retains_contents() {
    let mut p = plane();
    p.write(2, 5, &block(0x5A)).unwrap();
    p.set_offline(2, true);
    assert!(p.is_offline(2));
    assert!(!p.is_failed(2));
    assert_eq!(p.read(2, 5, &mut block(0)).unwrap_err(), DiskError::Offline { disk: 2 });
    assert_eq!(p.write(2, 5, &block(1)).unwrap_err(), DiskError::Offline { disk: 2 });
    // Recovery: the pre-outage contents are still there.
    p.set_offline(2, false);
    assert_eq!(p.get(2, 5).unwrap()[..], block(0x5A)[..]);
}

#[test]
fn failing_an_offline_disk_escalates_to_permanent() {
    let mut p = plane();
    p.write(1, 0, &block(7)).unwrap();
    p.set_offline(1, true);
    p.fail(1);
    assert!(p.is_failed(1) && !p.is_offline(1));
    assert_eq!(p.read(1, 0, &mut block(0)).unwrap_err(), DiskError::Failed { disk: 1 });
    p.replace(1);
    assert!(!p.is_offline(1));
    let mut out = block(0xFF);
    p.read(1, 0, &mut out).unwrap();
    assert_eq!(out, block(0), "replacement disk is blank");
}

#[test]
fn xor_is_self_inverse() {
    let a = block(0b1010_1010);
    let b = block(0b0110_0110);
    let mut acc = a.clone();
    xor_into(&mut acc, &b);
    xor_into(&mut acc, &b);
    assert_eq!(acc, a);
}

#[test]
fn io_counters_track_payload() {
    let mut p = plane();
    p.write(0, 0, &block(1)).unwrap();
    p.write(0, 1, &block(2)).unwrap();
    p.get(0, 0).unwrap();
    assert_eq!(p.bytes_written(), 2 * BS as u64);
    assert_eq!(p.bytes_read(), BS as u64);
}

#[test]
fn put_shares_the_buffer_and_get_returns_it() {
    let mut p = plane();
    let h: Block = block(0x3C).into();
    p.put(0, 4, h.clone()).unwrap();
    p.put(1, 9, h.clone()).unwrap();
    assert!(Arc::ptr_eq(&p.get(0, 4).unwrap(), &h) && Arc::ptr_eq(&p.get(1, 9).unwrap(), &h));
    // Stored per copy: one buffer on two disks counts twice.
    assert_eq!(p.bytes_written(), 2 * BS as u64);
    assert_eq!(p.bytes_read(), 2 * BS as u64);
    // `write` is the copying form: same bytes, a buffer of its own.
    p.write(2, 0, &h).unwrap();
    let copy = p.get(2, 0).unwrap();
    assert!(!Arc::ptr_eq(&copy, &h));
    assert_eq!(copy, h);
}

/// Whatever happens to one disk's copy of a shared buffer, the other
/// disk still holds the same handle with the same bytes.
#[test]
fn one_copy_changing_never_shows_through_another() {
    type Change = fn(&mut DataPlane);
    let cases: [(&str, Change); 4] = [
        ("write", |p| p.write(0, 4, &block(0xEE)).unwrap()),
        ("fail", |p| p.fail(0)),
        ("replace", |p| {
            p.fail(0);
            p.replace(0);
        }),
        ("set_offline", |p| p.set_offline(0, true)),
    ];
    for (name, change) in cases {
        let mut p = plane();
        let h: Block = block(0x3C).into();
        p.put(0, 4, h.clone()).unwrap();
        p.put(1, 4, h.clone()).unwrap();
        change(&mut p);
        let other = p.get(1, 4).unwrap();
        assert!(Arc::ptr_eq(&other, &h), "{name}: the other disk lost its handle");
        assert_eq!(other[..], block(0x3C)[..], "{name}: the other disk's bytes changed");
    }
    // And the changed side really changed (the table is not vacuous).
    let mut p = plane();
    let h: Block = block(0x3C).into();
    p.put(0, 4, h.clone()).unwrap();
    p.put(1, 4, h).unwrap();
    p.write(0, 4, &block(0xEE)).unwrap();
    assert_eq!(p.get(0, 4).unwrap()[..], block(0xEE)[..]);
}

#[test]
fn unwritten_blocks_share_one_zero_block() {
    let mut p = plane();
    let (a, b) = (p.get(0, 0).unwrap(), p.get(3, 100).unwrap());
    assert!(Arc::ptr_eq(&a, &b));
    assert!(a.is_empty(), "the zero tail is implied: an unwritten block stores no byte");
    let mut out = block(0xFF);
    p.read(0, 0, &mut out).unwrap();
    assert_eq!(out, block(0));
    assert_eq!(p.written_blocks(0), Vec::<u64>::new(), "a get stores nothing");
}

/// `put` refuses what `write` refuses, with the same error, except that
/// `put` takes a handle shorter than a block (its zero tail is implied)
/// and refuses only a longer one; a refused store is not counted.
#[test]
fn put_enforces_what_write_enforces() {
    let mut p = plane();
    p.fail(1);
    p.set_offline(2, true);
    let good = block(7);
    let long: Block = vec![7u8; BS + 1].into();
    for disk in [0, 1] {
        let short = DiskError::BadLength { expected: BS, got: 3 };
        assert_eq!(p.write(disk, 0, &[0u8; 3]).unwrap_err(), short);
        let over = DiskError::BadLength { expected: BS, got: BS + 1 };
        assert_eq!(p.put(disk, 0, long.clone()).unwrap_err(), over);
    }
    let cases: [(usize, u64, DiskError); 3] = [
        (1, 0, DiskError::Failed { disk: 1 }),
        (2, 0, DiskError::Offline { disk: 2 }),
        (0, 128, DiskError::OutOfRange { disk: 0, block: 128, capacity: 128 }),
    ];
    for (disk, blk, want) in cases {
        assert_eq!(p.write(disk, blk, &good).unwrap_err(), want);
        assert_eq!(p.put(disk, blk, good[..].into()).unwrap_err(), want);
    }
    assert!(p.write(0, 127, &good).is_ok(), "the last block is in range");
    assert!(p.put(0, 126, [7u8; 3][..].into()).is_ok(), "a short handle is legal");
    assert!(matches!(p.read(0, 0, &mut [0u8; 3]), Err(DiskError::BadLength { .. })));
    assert_eq!(p.get(1, 0).unwrap_err(), DiskError::Failed { disk: 1 });
    assert_eq!(p.get(2, 0).unwrap_err(), DiskError::Offline { disk: 2 });
    assert!(matches!(p.get(0, 128), Err(DiskError::OutOfRange { block: 128, .. })));
    assert_eq!((p.bytes_written(), p.bytes_read()), (2 * BS as u64, 0));
}

#[test]
fn xor_of_folds_every_part_into_a_fresh_block() {
    let (a, b, c) = (block(0b1010_1010), block(0b0110_0110), block(0b0000_1111));
    let x = xor_of([&a, &b, &c]);
    assert_eq!(x[..], block(0b1010_1010 ^ 0b0110_0110 ^ 0b0000_1111)[..]);
    // One part is a plain copy, in a buffer of its own.
    let h: Block = a.clone().into();
    let copy = xor_of([&h]);
    assert!(!Arc::ptr_eq(&copy, &h));
    assert_eq!(copy, h);
}

/// One block of every shape a stored block can take: all zero, one
/// leading byte then zeros, half zero, last byte zero, no zero tail.
fn shapes() -> Vec<(&'static str, Vec<u8>)> {
    let mut lead = block(0);
    lead[0] = 0x11;
    let mut half = block(0x22);
    half[BS / 2..].fill(0);
    let mut last = block(0x33);
    last[BS - 1] = 0;
    vec![
        ("all zero", block(0)),
        ("lead", lead),
        ("half", half),
        ("last", last),
        ("full", block(0x44)),
    ]
}

/// The stored length a canonical block of `bytes` must have.
fn prefix_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
}

#[test]
fn put_and_write_store_the_block_without_its_zero_tail() {
    for (name, bytes) in shapes() {
        let mut p = plane();
        p.write(0, 1, &bytes).unwrap();
        p.put(1, 1, bytes[..].into()).unwrap();
        for disk in [0, 1] {
            let stored = p.get(disk, 1).unwrap();
            assert_eq!(stored[..], bytes[..prefix_len(&bytes)], "{name}, disk {disk}");
        }
        assert_eq!(block_of(&bytes)[..], bytes[..prefix_len(&bytes)], "{name}");
        assert_eq!(p.written_blocks(0), [1], "{name}: an all-zero write is still a write");
    }
    // A handle with no zero tail is stored as given, not copied.
    let mut p = plane();
    let h: Block = block(0x44).into();
    p.put(0, 0, h.clone()).unwrap();
    assert!(Arc::ptr_eq(&p.get(0, 0).unwrap(), &h));
    // Every all-zero block is the one empty block the plane reads as unwritten.
    p.write(0, 1, &block(0)).unwrap();
    assert!(Arc::ptr_eq(&p.get(0, 1).unwrap(), &p.get(0, 2).unwrap()));
}

#[test]
fn read_zero_fills_past_the_stored_prefix() {
    for (name, bytes) in shapes() {
        let mut p = plane();
        p.put(0, 3, block_of(&bytes)).unwrap();
        let mut out = block(0xFF);
        p.read(0, 3, &mut out).unwrap();
        assert_eq!(out, bytes, "{name}");
        let mut appended = vec![0xAB];
        extend_block(&mut appended, &p.get(0, 3).unwrap(), BS);
        assert_eq!(appended[1..], bytes[..], "{name}");
    }
}

#[test]
fn xor_of_zero_extends_unequal_parts_and_is_canonical() {
    let all = shapes();
    for (i, (na, a)) in all.iter().enumerate() {
        for (nb, b) in &all[i..] {
            let (ca, cb) = (block_of(a), block_of(b));
            let mut want = a.clone();
            xor_into(&mut want, b);
            let got = xor_of([&ca, &cb]);
            assert_eq!(got[..], want[..prefix_len(&want)], "{na} ^ {nb}");
            // Order does not matter, and a third, empty, part changes nothing.
            let empty: Block = Block::from([]);
            assert_eq!(xor_of([&cb, &empty, &ca]), got, "{nb} ^ {na}");
        }
    }
    // Equal parts cancel to the empty block.
    let x = block_of(&block(0x55));
    assert!(xor_of([&x, &x]).is_empty());
}

#[test]
fn counters_count_whole_blocks_whatever_is_stored() {
    let mut p = plane();
    for (i, (_, bytes)) in shapes().into_iter().enumerate() {
        p.write(0, i as u64, &bytes).unwrap();
        p.put(1, i as u64, block_of(&bytes)).unwrap();
        p.read(0, i as u64, &mut block(0)).unwrap();
        p.get(1, i as u64).unwrap();
    }
    p.get(2, 0).unwrap();
    let n = shapes().len() as u64;
    assert_eq!(p.bytes_written(), 2 * n * BS as u64);
    assert_eq!(p.bytes_read(), (2 * n + 1) * BS as u64);
}

#[test]
fn block_of_cuts_any_length_at_its_last_non_zero_byte() {
    for len in [0usize, 1, 3, 63, 64, 65, 127, 128, 130, 200] {
        for last in [None, Some(0), Some(len / 2), len.checked_sub(1)] {
            let mut bytes = vec![0u8; len];
            if let Some(i) = last.filter(|&i| i < len) {
                bytes[..=i].fill(0x5A);
            }
            assert_eq!(
                block_of(&bytes)[..],
                bytes[..prefix_len(&bytes)],
                "len {len}, last {last:?}"
            );
        }
    }
}
