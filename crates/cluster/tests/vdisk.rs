//! Unit tests of the functional data plane ([`cluster::vdisk`]): the
//! copying `write`/`read` forms, the handle-sharing `put`/`get` forms,
//! and the isolation between copies that share one buffer.

use std::sync::Arc;

use cluster::{xor_into, xor_of, Block, DataPlane, DiskError};

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
    assert_eq!(p.failed_disks(), vec![1]);
    // After replacement the disk is healthy but blank.
    p.replace(1);
    assert_eq!(p.get(1, 3).unwrap()[..], block(0)[..]);
    assert!(p.failed_disks().is_empty());
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
    assert_eq!(p.get(1, 0).unwrap()[..], block(0)[..], "replacement disk is blank");
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
    assert_eq!(a[..], block(0)[..]);
    assert_eq!(p.written_blocks(0), Vec::<u64>::new(), "a get stores nothing");
}

/// `put` refuses exactly what `write` refuses, with the same error,
/// and a refused store is not counted.
#[test]
fn put_enforces_what_write_enforces() {
    let mut p = plane();
    p.fail(1);
    p.set_offline(2, true);
    let good = block(7);
    let cases: [(usize, u64, &[u8], DiskError); 5] = [
        (0, 0, &[0u8; 3], DiskError::BadLength { expected: BS, got: 3 }),
        (1, 0, &[0u8; 3], DiskError::BadLength { expected: BS, got: 3 }),
        (1, 0, &good, DiskError::Failed { disk: 1 }),
        (2, 0, &good, DiskError::Offline { disk: 2 }),
        (0, 128, &good, DiskError::OutOfRange { disk: 0, block: 128, capacity: 128 }),
    ];
    for (disk, blk, data, want) in cases {
        assert_eq!(p.write(disk, blk, data).unwrap_err(), want);
        assert_eq!(p.put(disk, blk, data.into()).unwrap_err(), want);
    }
    assert!(p.write(0, 127, &good).is_ok(), "the last block is in range");
    assert!(matches!(p.read(0, 0, &mut [0u8; 3]), Err(DiskError::BadLength { .. })));
    assert_eq!(p.get(1, 0).unwrap_err(), DiskError::Failed { disk: 1 });
    assert_eq!(p.get(2, 0).unwrap_err(), DiskError::Offline { disk: 2 });
    assert!(matches!(p.get(0, 128), Err(DiskError::OutOfRange { block: 128, .. })));
    assert_eq!((p.bytes_written(), p.bytes_read()), (BS as u64, 0));
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
