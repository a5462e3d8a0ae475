//! Partition and failover behaviour of the request paths (moved from
//! `src/datapath.rs` unit tests when the client cache landed there).

use cdd::datapath::REQUEST_TIMEOUT;
use cdd::testkit::shape;
use cdd::IoError;
use raidx_core::Arch;
use sim_core::SimDuration;

/// A block every copy of which sits behind a partition must surface a
/// *distinct* error — not a hang, not `DataLoss` — to a client that
/// holds no copy, for reads and writes alike, while the bytes stay
/// intact on the media.
#[test]
fn a_partition_of_every_copy_surfaces_unreachable() {
    let (_engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
    let bs = sys.block_size() as usize;
    let lb = (0..64).find(|&lb| sys.layout().locate_data(lb).disk == 3).expect("lb on disk 3");
    sys.write(0, lb, &vec![9u8; bs]).expect("healthy write");
    // One disk per node, so disk d is on node d.
    let image = sys.layout().locate_images(lb)[0].disk;
    let client = (0..4).find(|&n| n != 3 && n != image).expect("a node holding no copy");
    sys.partition_node(3);
    sys.partition_node(image);
    match sys.read(client, lb, 1) {
        Err(IoError::Unreachable { node }) => assert_eq!(node, 3, "the primary's node"),
        other => panic!("read: expected Unreachable, got {other:?}"),
    }
    match sys.write(client, lb, &vec![8u8; bs]) {
        Err(IoError::Unreachable { node }) => assert_eq!(node, 3, "the primary's node"),
        other => panic!("write: expected Unreachable, got {other:?}"),
    }
    // The partitioned node itself still reaches its local disk, which the
    // refused write left as it was.
    let (got, _) = sys.read(3, lb, 1).expect("local read survives partition");
    assert_eq!(got, vec![9u8; bs]);
}

/// With one copy cut off the client fails over to the mirror replica,
/// paying exactly one bounded request timeout — never an unbounded
/// wait.
#[test]
fn partition_failover_is_bounded_by_the_request_timeout() {
    let (mut engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
    let bs = sys.block_size() as usize;
    let lb = (0..64).find(|&lb| sys.layout().locate_data(lb).disk == 3).expect("lb on disk 3");
    sys.write(0, lb, &vec![5u8; bs]).expect("healthy write");
    engine.run().expect("drain seed");
    sys.partition_node(3);
    let t0 = engine.now();
    let (got, plan) = sys.read(0, lb, 1).expect("failover read");
    assert_eq!(got, vec![5u8; bs], "replica must serve the bytes");
    assert_eq!(sys.timeouts(), 1);
    assert_eq!(sys.failovers(), 1);
    engine.spawn_job("failover-read", plan);
    engine.run().expect("failover read run");
    let elapsed = engine.now().since(t0);
    let timeout = REQUEST_TIMEOUT;
    assert!(elapsed >= timeout, "failover must pay the timed-out attempt");
    assert!(
        elapsed < SimDuration(timeout.0 * 2),
        "failover took {elapsed:?}, expected within 2x the {timeout:?} timeout"
    );
}

/// A degraded write under a partition parks the unreachable copy and
/// still acknowledges; the parked ledger drives the later resync.
#[test]
fn degraded_write_parks_unreachable_copies() {
    let (_engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
    let bs = sys.block_size() as usize;
    sys.partition_node(2);
    let lb = (0..64)
        .find(|&lb| {
            sys.layout().locate_images(lb).iter().any(|a| a.disk == 2)
                && sys.layout().locate_data(lb).disk != 2
        })
        .expect("lb imaged on disk 2");
    sys.write(0, lb, &vec![0xEE; bs]).expect("degraded write");
    assert!(sys.parked_blocks(2) > 0, "unreachable image must be parked");
    let (got, _) = sys.read(0, lb, 1).expect("read around the partition");
    assert_eq!(got, vec![0xEE; bs]);
}
