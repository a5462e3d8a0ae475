//! The lock round of a write is a constant of (client, cluster): one fan
//! built on the client's first write and shared by every later one, whose
//! arms are shared by every client, and event for event the round a write
//! would build for itself.

use std::sync::Arc;

use cdd::ops::{ACK_BYTES, CONTROL_BYTES};
use cdd::{testkit, CddConfig, IoSystem, OpBuilder};
use raidx_core::Arch;
use sim_core::plan::{par, seq};
use sim_core::trace::{EventLog, TimedEvent};
use sim_core::{Engine, Fan, Plan};

fn one_block_write(sys: &mut IoSystem, client: usize, lb: u64) -> Plan {
    let data = vec![client as u8 + 1; sys.block_size() as usize];
    sys.write(client, lb, &data).expect("healthy write")
}

/// The write plan's lock round — its `Fan` step — if it has one. Nothing
/// else in `cdd` emits a fan.
fn round_mut(write: &mut Plan) -> Option<&mut Plan> {
    let Plan::Seq(chain) = write else { panic!("a write plan is a chain, got {write:?}") };
    chain.iter_mut().find(|step| matches!(step, Plan::Fan(_)))
}

fn round(mut write: Plan) -> Arc<Fan> {
    match round_mut(&mut write) {
        Some(Plan::Fan(f)) => f.clone(),
        other => panic!("the write carries no lock round: {other:?}"),
    }
}

#[test]
fn a_clients_writes_share_one_lock_round_and_every_client_shares_the_arms() {
    let nodes = 16;
    let (_e, mut sys) = testkit::shape(nodes, 1, 16 << 20, Arch::RaidX);
    let first = round(one_block_write(&mut sys, 3, 0));
    let second = round(one_block_write(&mut sys, 3, 40));
    let other = round(one_block_write(&mut sys, 4, 80));
    assert!(Arc::ptr_eq(&first, &second), "one client, two copies of its round");
    assert!(!Arc::ptr_eq(&first, &other), "two clients, one round");
    for f in [&first, &other] {
        // The grant's sender half, the ack's receiver half, and per peer
        // the grant's receiver half then the ack's sender half.
        assert_eq!((f.head.len(), f.arms.len(), f.tail.len()), (3, nodes - 1, 2));
        assert!(f.chains().all(|p| matches!(p, Plan::Use { .. } | Plan::Delay(_))));
        assert!(f.arms.iter().all(|a| a.len() == 5));
    }
    // Arm `i` of client `c`'s round is peer `i`, or `i + 1` from `c` on.
    let arm =
        |f: &Fan, client: usize, peer: usize| f.arms[peer - usize::from(peer > client)].clone();
    for peer in (0..nodes).filter(|&n| n != 3 && n != 4) {
        assert!(Arc::ptr_eq(&arm(&first, 3, peer), &arm(&other, 4, peer)), "peer {peer}");
    }
    assert!(!Arc::ptr_eq(&arm(&first, 3, 5), &arm(&first, 3, 6)), "two peers, one arm");
}

/// The round as every write used to build it for itself: per peer a
/// chain of two messages, each message a chain of its stages.
fn reference_round(ops: &OpBuilder<'_>, client: usize) -> Plan {
    par((0..ops.cluster.cfg.nodes)
        .filter(|&n| n != client)
        .map(|n| seq(vec![ops.msg(client, n, CONTROL_BYTES), ops.msg(n, client, ACK_BYTES)]))
        .collect())
}

/// Three clients each write twice (concurrent jobs, so the rounds contend
/// for ports and CPUs); returns the engine trace. With `reference` every
/// write's fan is swapped for the round `reference_round` builds.
fn traced_writes(
    shape: (usize, usize),
    arch: Arch,
    cfg: &CddConfig,
    reference: bool,
) -> Vec<TimedEvent> {
    let (mut e, mut sys): (Engine, IoSystem) =
        testkit::shape_with(shape.0, shape.1, 16 << 20, arch, cfg.clone());
    let log = EventLog::new();
    e.set_tracer(log.clone());
    for i in 0..6 {
        let client = i % 3;
        let mut write = one_block_write(&mut sys, client, 7 * i as u64);
        let round = round_mut(&mut write);
        assert_eq!(round.is_some(), cfg.lock_broadcast, "lock_broadcast is the only switch");
        if let (true, Some(round)) = (reference, round) {
            *round = reference_round(&OpBuilder { cluster: sys.cluster() }, client);
        }
        e.validate(&write).expect("a Strict-valid plan");
        e.spawn_job(format!("w{i}"), write);
    }
    e.run().expect("no barriers, no deadlock");
    log.events()
}

#[test]
fn the_fan_runs_event_for_event_like_a_per_write_round() {
    for shape in [(4, 3), (16, 1)] {
        for arch in [Arch::Raid10, Arch::RaidX] {
            let mut events = Vec::new();
            for lock_broadcast in [true, false] {
                let cfg = CddConfig { lock_broadcast, ..CddConfig::default() };
                let shared = traced_writes(shape, arch, &cfg, false);
                let owned = traced_writes(shape, arch, &cfg, true);
                assert!(shared == owned, "{shape:?} {arch:?} lock_broadcast={lock_broadcast}");
                events.push(shared.len());
            }
            // Ten served stages per peer and write, where there is a round.
            let peers = shape.0 - 1;
            assert!(events[0] >= events[1] + 6 * peers * 10, "{shape:?} {arch:?}: {events:?}");
        }
    }
}

/// Nodes of `plan` that this plan owns: everything but the contents of
/// fans.
fn owned_nodes(plan: &Plan) -> usize {
    1 + match plan {
        Plan::Seq(v) | Plan::Par(v) => v.iter().map(owned_nodes).sum(),
        Plan::Background(p) => owned_nodes(p),
        Plan::Fan(_) | Plan::Noop | Plan::Delay(_) | Plan::Use { .. } | Plan::Barrier(_) => 0,
    }
}

#[test]
fn a_small_write_plan_owns_one_handle_not_one_round() {
    // A round built per write is 12 nodes per peer (1,524 at 128 nodes),
    // and a `Par` of per-peer handles one; the rest of a one-block write
    // is a few dozen nodes whatever the cluster size.
    for nodes in [16, 128] {
        for arch in [Arch::Raid5, Arch::Raid10, Arch::RaidX] {
            let (_e, mut sys) = testkit::shape(nodes, 1, 16 << 20, arch);
            one_block_write(&mut sys, 1, 0);
            let write = one_block_write(&mut sys, 1, 1);
            let owned = owned_nodes(&write);
            assert!(owned <= 64, "{nodes} nodes, {arch:?}: write owns {owned} plan nodes");
            assert!(write.leaf_count() > 8 * (nodes - 1), "the round is missing from the plan");
        }
    }
}

#[test]
fn a_single_node_array_has_no_lock_round() {
    // No peer, no broadcast: a fan without arms would fail `Engine::validate`.
    for arch in [Arch::Raid5, Arch::Chained, Arch::Raid10] {
        let (mut e, mut sys) = testkit::shape(1, 4, 4 << 20, arch);
        let mut write = one_block_write(&mut sys, 0, 0);
        e.validate(&write).unwrap_or_else(|errs| panic!("{arch:?}: {errs:?}"));
        assert!(round_mut(&mut write).is_none());
        e.spawn_job("w", write);
        e.run().expect("the write completes");
    }
}

#[test]
fn a_lock_message_must_fit_one_segment() {
    // The round's halves are those of a one-segment message, so a network
    // whose segment cannot hold a control message, or even an ack, is
    // refused at construction, not mis-timed.
    let build = |segment_bytes| {
        let mut cc = cluster::ClusterConfig::trojans();
        cc.net.segment_bytes = segment_bytes;
        let cfg = CddConfig::default();
        std::panic::catch_unwind(move || testkit::build_with(cc, Arch::RaidX, cfg)).is_ok()
    };
    assert!(build(CONTROL_BYTES), "a control message of one full segment was refused");
    assert!(!build(CONTROL_BYTES - 1), "a two-segment control message was accepted");
    assert!(!build(ACK_BYTES - 1), "a two-segment ack was accepted");
}
