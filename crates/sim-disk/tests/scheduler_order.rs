//! SSTF and Elevator driven through the engine: the exact service order of
//! a scripted batch that mixes `Busy` and disk demands and contains
//! equal-distance ties. The expected orders were recorded from the engine
//! before its queues stopped holding demands, so they pin the discipline
//! across that rewrite: the first minimum in arrival order wins a tie;
//! `Busy` is distance 0 under SSTF and is passed over by the Elevator until
//! neither sweep direction has a disk request left.

use sim_core::plan::{par, use_res};
use sim_core::trace::{EventLog, TraceEvent};
use sim_core::{Demand, Engine, SimDuration};
use sim_disk::spec::SchedPolicy;
use sim_disk::{DiskModel, DiskSpec};

const U: u64 = 4096;

fn read(unit: u64) -> Demand {
    Demand::DiskRead { offset: unit * U, bytes: U }
}

fn busy(us: u64) -> Demand {
    Demand::Busy(SimDuration::from_micros(us))
}

/// The batch, in arrival order. #0 enters service on the idle disk and
/// leaves the head at unit 101; the rest wait and are picked by `policy`.
fn batch() -> Vec<Demand> {
    vec![
        read(100), // #0 in service first; head -> 101
        read(103), // #1 two units above the head
        busy(50),  // #2
        read(99),  // #3 two units below the head: ties with #1
        read(101), // #4 exactly at the head: ahead in both directions
        busy(70),  // #5
        read(105), // #6
        read(97),  // #7
        read(103), // #8 same offset as #1
    ]
}

/// Indices into [`batch`] in the order the disk served them.
fn service_order(policy: SchedPolicy) -> Vec<u32> {
    let mut spec = DiskSpec::classic_scsi();
    spec.scheduler = policy;
    let mut e = Engine::new();
    let d = e.add_resource("disk", Box::new(DiskModel::new(spec, 7)));
    let log = EventLog::new();
    e.set_tracer(Box::new(log.clone()));
    e.spawn_job("batch", par(batch().into_iter().map(|dm| use_res(d, dm)).collect()));
    e.run().expect("no barriers, cannot deadlock");
    // The root is task 0 and the `Par` children are tasks 1..=n in order.
    log.events()
        .iter()
        .filter_map(|ev| match ev.event {
            TraceEvent::ServiceStarted { task, .. } => Some(task - 1),
            _ => None,
        })
        .collect()
}

#[test]
fn fcfs_serves_in_arrival_order() {
    assert_eq!(service_order(SchedPolicy::Fcfs), [0, 1, 2, 3, 4, 5, 6, 7, 8]);
}

#[test]
fn sstf_order_is_pinned() {
    // #2 and #4 tie at distance 0 and the earlier arrival wins, as #6 does
    // against #8 once the head sits at unit 104.
    assert_eq!(service_order(SchedPolicy::Sstf), [0, 2, 4, 5, 1, 6, 8, 3, 7]);
}

#[test]
fn elevator_order_is_pinned() {
    // Up: #4, #1 (beating #8 at the same offset), #6; down: #8, #3, #7;
    // only then the two `Busy` demands, in arrival order.
    assert_eq!(service_order(SchedPolicy::Elevator), [0, 4, 1, 6, 8, 3, 7, 2, 5]);
}
