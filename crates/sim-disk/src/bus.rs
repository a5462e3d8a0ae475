//! Shared I/O bus model.

use sim_core::{Demand, ServiceModel, SimDuration, SimTime};

/// Bus bandwidth (UltraWide-SCSI class, the Trojans nodes' bus),
/// bytes/second.
pub const BUS_RATE: u64 = 40_000_000;
/// Arbitration + command phase overhead charged per transfer.
pub const BUS_PER_COMMAND: SimDuration = SimDuration::from_micros(50);

/// A shared SCSI-style bus.
///
/// Every transfer to or from a disk on the bus holds it for
/// `BUS_PER_COMMAND + bytes / BUS_RATE`. Because the engine gives each
/// resource a FIFO queue, the k disks of one node contend here — producing
/// exactly the pipelined (rather than parallel) access the paper describes
/// for consecutive stripe groups on the same SCSI bus.
pub struct ScsiBus;

impl ServiceModel for ScsiBus {
    fn service_time(&mut self, demand: &Demand, _now: SimTime) -> SimDuration {
        match *demand {
            Demand::Busy(d) => d,
            Demand::BusXfer { bytes } => BUS_PER_COMMAND + SimDuration::for_bytes(bytes, BUS_RATE),
            ref other => panic!("bus received non-bus demand {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::plan::{par, use_res};
    use sim_core::Engine;

    #[test]
    fn charges_arbitration_plus_bytes() {
        let t = ScsiBus.service_time(&Demand::BusXfer { bytes: 40_000_000 }, SimTime::ZERO);
        assert_eq!(t, SimDuration::from_micros(50) + SimDuration::from_secs(1));
    }

    #[test]
    fn serializes_concurrent_disk_transfers() {
        let mut e = Engine::new();
        let bus = e.add_resource("scsi0", Box::new(ScsiBus));
        // Three disks on one bus push 1 MB each: the bus is the bottleneck.
        e.spawn_job(
            "xfer",
            par((0..3).map(|_| use_res(bus, Demand::BusXfer { bytes: 1 << 20 })).collect()),
        );
        let rep = e.run().unwrap();
        let expect =
            (SimDuration::from_micros(50) + SimDuration::for_bytes(1 << 20, 40_000_000)) * 3;
        assert_eq!(rep.end.since(SimTime::ZERO), expect);
    }

    #[test]
    #[should_panic(expected = "non-bus demand")]
    fn rejects_disk_demand() {
        ScsiBus.service_time(&Demand::DiskRead { offset: 0, bytes: 1 }, SimTime::ZERO);
    }
}
