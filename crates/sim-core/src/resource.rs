//! Simulated resources: single servers with pluggable service-time models.
//!
//! A resource serves one demand at a time; further demands queue, those
//! of foreground tasks ahead of those of detached
//! ([`Plan::Background`](crate::plan::Plan::Background)) ones, and within
//! a class are served in arrival order unless the model declares a
//! discipline of its own ([`ServiceModel::is_fifo`]). Service times come
//! from a [`ServiceModel`], which may keep state (a disk model remembers
//! its head position, so service time depends on history).

use crate::demand::Demand;
use crate::time::{SimDuration, SimTime};

/// Opaque handle to a resource registered with an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// The raw index of this resource inside its engine.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Computes how long a [`Demand`] occupies a resource.
///
/// Models may be stateful: the engine guarantees `service_time` is invoked in
/// simulated-time order (the order demands actually reach the head of the
/// queue), so state such as a disk head position evolves realistically.
pub trait ServiceModel: Send {
    /// Time the resource is busy serving `demand`, starting at `now`.
    fn service_time(&mut self, demand: &Demand, now: SimTime) -> SimDuration;

    /// Whether the resource serves each traffic class strictly in arrival
    /// order. The engine asks once, when the resource is registered: a
    /// FIFO resource pops the head of a queue on every completion and
    /// never calls [`ServiceModel::select_next`]. The default is `true`.
    fn is_fifo(&self) -> bool {
        true
    }

    /// Queue discipline of a non-FIFO model: index of the pending demand
    /// to serve next.
    ///
    /// Called whenever the resource finishes a demand and at least two
    /// others of the class served next wait (foreground if any waits,
    /// else background); `pending` yields those in arrival order, once.
    /// The engine panics on an index outside the yielded range. A disk model
    /// implements SSTF or elevator scheduling over the queued offsets
    /// here.
    fn select_next(&mut self, pending: &mut dyn Iterator<Item = &Demand>) -> usize {
        let _ = pending;
        0
    }
}

/// A fixed-rate service model: `per_op` setup cost plus `bytes/bytes_per_sec`.
///
/// Suitable for NIC ports, buses, DMA engines and per-message CPU overhead,
/// where cost is affine in the payload size.
#[derive(Debug, Clone)]
pub struct FixedRate {
    /// Setup/overhead charged once per operation.
    pub per_op: SimDuration,
    /// Streaming bandwidth; 0 disables the per-byte component.
    pub bytes_per_sec: u64,
}

impl FixedRate {
    /// A model with only a per-operation cost.
    pub fn per_op(d: SimDuration) -> Self {
        FixedRate { per_op: d, bytes_per_sec: 0 }
    }

    /// A model with only a bandwidth component.
    pub fn rate(bytes_per_sec: u64) -> Self {
        FixedRate { per_op: SimDuration::ZERO, bytes_per_sec }
    }
}

impl ServiceModel for FixedRate {
    #[expect(clippy::wildcard_enum_match_arm, reason = "non-Busy demands are priced by byte count")]
    fn service_time(&mut self, demand: &Demand, _now: SimTime) -> SimDuration {
        match demand {
            Demand::Busy(d) => *d,
            d => self.per_op + SimDuration::for_bytes(d.bytes(), self.bytes_per_sec),
        }
    }
}

/// Aggregate statistics for one resource over a run.
#[derive(Debug, Clone, Default)]
pub struct ResourceStats {
    /// Total simulated time the resource spent serving demands.
    pub busy: SimDuration,
    /// Number of demands served.
    pub ops: u64,
    /// Total payload bytes across served demands.
    pub bytes: u64,
    /// Sum of time demands spent waiting in queue before service.
    pub queue_wait: SimDuration,
    /// Largest queue length observed (including the demand in service).
    pub max_queue: usize,
    /// The share of `ops` demanded by detached
    /// ([`Plan::Background`](crate::plan::Plan::Background)) tasks; the
    /// foreground share is the difference.
    pub bg_ops: u64,
    /// The share of `queue_wait` spent by those background demands.
    pub bg_queue_wait: SimDuration,
}

impl ResourceStats {
    /// Fraction of `span` the resource was busy (0..=1).
    pub fn utilization(&self, span: SimDuration) -> f64 {
        if span.as_nanos() == 0 {
            0.0
        } else {
            self.busy.as_nanos() as f64 / span.as_nanos() as f64
        }
    }

    /// Mean queueing delay per served demand.
    pub fn mean_wait(&self) -> SimDuration {
        match self.queue_wait.as_nanos().checked_div(self.ops) {
            Some(ns) => SimDuration(ns),
            None => SimDuration::ZERO,
        }
    }

    /// Demands served for foreground tasks: `ops` less the background share.
    pub fn fg_ops(&self) -> u64 {
        self.ops - self.bg_ops
    }

    /// Time foreground demands spent queued: `queue_wait` less the
    /// background share.
    pub fn fg_queue_wait(&self) -> SimDuration {
        self.queue_wait.saturating_sub(self.bg_queue_wait)
    }

    /// Achieved throughput in bytes/sec over `span`.
    pub fn throughput(&self, span: SimDuration) -> f64 {
        if span.as_nanos() == 0 {
            0.0
        } else {
            self.bytes as f64 / span.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_charges_setup_plus_bytes() {
        let mut m = FixedRate { per_op: SimDuration::from_micros(100), bytes_per_sec: 1_000_000 };
        let t = m.service_time(&Demand::NetXfer { bytes: 1_000_000 }, SimTime::ZERO);
        assert_eq!(t, SimDuration::from_micros(100) + SimDuration::from_secs(1));
    }

    #[test]
    fn fixed_rate_busy_passthrough() {
        let mut m = FixedRate::rate(10);
        let t = m.service_time(&Demand::Busy(SimDuration::from_millis(7)), SimTime::ZERO);
        assert_eq!(t, SimDuration::from_millis(7));
    }

    #[test]
    fn utilization_and_wait() {
        let s = ResourceStats {
            busy: SimDuration::from_millis(500),
            ops: 5,
            bytes: 5_000_000,
            queue_wait: SimDuration::from_millis(50),
            max_queue: 3,
            ..Default::default()
        };
        assert!((s.utilization(SimDuration::from_secs(1)) - 0.5).abs() < 1e-12);
        assert_eq!(s.mean_wait(), SimDuration::from_millis(10));
        assert!((s.throughput(SimDuration::from_secs(1)) - 5_000_000.0).abs() < 1e-6);
        assert_eq!(ResourceStats::default().mean_wait(), SimDuration::ZERO);
        assert_eq!(ResourceStats::default().utilization(SimDuration::ZERO), 0.0);
    }
}
