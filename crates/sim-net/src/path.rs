//! Plan builders for node-to-node transfers.

use sim_core::plan::{delay, par, seq, use_res};
use sim_core::{Demand, Plan, ResourceId};

use crate::spec::{NetSpec, HEADER_BYTES};

/// The resources a message crosses from one node to another.
///
/// `src_cpu`/`dst_cpu` are the host CPU resources charged with protocol
/// processing; `src_tx`/`dst_rx` are the NIC port resources. For a
/// node-local "transfer" use [`NetPath::local`], which costs only a memory
/// copy on the one CPU.
#[derive(Debug, Clone, Copy)]
pub struct NetPath {
    /// Sender CPU, or `None` for a path that skips sender processing.
    pub src_cpu: Option<ResourceId>,
    /// Sender NIC tx port; `None` for node-local paths.
    pub src_tx: Option<ResourceId>,
    /// Receiver NIC rx port; `None` for node-local paths.
    pub dst_rx: Option<ResourceId>,
    /// Receiver CPU.
    pub dst_cpu: Option<ResourceId>,
}

impl NetPath {
    /// A remote path crossing both hosts and both ports.
    pub fn remote(
        src_cpu: ResourceId,
        src_tx: ResourceId,
        dst_rx: ResourceId,
        dst_cpu: ResourceId,
    ) -> Self {
        NetPath {
            src_cpu: Some(src_cpu),
            src_tx: Some(src_tx),
            dst_rx: Some(dst_rx),
            dst_cpu: Some(dst_cpu),
        }
    }

    /// A node-local path: data never touches the wire, only the local CPU.
    pub fn local(cpu: ResourceId) -> Self {
        NetPath { src_cpu: Some(cpu), src_tx: None, dst_rx: None, dst_cpu: None }
    }

    /// True if the path crosses the network.
    pub fn is_remote(&self) -> bool {
        self.src_tx.is_some()
    }
}

/// Build the plan for moving `bytes` along `path`.
///
/// Remote transfers are split into `spec.segment_bytes` segments issued
/// concurrently; each segment is a cpu→tx→switch→rx→cpu chain, and the FIFO
/// queues at each resource make consecutive segments pipeline (segment 2 is
/// on the wire while segment 1 is being received). Local transfers cost one
/// CPU copy.
pub fn transfer_plan(spec: &NetSpec, path: &NetPath, bytes: u64) -> Plan {
    if !path.is_remote() {
        return match path.src_cpu {
            Some(cpu) => use_res(cpu, Demand::CpuMsg { bytes }),
            None => Plan::Noop,
        };
    }
    let n_segments = spec.segments(bytes).max(1);
    let mut segments = Vec::with_capacity(n_segments as usize);
    let mut remaining = bytes;
    for _ in 0..n_segments {
        let seg = remaining.min(spec.segment_bytes);
        remaining -= seg;
        segments.push(segment_plan(spec, path, seg));
    }
    if segments.len() == 1 {
        segments.pop().expect("one segment")
    } else {
        par(segments)
    }
}

fn segment_plan(spec: &NetSpec, path: &NetPath, payload: u64) -> Plan {
    let mut chain = Vec::with_capacity(5);
    send_half(spec, path, payload, &mut chain);
    receive_half(path, payload, &mut chain);
    seq(chain)
}

/// Append the sender half of a one-segment message of `payload` bytes
/// along `path` to `out`: source CPU, source tx port, then the switch.
/// Each stage is a leaf, so a half can be spliced into a shared chain.
pub fn send_half(spec: &NetSpec, path: &NetPath, payload: u64, out: &mut Vec<Plan>) {
    if let Some(cpu) = path.src_cpu {
        out.push(use_res(cpu, Demand::CpuMsg { bytes: payload }));
    }
    if let Some(tx) = path.src_tx {
        out.push(use_res(tx, Demand::NetXfer { bytes: payload + HEADER_BYTES }));
    }
    out.push(delay(spec.switch_latency));
}

/// Append the receiver half of a one-segment message of `payload` bytes
/// along `path` to `out`: destination rx port, then destination CPU.
pub fn receive_half(path: &NetPath, payload: u64, out: &mut Vec<Plan>) {
    if let Some(rx) = path.dst_rx {
        out.push(use_res(rx, Demand::NetXfer { bytes: payload + HEADER_BYTES }));
    }
    if let Some(cpu) = path.dst_cpu {
        out.push(use_res(cpu, Demand::CpuMsg { bytes: payload }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{Engine, FixedRate, SimDuration};

    struct Net {
        e: Engine,
        spec: NetSpec,
        path: NetPath,
    }

    fn two_nodes() -> Net {
        let spec = NetSpec::fast_ethernet();
        let mut e = Engine::new();
        let cpu_model =
            || FixedRate { per_op: spec.sw_per_message, bytes_per_sec: spec.sw_copy_rate };
        let nic_model = || FixedRate::rate(spec.link_rate);
        let cpu0 = e.add_resource("cpu0", Box::new(cpu_model()));
        let tx0 = e.add_resource("tx0", Box::new(nic_model()));
        let rx1 = e.add_resource("rx1", Box::new(nic_model()));
        let cpu1 = e.add_resource("cpu1", Box::new(cpu_model()));
        let path = NetPath::remote(cpu0, tx0, rx1, cpu1);
        Net { e, spec, path }
    }

    #[test]
    fn small_message_latency_near_base() {
        let mut n = two_nodes();
        let plan = transfer_plan(&n.spec, &n.path, 128);
        n.e.spawn_job("msg", plan);
        let rep = n.e.run().unwrap();
        let t = rep.end.as_secs_f64();
        // Order of the base latency: hundreds of microseconds, < 1 ms.
        assert!(t > 150e-6 && t < 1e-3, "t={t}");
    }

    #[test]
    fn bulk_transfer_pipelines_near_link_rate() {
        let mut n = two_nodes();
        let bytes = 4 << 20; // 4 MB
        let plan = transfer_plan(&n.spec, &n.path, bytes);
        n.e.spawn_job("bulk", plan);
        let rep = n.e.run().unwrap();
        let goodput = bytes as f64 / rep.end.as_secs_f64();
        // Pipelining should reach >85% of the 12.5 MB/s link.
        assert!(goodput > 0.85 * 12.5e6, "goodput={:.2} MB/s", goodput / 1e6);
        // ... but can never exceed it.
        assert!(goodput < 12.5e6);
    }

    #[test]
    fn bulk_transfer_serializes_on_one_wire() {
        // Two concurrent 2 MB transfers over the same tx port take twice as
        // long as one.
        let mut n = two_nodes();
        let one = transfer_plan(&n.spec, &n.path, 2 << 20);
        let two = transfer_plan(&n.spec, &n.path, 2 << 20);
        n.e.spawn_job("a", one);
        n.e.spawn_job("b", two);
        let rep = n.e.run().unwrap();
        let total = rep.end.as_secs_f64();
        assert!(total > 0.3, "expected ~0.34s for 4MB at 12.5MB/s, got {total}");
    }

    #[test]
    fn local_path_costs_only_cpu() {
        let spec = NetSpec::fast_ethernet();
        let mut e = Engine::new();
        let cpu = e.add_resource(
            "cpu",
            Box::new(FixedRate { per_op: spec.sw_per_message, bytes_per_sec: spec.sw_copy_rate }),
        );
        let plan = transfer_plan(&spec, &NetPath::local(cpu), 1 << 20);
        e.spawn_job("local", plan);
        let rep = e.run().unwrap();
        let expect = spec.sw_per_message + SimDuration::for_bytes(1 << 20, spec.sw_copy_rate);
        assert_eq!(rep.end.since(sim_core::SimTime::ZERO), expect);
    }

    #[test]
    fn zero_byte_transfer_is_a_control_message() {
        let mut n = two_nodes();
        let plan = transfer_plan(&n.spec, &n.path, 0);
        n.e.spawn_job("ctl", plan);
        let rep = n.e.run().unwrap();
        assert!(rep.end.as_nanos() > 0);
    }
}
