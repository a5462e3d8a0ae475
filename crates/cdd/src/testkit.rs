//! Shared construction helpers for tests, benches and experiments, and
//! the one check of the lock record ([`grants_of`]).
//!
//! Nearly every test in the workspace opens with the same four lines:
//! build an [`Engine`], shape a [`ClusterConfig`], construct an
//! [`IoSystem`] with the default [`CddConfig`]. These constructors
//! deduplicate that boilerplate; they are ordinary public functions (not
//! `cfg(test)`) so downstream crates' tests and benches can use them.

use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::trace::{render_event, AccessKind, TimedEvent, TraceEvent};
use sim_core::{Engine, SimTime};

use crate::config::CddConfig;
use crate::system::IoSystem;

/// What the lock record of a traced stream adds up to ([`grants_of`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Grants {
    /// `Acquire`/`Release` pairs.
    pub pairs: u64,
    /// Pairs at or past the array's capacity: the epoch meta range.
    pub meta_pairs: u64,
    /// `Write`s, each inside its writer's pair.
    pub writes: u64,
}

/// Walk the lock record of `events` (the `Access` events an
/// [`IoSystem::set_tracer`] tracer receives) and check its contract:
/// every grant is one `Acquire` … `Release` pair on one protocol tick, no
/// grant is taken under a live one, and every `Write` lies inside its
/// writer's live grant, on that grant's tick. `capacity` is the array's
/// [`IoSystem::capacity_blocks`]. The first breach is the `Err`.
pub fn grants_of(events: &[TimedEvent], capacity: u64) -> Result<Grants, String> {
    let mut out = Grants::default();
    // The live grant: (tick, client, first block, blocks).
    let mut live: Option<(SimTime, usize, u64, u64)> = None;
    for (i, te) in events.iter().enumerate() {
        let TraceEvent::Access { client, lb, len, kind } = te.event else { continue };
        let this = (te.at, client, lb, len);
        match (kind, live) {
            (AccessKind::Acquire, None) => live = Some(this),
            (AccessKind::Release, Some(grant)) if grant == this => {
                live = None;
                out.pairs += 1;
                out.meta_pairs += u64::from(lb >= capacity);
            }
            (AccessKind::Write, Some((at, owner, first, blocks)))
                if (at, owner) == (te.at, client) && first <= lb && lb + len <= first + blocks =>
            {
                out.writes += 1;
            }
            (AccessKind::Acquire | AccessKind::Release | AccessKind::Write, _) => {
                let what = match kind {
                    AccessKind::Acquire => "a grant taken under a live grant",
                    AccessKind::Write => "a write outside its writer's grant",
                    AccessKind::Release => "a release without its acquire",
                };
                return Err(format!("event {i} `{}`: {what} (live: {live:?})", render_event(te)));
            }
        }
    }
    match live {
        None => Ok(out),
        Some(grant) => Err(format!("grant {grant:?} outlived the stream")),
    }
}

/// Build `arch` over an explicit cluster config with an explicit CDD
/// config. The most general constructor; the others delegate here.
pub fn build_with(cc: ClusterConfig, arch: Arch, cfg: CddConfig) -> (Engine, IoSystem) {
    let mut engine = Engine::new();
    let sys = IoSystem::new(&mut engine, cc, arch, cfg);
    (engine, sys)
}

/// Build `arch` over an explicit cluster config with the default CDD
/// config.
pub fn build(cc: ClusterConfig, arch: Arch) -> (Engine, IoSystem) {
    build_with(cc, arch, CddConfig::default())
}

/// Build `arch` on the paper's Trojans-class cluster with defaults —
/// the standard workload/bench setup.
pub fn trojans(arch: Arch) -> (Engine, IoSystem) {
    build(ClusterConfig::trojans(), arch)
}

/// Build `arch` on the Trojans-class cluster with a custom per-disk
/// capacity (benches that write far need bigger platters).
pub fn trojans_with_capacity(arch: Arch, disk_capacity: u64) -> (Engine, IoSystem) {
    let mut cc = ClusterConfig::trojans();
    cc.disk.capacity = disk_capacity;
    build(cc, arch)
}

/// Build `arch` on an `nodes × disks_per_node` array with `disk_capacity`
/// bytes per disk — the standard small-cluster test setup.
pub fn shape(
    nodes: usize,
    disks_per_node: usize,
    disk_capacity: u64,
    arch: Arch,
) -> (Engine, IoSystem) {
    let mut cc = ClusterConfig::shape(nodes, disks_per_node);
    cc.disk.capacity = disk_capacity;
    build(cc, arch)
}

/// Like [`shape`], with a custom CDD config.
pub fn shape_with(
    nodes: usize,
    disks_per_node: usize,
    disk_capacity: u64,
    arch: Arch,
    cfg: CddConfig,
) -> (Engine, IoSystem) {
    let mut cc = ClusterConfig::shape(nodes, disks_per_node);
    cc.disk.capacity = disk_capacity;
    build_with(cc, arch, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_working_systems() {
        let (_e, s) = trojans(Arch::RaidX);
        assert_eq!(s.cluster.cfg.nodes, ClusterConfig::trojans().nodes);
        let (_e, mut s) = shape(4, 1, 4 << 20, Arch::Raid5);
        let bs = s.block_size() as usize;
        s.write(0, 0, &vec![1u8; bs]).unwrap();
        let (got, _) = s.read(1, 0, 1).unwrap();
        assert_eq!(got, vec![1u8; bs]);
        let (_e, s) = shape_with(
            4,
            1,
            4 << 20,
            Arch::RaidX,
            CddConfig { max_image_backlog: Some(4), ..CddConfig::default() },
        );
        assert_eq!(s.pending_image_blocks(), 0);
    }

    /// A lock record with one grant dropped — its `Acquire` and `Release`
    /// cut out of a real stream — leaves that grant's write uncovered.
    #[test]
    fn walk_rejects_a_stream_with_a_dropped_grant() {
        let (_e, mut s) = shape(4, 1, 4 << 20, Arch::RaidX);
        let log = sim_core::EventLog::new();
        s.set_tracer(log.clone());
        let bs = s.block_size() as usize;
        for (client, lb) in [(0, 0), (1, 2), (2, 8)] {
            s.write(client, lb, &vec![7u8; 2 * bs]).unwrap();
        }
        let events = log.events();
        let cap = s.capacity_blocks();
        assert_eq!(grants_of(&events, cap), Ok(Grants { pairs: 3, meta_pairs: 0, writes: 3 }));

        // Client 1's grant over blocks 2..4.
        let index_of = |kind| {
            let ev = TraceEvent::Access { client: 1, lb: 2, len: 2, kind };
            events.iter().position(|te| te.event == ev).unwrap()
        };
        let (acquire, release) = (index_of(AccessKind::Acquire), index_of(AccessKind::Release));
        let dropped: Vec<TimedEvent> = events
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != acquire && i != release)
            .map(|(_, te)| te.clone())
            .collect();
        let err = grants_of(&dropped, cap).unwrap_err();
        assert!(err.contains("a write outside its writer's grant"), "{err}");
    }
}
