#![warn(missing_docs)]
//! # checkpoint — striped checkpointing with staggering on RAID-x
//!
//! Section 6 of the paper: coordinated checkpointing of `P` processes onto
//! the distributed array. Writing all checkpoints at once causes network
//! and disk contention; writing them to a central server causes an I/O
//! bottleneck. The paper's scheme does both fixes at once:
//!
//! * **striping** — each stagger group writes its checkpoints in parallel
//!   across a stripe group of disks (full-stripe bandwidth);
//! * **staggering** — groups take turns (Figure 7's staircase), bounding
//!   instantaneous contention; the `n×k` array can be *reconfigured*
//!   (4×3 ↔ 6×2 ↔ 12×1) to trade stripe parallelism against stagger
//!   depth.
//!
//! Recovery: a transient failure restores from the checkpoint's **local
//! mirrored image** (OSM keeps one image per block in the same row);
//! a permanent disk failure restores through the degraded read path.
//! [`two_level`] times both paths. Neither writes a commit record or a
//! journal: a checkpoint is ordinary array writes, so its crash recovery
//! is the array's own (`cdd::IoSystem::crash_node`, transient resync and
//! rebuild, exercised by the verify fault sweep).

pub mod two_level;

pub use two_level::{image_local_blocks, run_two_level, TwoLevelResult};

use cdd::{BlockStore, IoError};
use sim_core::plan::{barrier, delay, seq};
use sim_core::{BarrierId, Engine, Plan, SimDuration};

/// Coordination (synchronization) overhead per process per round — the
/// paper's `S`.
const SYNC_OVERHEAD: SimDuration = SimDuration::from_millis(2);

/// Parameters of a striped, staggered checkpoint run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Number of application processes (one per client slot, round-robin
    /// over nodes).
    pub processes: usize,
    /// Processes checkpointing simultaneously (the stripe group size;
    /// `processes` ⇒ no staggering).
    pub stagger_width: usize,
    /// Checkpoint image bytes per process.
    pub ckpt_bytes: u64,
    /// Checkpoint rounds to run.
    pub rounds: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { processes: 12, stagger_width: 4, ckpt_bytes: 1 << 20, rounds: 2 }
    }
}

/// Outcome of a checkpoint run.
#[derive(Debug, Clone)]
pub struct CheckpointResult {
    /// Wall-clock span of each round (last process done − round start).
    pub round_secs: Vec<f64>,
    /// Mean time a process was blocked (sync + waiting its turn +
    /// writing), averaged over processes and rounds — the cost
    /// checkpointing imposes on the application.
    pub mean_blocked_secs: f64,
    /// Blocked time of the *first* stagger group (they resume earliest —
    /// the staircase's bottom step).
    pub first_group_blocked_secs: f64,
}

/// Deterministic checkpoint payload for process `p`, round `r`.
pub fn ckpt_pattern(p: usize, r: usize, bytes: usize) -> Vec<u8> {
    (0..bytes).map(|i| ((p * 131 + r * 17 + i * 7) % 256) as u8).collect()
}

fn region_for(cfg: &CheckpointConfig, store: &impl BlockStore, p: usize, r: usize) -> u64 {
    // Two alternating checkpoint regions per process (double buffering),
    // disjoint across processes.
    let bs = store.block_size();
    let nblocks = cfg.ckpt_bytes.div_ceil(bs);
    (p as u64 * 2 + (r % 2) as u64) * nblocks
}

/// Run `cfg.rounds` coordinated checkpoints over `store`.
///
/// Every process writes a distinct deterministic pattern; the data is
/// verifiable afterwards with [`verify_checkpoint`].
pub fn run_striped_checkpoint<S: BlockStore>(
    engine: &mut Engine,
    store: &mut S,
    cfg: &CheckpointConfig,
) -> Result<CheckpointResult, IoError> {
    assert!(cfg.stagger_width > 0 && cfg.processes > 0);
    let bs = store.block_size();
    let nblocks = cfg.ckpt_bytes.div_ceil(bs);
    assert!(
        cfg.processes as u64 * 2 * nblocks <= store.capacity_blocks(),
        "checkpoint regions exceed capacity"
    );
    let nodes = store.nodes();
    let groups = cfg.processes.div_ceil(cfg.stagger_width);

    // Barriers: one global sync, plus one hand-off barrier between each
    // pair of consecutive stagger groups. All are cyclic across rounds.
    let sync = BarrierId(0xC0DE);
    engine.register_barrier(sync, cfg.processes);
    for g in 0..groups.saturating_sub(1) {
        let members = group_size(cfg, g) + group_size(cfg, g + 1);
        engine.register_barrier(BarrierId(0xC100 + g as u32), members);
    }

    let mut round_secs = Vec::with_capacity(cfg.rounds);
    let mut blocked_total = 0.0;
    let mut first_group_blocked = 0.0;
    for r in 0..cfg.rounds {
        let start = engine.now();
        for p in 0..cfg.processes {
            let g = p / cfg.stagger_width;
            let node = p % nodes;
            let lb0 = region_for(cfg, store, p, r);
            let payload = {
                let mut v = ckpt_pattern(p, r, cfg.ckpt_bytes as usize);
                v.resize((nblocks * bs) as usize, 0);
                v
            };
            let write = store.write(node, lb0, &payload)?;
            let mut steps: Vec<Plan> = vec![barrier(sync), delay(SYNC_OVERHEAD)];
            if g > 0 {
                steps.push(barrier(BarrierId(0xC100 + (g - 1) as u32)));
            }
            steps.push(write);
            if g + 1 < groups {
                steps.push(barrier(BarrierId(0xC100 + g as u32)));
            }
            engine.spawn_job(format!("ckpt/r{r}/p{p}"), seq(steps));
        }
        let report = engine.run().expect("checkpoint deadlocked");
        round_secs.push(report.foreground_end.since(start).as_secs_f64());
        let jobs = engine.jobs();
        let this_round = &jobs[jobs.len() - cfg.processes..];
        for (p, j) in this_round.iter().enumerate() {
            let blocked = j.try_latency().map_or(0.0, |d| d.as_secs_f64());
            blocked_total += blocked;
            if p / cfg.stagger_width == 0 {
                first_group_blocked += blocked;
            }
        }
    }
    let first_group = group_size(cfg, 0);
    Ok(CheckpointResult {
        round_secs,
        mean_blocked_secs: blocked_total / (cfg.processes * cfg.rounds) as f64,
        first_group_blocked_secs: first_group_blocked / (first_group * cfg.rounds) as f64,
    })
}

fn group_size(cfg: &CheckpointConfig, g: usize) -> usize {
    let start = g * cfg.stagger_width;
    cfg.stagger_width.min(cfg.processes - start)
}

/// Verify that process `p`'s checkpoint from round `r` is intact,
/// returning the read plan (use after failures to exercise recovery).
pub fn verify_checkpoint<S: BlockStore>(
    store: &mut S,
    cfg: &CheckpointConfig,
    p: usize,
    r: usize,
) -> Result<Plan, IoError> {
    let bs = store.block_size();
    let nblocks = cfg.ckpt_bytes.div_ceil(bs);
    let lb0 = region_for(cfg, store, p, r);
    let (bytes, plan) = store.read(p % store.nodes(), lb0, nblocks)?;
    let expect = ckpt_pattern(p, r, cfg.ckpt_bytes as usize);
    if bytes[..expect.len()] != expect[..] {
        return Err(IoError::DataLoss { lb: lb0 });
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd::IoSystem;
    use raidx_core::Arch;

    fn setup(nodes: usize, k: usize) -> (Engine, IoSystem) {
        cdd::testkit::shape(nodes, k, 256 << 20, Arch::RaidX)
    }

    #[test]
    fn checkpoints_complete_and_verify() {
        let (mut e, mut s) = setup(4, 3);
        let cfg =
            CheckpointConfig { processes: 12, stagger_width: 4, rounds: 2, ..Default::default() };
        let r = run_striped_checkpoint(&mut e, &mut s, &cfg).unwrap();
        assert_eq!(r.round_secs.len(), 2);
        assert!(r.round_secs.iter().all(|&t| t > 0.0));
        for p in 0..12 {
            verify_checkpoint(&mut s, &cfg, p, 1).unwrap();
        }
    }

    #[test]
    fn staggering_staircase_first_group_resumes_early() {
        let (mut e, mut s) = setup(4, 3);
        let cfg =
            CheckpointConfig { processes: 12, stagger_width: 4, rounds: 1, ..Default::default() };
        let r = run_striped_checkpoint(&mut e, &mut s, &cfg).unwrap();
        // Figure 7: group 0 resumes well before the round ends.
        assert!(
            r.first_group_blocked_secs < 0.6 * r.round_secs[0],
            "first group blocked {} of round {}",
            r.first_group_blocked_secs,
            r.round_secs[0]
        );
    }

    #[test]
    fn staggering_cuts_first_group_blocking_vs_no_stagger() {
        let run_width = |w: usize| {
            let (mut e, mut s) = setup(4, 3);
            let cfg = CheckpointConfig {
                processes: 12,
                stagger_width: w,
                rounds: 1,
                ..Default::default()
            };
            run_striped_checkpoint(&mut e, &mut s, &cfg).unwrap()
        };
        let all_at_once = run_width(12);
        let staggered = run_width(4);
        // Without staggering everyone contends on the same stripes; a
        // staggered group of 4 finishes its own writes much sooner.
        assert!(
            staggered.first_group_blocked_secs < 0.7 * all_at_once.mean_blocked_secs,
            "staggered first group {:.4}s vs unstaggered mean {:.4}s",
            staggered.first_group_blocked_secs,
            all_at_once.mean_blocked_secs
        );
    }

    #[test]
    fn transient_failure_recovers_from_mirror() {
        let (mut e, mut s) = setup(4, 1);
        let cfg =
            CheckpointConfig { processes: 4, stagger_width: 2, rounds: 1, ..Default::default() };
        run_striped_checkpoint(&mut e, &mut s, &cfg).unwrap();
        // Permanent single-disk failure: every checkpoint still verifies
        // through the OSM images.
        s.fail_disk(2);
        for p in 0..4 {
            verify_checkpoint(&mut s, &cfg, p, 0).unwrap();
        }
    }

    #[test]
    fn corrupted_checkpoint_detected() {
        let (mut e, mut s) = setup(4, 1);
        let cfg =
            CheckpointConfig { processes: 2, stagger_width: 2, rounds: 1, ..Default::default() };
        run_striped_checkpoint(&mut e, &mut s, &cfg).unwrap();
        // Overwrite process 0's region with garbage.
        let bs = s.block_size();
        let junk = vec![0u8; bs as usize];
        cdd::BlockStore::write(&mut s, 0, 0, &junk).unwrap();
        assert!(verify_checkpoint(&mut s, &cfg, 0, 0).is_err());
    }
}
