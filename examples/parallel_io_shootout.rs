//! Parallel I/O shoot-out: the Figure 5 experiment in miniature.
//!
//! Compares NFS, RAID-5, RAID-10 and RAID-x aggregate bandwidth for the
//! four access patterns at a chosen client count — the scenario from the
//! paper's introduction: many cluster nodes doing I/O-centric work
//! (data mining, multimedia, collaborative engineering) at once.
//!
//! Run with: `cargo run --release --example parallel_io_shootout [clients]`

use cdd::{BlockStore, CddConfig, IoSystem};
use cluster::ClusterConfig;
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::Engine;
use workloads::{run_parallel_io, IoPattern, ParallelIoConfig};

type StoreBuilder = Box<dyn Fn(&mut Engine) -> Box<dyn BlockStore>>;

fn measure(
    build: &dyn Fn(&mut Engine) -> Box<dyn BlockStore>,
    pattern: IoPattern,
    clients: usize,
) -> f64 {
    let mut engine = Engine::new();
    let mut store = build(&mut engine);
    let cfg = ParallelIoConfig { clients, pattern, repeats: 3, ..Default::default() };
    run_parallel_io(&mut engine, &mut store, &cfg).expect("run failed").aggregate_mbs
}

fn main() {
    let clients: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    println!("parallel I/O shoot-out on the Trojans cluster, {clients} clients\n");

    let systems: Vec<(&str, StoreBuilder)> = vec![
        (
            "NFS",
            Box::new(|e: &mut Engine| -> Box<dyn BlockStore> {
                Box::new(NfsSystem::new(e, ClusterConfig::trojans(), NfsConfig::default()))
            }),
        ),
        (
            "RAID-5",
            Box::new(|e: &mut Engine| -> Box<dyn BlockStore> {
                Box::new(IoSystem::new(
                    e,
                    ClusterConfig::trojans(),
                    Arch::Raid5,
                    CddConfig::default(),
                ))
            }),
        ),
        (
            "RAID-10",
            Box::new(|e: &mut Engine| -> Box<dyn BlockStore> {
                Box::new(IoSystem::new(
                    e,
                    ClusterConfig::trojans(),
                    Arch::Raid10,
                    CddConfig::default(),
                ))
            }),
        ),
        (
            "RAID-x",
            Box::new(|e: &mut Engine| -> Box<dyn BlockStore> {
                Box::new(IoSystem::new(
                    e,
                    ClusterConfig::trojans(),
                    Arch::RaidX,
                    CddConfig::default(),
                ))
            }),
        ),
    ];

    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "architecture", "large read", "small read", "large write", "small write"
    );
    for (name, build) in &systems {
        print!("{name:<14}");
        for pattern in IoPattern::ALL {
            let mbs = measure(build.as_ref(), pattern, clients);
            print!(" {mbs:>7.2} MB/s");
        }
        println!();
    }
    println!("\n(aggregate foreground bandwidth; RAID-x image flushes drain in the background)");
}
