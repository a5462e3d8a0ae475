//! Cluster file system demo: a shared file tree over the serverless
//! single I/O space, surviving a disk failure mid-workload.
//!
//! Models the paper's motivating scenario of collaborative engineering:
//! several nodes build a shared project tree concurrently, a disk dies,
//! and work continues without a central server.
//!
//! Run with: `cargo run --example cluster_fs_demo`

use cdd::{CddConfig, IoSystem};
use cfs::Fs;
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::Engine;

fn main() {
    let mut engine = Engine::new();
    let store =
        IoSystem::new(&mut engine, ClusterConfig::trojans(), Arch::RaidX, CddConfig::default());
    let (mut fs, fmt) = Fs::format(store, 4096, 0).expect("format failed");
    engine.spawn_job("mkfs", fmt);

    // Four nodes build a shared project tree concurrently.
    let mut plans = Vec::new();
    plans.push((0, fs.mkdir(0, "/project").expect("demo step failed")));
    for (node, dir) in [(1, "/project/src"), (2, "/project/docs"), (3, "/project/data")] {
        plans.push((node, fs.mkdir(node, dir).expect("demo step failed")));
    }
    for i in 0..12usize {
        let node = 1 + i % 4;
        let path = format!("/project/src/module{i}.rs");
        let body: Vec<u8> = format!("// module {i}\nfn work() {{}}\n")
            .into_bytes()
            .into_iter()
            .cycle()
            .take(4000 + i * 997)
            .collect();
        plans.push((node, fs.write_file(node, &path, &body).expect("demo step failed")));
    }
    for (node, p) in plans {
        engine.spawn_job(format!("node{node}"), p);
    }
    let report = engine.run().expect("demo step failed");
    println!("12 modules + tree built concurrently in {}", report.foreground_end);

    let (entries, _) = fs.readdir(5, "/project/src").expect("demo step failed");
    println!("/project/src holds {} files", entries.len());

    // A disk dies. The tree — metadata and data — stays fully readable.
    fs.store_mut().fail_disk(7);
    println!("\ndisk 7 failed!");
    let (entries, scan) = fs.readdir(6, "/project/src").expect("demo step failed");
    engine.spawn_job("degraded-scan", scan);
    let mut total = 0usize;
    for e in &entries {
        let (body, rp) =
            fs.read_file(6, &format!("/project/src/{}", e.name)).expect("demo step failed");
        total += body.len();
        engine.spawn_job("degraded-read", rp);
    }
    engine.run().expect("demo step failed");
    println!(
        "degraded mode: {} files ({} bytes) read back intact through the OSM images",
        entries.len(),
        total
    );

    // Hot-swap the disk and rebuild.
    let out = fs.store_mut().rebuild_disk(7, 7, None).expect("demo step failed");
    assert_eq!(out.lost, None, "the rebuild lost a block");
    engine.spawn_job("rebuild", out.plan);
    let t0 = engine.now();
    engine.run().expect("demo step failed");
    println!("rebuild restored {} blocks in {}", out.restored, engine.now().since(t0));

    // Verify a file end-to-end after the rebuild.
    let (body, _) = fs.read_file(2, "/project/src/module3.rs").expect("demo step failed");
    assert!(body.starts_with(b"// module 3"));
    println!("post-rebuild verification passed");
}
