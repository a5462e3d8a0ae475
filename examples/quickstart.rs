//! Quickstart: build a RAID-x single I/O space on the Trojans cluster,
//! write and read through it from different nodes, inspect the OSM
//! layout, and see the simulated cost of each operation.
//!
//! Run with: `cargo run --example quickstart`

use cdd::{CddConfig, IoSystem};
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::Engine;

fn main() {
    // 16 Linux PCs, switched Fast Ethernet, one SCSI disk each — the
    // cluster the paper measured.
    let cfg = ClusterConfig::trojans();
    println!(
        "cluster: {} nodes x {} disk(s), {} KB blocks, {:.1} MB/s links",
        cfg.nodes,
        cfg.disks_per_node,
        cfg.block_size >> 10,
        cfg.net.link_rate as f64 / 1e6
    );

    let mut engine = Engine::new();
    let mut array = IoSystem::new(&mut engine, cfg, Arch::RaidX, CddConfig::default());
    println!(
        "single I/O space: {} ({} disks, {} logical blocks)\n",
        array.layout().name(),
        array.layout().ndisks(),
        array.capacity_blocks()
    );

    // Where do the first stripe's blocks and their images live?
    println!("OSM placement of the first stripe group:");
    for lb in 0..array.layout().stripe_width() as u64 {
        let data = array.layout().locate_data(lb);
        let image = array.layout().locate_images(lb)[0];
        println!("  block {lb}: data at {data}, image at {image} (different disks — orthogonal)");
    }

    // Node 3 writes 1 MB; node 9 reads it back. The bytes really move,
    // and the plans carry the simulated cost.
    let bs = array.block_size() as usize;
    let payload: Vec<u8> = (0..32 * bs).map(|i| (i % 251) as u8).collect();
    let write = array.write(3, 0, &payload).expect("write failed");
    engine.spawn_job("node3-writes-1MB", write);
    let report = engine.run().expect("simulation failed");
    println!("\nnode 3 wrote 1 MB in {} (foreground)", report.foreground_end);
    println!("background image flush drained at {}", report.end);

    let t0 = engine.now();
    let (data, read) = array.read(9, 0, 32).expect("read failed");
    assert_eq!(data, payload, "data corrupted in flight!");
    engine.spawn_job("node9-reads-1MB", read);
    engine.run().expect("simulation failed");
    println!("node 9 read it back in {} — bytes verified identical", engine.now().since(t0));

    // Kill a disk: the array keeps serving reads from the images.
    array.fail_disk(5);
    let (data, _) = array.read(1, 0, 32).expect("degraded read failed");
    assert_eq!(data, payload);
    println!("\ndisk 5 failed: all data still readable through OSM images");
    let out = array.rebuild_disk(5, 5, None).expect("rebuild failed");
    assert_eq!(out.lost, None, "the rebuild lost a block");
    println!("rebuilt disk 5 from surviving copies ({} blocks restored)", out.restored);
}
