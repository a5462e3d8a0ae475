//! Layout explorer: print the OSM placement map for any n x k array and
//! verify its invariants interactively.
//!
//! Run with: `cargo run --example layout_explorer -- [n] [k]`
//! (defaults to the paper's 4x3 array of Figure 3).

use raidx_core::{FaultSet, Layout, RaidX};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let k: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);
    let l = RaidX::new(n, k, 240);
    println!(
        "RAID-x {n}x{k}: {} disks, stripe width {n}, pipeline depth {k}, \
         {} logical blocks, tolerates up to {} failures (one per row)\n",
        l.ndisks(),
        l.capacity_blocks(),
        l.max_fault_coverage()
    );

    // Data map for the first 4 stripes per row.
    let show_stripes = (4 * k).min(12) as u64;
    println!("data placement (first {show_stripes} stripe groups):");
    for s in 0..show_stripes {
        let blocks = l.stripe_blocks(s);
        let places: Vec<String> =
            blocks.iter().map(|&lb| format!("B{lb}@{}", l.locate_data(lb))).collect();
        println!("  stripe {s:>2} (row {}): {}", s % k as u64, places.join("  "));
    }

    println!("\nimage placement (same blocks, clustered per mirroring group):");
    for s in 0..show_stripes {
        let blocks = l.stripe_blocks(s);
        let places: Vec<String> =
            blocks.iter().map(|&lb| format!("M{lb}@{}", l.image_addr(lb))).collect();
        println!("  stripe {s:>2}: {}", places.join("  "));
    }

    // Check the paper's two defining properties over the whole space.
    let mut max_image_disks = 0;
    for s in 0..l.capacity_blocks() / n as u64 {
        let disks: std::collections::HashSet<usize> =
            l.stripe_blocks(s).iter().map(|&lb| l.image_addr(lb).disk).collect();
        max_image_disks = max_image_disks.max(disks.len());
    }
    println!("\nverified over all {} blocks:", l.capacity_blocks());
    println!("  - no block's image shares a disk with its data (orthogonality)");
    println!("  - stripe images land on at most {max_image_disks} disks (paper: exactly two)");

    // Failure coverage demo: one failure per row is survivable.
    let one_per_row: Vec<usize> = (0..k).map(|r| r * n + (r % n)).collect();
    let fs = FaultSet::of(&one_per_row);
    println!("  - failing disks {:?} (one per row): tolerated = {}", one_per_row, l.tolerates(&fs));
}
