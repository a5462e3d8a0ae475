//! Integration tests asserting the paper's headline claims hold in the
//! reproduction, end to end through the public API.

use raidx_cluster::bench_workloads::{run_parallel_io, IoPattern, ParallelIoConfig};
use raidx_cluster::drivers::{CddConfig, IoSystem, NfsConfig, NfsSystem};
use raidx_cluster::hw::ClusterConfig;
use raidx_cluster::layouts::{Arch, PeakModel};
use raidx_cluster::sim::Engine;

fn bandwidth(arch: Arch, pattern: IoPattern, clients: usize) -> f64 {
    let mut engine = Engine::new();
    let mut store =
        IoSystem::new(&mut engine, ClusterConfig::trojans(), arch, CddConfig::default());
    let cfg = ParallelIoConfig { clients, pattern, repeats: 3, ..Default::default() };
    run_parallel_io(&mut engine, &mut store, &cfg)
        .expect("parallel I/O workload failed")
        .aggregate_mbs
}

fn nfs_bandwidth(pattern: IoPattern, clients: usize) -> f64 {
    let mut engine = Engine::new();
    let mut store = NfsSystem::new(&mut engine, ClusterConfig::trojans(), NfsConfig::default());
    let cfg = ParallelIoConfig { clients, pattern, repeats: 3, ..Default::default() };
    run_parallel_io(&mut engine, &mut store, &cfg)
        .expect("parallel I/O workload failed")
        .aggregate_mbs
}

/// "For small writes, RAID-x achieved ... 3 times higher than RAID-5."
#[test]
fn claim_small_write_factor_over_raid5() {
    let rx = bandwidth(Arch::RaidX, IoPattern::SmallWrite, 16);
    let r5 = bandwidth(Arch::Raid5, IoPattern::SmallWrite, 16);
    let factor = rx / r5;
    assert!(
        (2.0..6.0).contains(&factor),
        "RAID-x/RAID-5 small-write factor {factor:.2} outside the paper's ballpark (~3x)"
    );
}

/// RAID-x is the best of the four architectures for parallel writes at
/// full client load (Figure 5c/5d).
#[test]
fn claim_raidx_wins_parallel_writes_at_scale() {
    for pattern in [IoPattern::LargeWrite, IoPattern::SmallWrite] {
        let rx = bandwidth(Arch::RaidX, pattern, 16);
        let r5 = bandwidth(Arch::Raid5, pattern, 16);
        let r10 = bandwidth(Arch::Raid10, pattern, 16);
        let nfs = nfs_bandwidth(pattern, 16);
        assert!(
            rx > r5 && rx > r10 && rx > nfs,
            "{}: RAID-x {rx:.2} not best (RAID-5 {r5:.2}, RAID-10 {r10:.2}, NFS {nfs:.2})",
            pattern.label()
        );
    }
}

/// NFS saturates on its central server while RAID-x keeps scaling
/// (Table 3's improvement factors).
#[test]
fn claim_improvement_factors() {
    let rx_improve = bandwidth(Arch::RaidX, IoPattern::LargeRead, 16)
        / bandwidth(Arch::RaidX, IoPattern::LargeRead, 1);
    let nfs_improve =
        nfs_bandwidth(IoPattern::LargeRead, 16) / nfs_bandwidth(IoPattern::LargeRead, 1);
    assert!(rx_improve > 4.0, "RAID-x improvement only {rx_improve:.2}x");
    assert!(nfs_improve < 2.5, "NFS 'scaled' {nfs_improve:.2}x — the server should bottleneck");
}

/// The analytic model's large-write improvement over chained
/// declustering approaches two (Section 2).
#[test]
fn claim_analytic_factor_approaches_two() {
    let m = PeakModel::unit(1024);
    let factor = m.large_write_time(Arch::Chained, 4096) / m.large_write_time(Arch::RaidX, 4096);
    assert!(factor > 1.95 && factor < 2.0);
}

/// Small writes behave identically to large reads for NFS but not for
/// RAID-5 — the small-write problem is architecture-specific.
#[test]
fn claim_small_write_problem_is_raid5_specific() {
    let r5_small = bandwidth(Arch::Raid5, IoPattern::SmallWrite, 8);
    let r5_read = bandwidth(Arch::Raid5, IoPattern::SmallRead, 8);
    assert!(
        r5_small < 0.4 * r5_read,
        "RAID-5 small writes ({r5_small:.2}) should collapse vs reads ({r5_read:.2})"
    );
    let rx_small = bandwidth(Arch::RaidX, IoPattern::SmallWrite, 8);
    let rx_read = bandwidth(Arch::RaidX, IoPattern::SmallRead, 8);
    assert!(
        rx_small > 0.5 * rx_read,
        "RAID-x small writes ({rx_small:.2}) should track reads ({rx_read:.2})"
    );
}

/// The whole pipeline is deterministic: identical configurations produce
/// bit-identical results.
#[test]
fn full_experiment_is_deterministic() {
    let a = bandwidth(Arch::RaidX, IoPattern::LargeWrite, 8);
    let b = bandwidth(Arch::RaidX, IoPattern::LargeWrite, 8);
    assert_eq!(a.to_bits(), b.to_bits());
}

/// Reads through the single I/O space hit remote disks directly at the
/// driver level — no central server is involved (serverless claim):
/// every node's NIC moves data, not just one.
#[test]
fn claim_serverless_traffic_distribution() {
    let mut engine = Engine::new();
    let mut store =
        IoSystem::new(&mut engine, ClusterConfig::trojans(), Arch::RaidX, CddConfig::default());
    let cfg = ParallelIoConfig {
        clients: 16,
        pattern: IoPattern::LargeWrite,
        repeats: 2,
        ..Default::default()
    };
    run_parallel_io(&mut engine, &mut store, &cfg).unwrap();
    let active_tx =
        store.cluster.nodes.iter().filter(|n| engine.resource_stats(n.tx).bytes > 0).count();
    assert!(active_tx >= 15, "only {active_tx} nodes transmitted — looks centralized");
    let active_disks =
        store.cluster.disks.iter().filter(|d| engine.resource_stats(d.res).bytes > 0).count();
    assert_eq!(active_disks, 16, "all disks should participate in striped writes");
}

/// NFS by contrast concentrates all traffic on the server node.
#[test]
fn claim_nfs_centralizes_traffic() {
    let mut engine = Engine::new();
    let mut store = NfsSystem::new(&mut engine, ClusterConfig::trojans(), NfsConfig::default());
    let cfg = ParallelIoConfig {
        clients: 8,
        pattern: IoPattern::LargeWrite,
        repeats: 2,
        ..Default::default()
    };
    run_parallel_io(&mut engine, &mut store, &cfg).unwrap();
    let server_rx = engine.resource_stats(store.cluster.nodes[0].rx).bytes;
    let others: u64 = (1..16).map(|n| engine.resource_stats(store.cluster.nodes[n].rx).bytes).sum();
    assert!(server_rx > others, "server rx {server_rx} vs all others {others}");
}

/// "Background" means hidden from every writer, not only the one that
/// filled the group: while one client's full mirroring-group flush (31
/// segments through its NIC, one long run on the image disk) is in
/// flight, another client's one-block write — whose lock round needs an
/// ack from the flushing node — takes what it takes on an idle cluster
/// plus at most the few segments already in service along its path.
#[test]
fn claim_image_flush_is_hidden_from_other_writers() {
    const FLUSHER: usize = 1;
    const WRITER: usize = 2;
    let cc = ClusterConfig::shape(32, 1);
    let segment = cc.net.wire_time(cc.net.segment_bytes);
    // The writer's latency, whether the flush outlived the write and the
    // background demands the flusher's NIC served.
    let small_write_latency = |with_flush: bool| {
        let mut engine = Engine::new();
        let mut sys = IoSystem::new(&mut engine, cc.clone(), Arch::RaidX, CddConfig::default());
        let bs = sys.block_size() as usize;
        let group = sys.layout().image_group_key(0).expect("RAID-x groups its images").1;
        if with_flush {
            // Blocks 0..group are one whole mirroring group: the write's
            // plan ends by detaching the clustered flush.
            let fill = sys.write(FLUSHER, 0, &vec![0xF1; group * bs]).unwrap();
            assert_eq!(sys.pending_image_blocks(), 0, "the group did not fill");
            let fill = engine.spawn_job("fill", fill);
            // The flush leaves as the foreground half completes.
            while engine.jobs()[fill.index()].end.is_none() {
                engine.run_until(engine.now() + segment);
            }
        }
        let start = engine.now();
        let lb = 10 * group as u64;
        let image_disk = sys.layout().locate_images(0)[0].disk;
        assert_ne!(sys.layout().locate_data(lb).disk, image_disk);
        let plan = sys.write(WRITER, lb, &vec![0x5A; bs]).unwrap();
        let job = engine.spawn_job("small-write", plan);
        let report = engine.run().unwrap();
        let end = engine.jobs()[job.index()].end.unwrap();
        let tx = engine.resource_stats(sys.cluster.nodes[FLUSHER].tx);
        (end.since(start), report.end > end, tx.bg_ops)
    };
    let (alone, ..) = small_write_latency(false);
    let (beside, flush_outlived_write, bg_segments) = small_write_latency(true);
    assert!(flush_outlived_write && bg_segments >= 31, "no flush was in flight");
    assert!(
        beside.as_nanos() <= alone.as_nanos() + 4 * segment.as_nanos(),
        "one-block write took {beside} beside a group flush, {alone} alone (segment {segment})"
    );
}

/// RAID-x keeps its small-write lead over RAID-10 as the cluster grows
/// (the `scale_small_write` shape: clients = nodes = disks, eight bursts
/// of one block each).
#[test]
fn claim_raidx_small_writes_beat_raid10_as_the_cluster_grows() {
    for nodes in [16, 32, 64] {
        let small_write = |arch| {
            let mut engine = Engine::new();
            let cc = ClusterConfig::shape(nodes, 1);
            let mut store = IoSystem::new(&mut engine, cc, arch, CddConfig::default());
            let cfg = ParallelIoConfig {
                clients: nodes,
                pattern: IoPattern::SmallWrite,
                repeats: 8,
                ..Default::default()
            };
            let mbs = run_parallel_io(&mut engine, &mut store, &cfg).unwrap().aggregate_mbs;
            let bg: u64 = engine.resources().map(|(_, _, s)| s.bg_ops).sum();
            (mbs, bg)
        };
        let (rx, rx_bg) = small_write(Arch::RaidX);
        let (r10, r10_bg) = small_write(Arch::Raid10);
        assert!(rx_bg > 0 && r10_bg == 0, "only RAID-x defers its images");
        assert!(rx >= r10, "{nodes} nodes: RAID-x {rx:.2} MB/s < RAID-10 {r10:.2} MB/s");
    }
}
