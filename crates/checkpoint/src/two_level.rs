//! Two-level recovery on RAID-x (Section 6 + the Vaidya two-level scheme
//! the paper builds on).
//!
//! The OSM layout lets one checkpoint serve both recovery levels. A
//! process on node `m` writes its checkpoint into logical blocks whose
//! **mirroring groups live on node m's own disk**: the data blocks stripe
//! across the whole array (full parallel write bandwidth), while the
//! clustered image lands locally. Then:
//!
//! * a **transient** failure (process crash, node reboot) restores from
//!   the local image — a sequential read touching *no network*;
//! * a **permanent** failure (node/disk loss) restores from the striped
//!   data blocks on the surviving disks, read by any other node.

use cdd::{merge_runs, CddConfig, IoError, IoSystem, OpBuilder};
use sim_core::plan::par;
use sim_core::{Engine, Plan};

/// The first `count` logical blocks whose (single) OSM image lives on a
/// disk attached to `node`, skipping the first `skip` matches (so several
/// processes on one node get disjoint regions).
pub fn image_local_blocks(sys: &IoSystem, node: usize, count: usize, skip: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mut skipped = 0;
    for lb in 0..sys.capacity_blocks() {
        let img = sys.layout().locate_images(lb);
        let Some(img) = img.first() else { continue };
        if sys.cluster().node_of_disk(img.disk) == node {
            if skipped < skip {
                skipped += 1;
                continue;
            }
            out.push(lb);
            if out.len() == count {
                break;
            }
        }
    }
    out
}

/// Outcome of the two-level experiment for one process.
#[derive(Debug, Clone)]
pub struct TwoLevelResult {
    /// Time to write the checkpoint (striped data + local image flush).
    pub checkpoint_secs: f64,
    /// Transient recovery: sequential read of the local image.
    pub transient_secs: f64,
    /// Network bytes moved during transient recovery (the claim: zero).
    pub transient_net_bytes: u64,
    /// Permanent recovery: striped read from another node.
    pub permanent_secs: f64,
}

/// Checkpoint one process on `node`, then time both recovery paths.
///
/// `ckpt_blocks` is the checkpoint size in blocks. The caller provides a
/// fresh engine/system pair.
pub fn run_two_level(
    engine: &mut Engine,
    sys: &mut IoSystem,
    node: usize,
    ckpt_blocks: usize,
) -> Result<TwoLevelResult, IoError> {
    let bs = sys.block_size() as usize;
    let lbs = image_local_blocks(sys, node, ckpt_blocks, 0);
    assert_eq!(lbs.len(), ckpt_blocks, "not enough image-local blocks");

    // --- Checkpoint: write every block (they are contiguous runs of
    // n-1, so the writes merge) and flush the image groups.
    let payload: Vec<u8> = (0..bs).map(|i| (i % 241) as u8).collect();
    let t0 = engine.now();
    for &lb in &lbs {
        let p = sys.write(node, lb, &payload)?;
        engine.spawn_job("ckpt-write", p);
    }
    let flush = sys.flush_images();
    engine.spawn_job("ckpt-flush", flush);
    engine.run().expect("checkpoint deadlocked");
    let checkpoint_secs = engine.now().since(t0).as_secs_f64();

    // --- Transient recovery: read the local image clusters directly.
    let tx_before: u64 =
        sys.cluster().nodes.iter().map(|n| engine.resource_stats(n.tx).bytes).sum();
    let images: Vec<(u64, raidx_core::BlockAddr)> =
        lbs.iter().map(|&lb| (lb, sys.layout().locate_images(lb)[0])).collect();
    let ops = OpBuilder { cluster: sys.cluster(), cfg: &CddConfig::default() };
    let reads: Vec<Plan> = merge_runs(images)
        .into_iter()
        .map(|run| ops.read_run(node, run.disk, run.start, run.len()))
        .collect();
    let t1 = engine.now();
    engine.spawn_job("transient-recovery", par(reads));
    engine.run().expect("transient recovery deadlocked");
    let transient_secs = engine.now().since(t1).as_secs_f64();
    let tx_after: u64 = sys.cluster().nodes.iter().map(|n| engine.resource_stats(n.tx).bytes).sum();

    // --- Permanent recovery: the node is gone; a neighbour reads the
    // striped data blocks.
    let neighbour = (node + 1) % sys.cluster().cfg.nodes;
    let t2 = engine.now();
    for &lb in &lbs {
        let (bytes, p) = sys.read(neighbour, lb, 1)?;
        assert_eq!(bytes, payload, "permanent recovery corrupted block {lb}");
        engine.spawn_job("permanent-recovery", p);
    }
    engine.run().expect("permanent recovery deadlocked");
    let permanent_secs = engine.now().since(t2).as_secs_f64();

    Ok(TwoLevelResult {
        checkpoint_secs,
        transient_secs,
        transient_net_bytes: tx_after - tx_before,
        permanent_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterConfig;
    use raidx_core::Arch;

    fn setup() -> (Engine, IoSystem) {
        cdd::testkit::trojans_with_capacity(Arch::RaidX, 1 << 30)
    }

    #[test]
    fn image_local_blocks_really_are_local() {
        let (_e, sys) = setup();
        for node in [0usize, 5, 15] {
            let lbs = image_local_blocks(&sys, node, 45, 0);
            assert_eq!(lbs.len(), 45);
            for &lb in &lbs {
                let img = sys.layout().locate_images(lb)[0];
                assert_eq!(sys.cluster().node_of_disk(img.disk), node);
                // And the data block is *not* local-only: it stripes.
            }
            // Data blocks cover many nodes (striping preserved).
            let data_nodes: std::collections::HashSet<usize> = lbs
                .iter()
                .map(|&lb| sys.cluster().node_of_disk(sys.layout().locate_data(lb).disk))
                .collect();
            assert!(data_nodes.len() >= 8, "checkpoint not striped: {data_nodes:?}");
        }
    }

    #[test]
    fn disjoint_regions_via_skip() {
        let (_e, sys) = setup();
        let a = image_local_blocks(&sys, 3, 30, 0);
        let b = image_local_blocks(&sys, 3, 30, 30);
        assert!(a.iter().all(|lb| !b.contains(lb)));
    }

    #[test]
    fn transient_recovery_touches_no_network() {
        let (mut e, mut sys) = setup();
        let r = run_two_level(&mut e, &mut sys, 4, 60).unwrap();
        assert_eq!(
            r.transient_net_bytes, 0,
            "transient recovery moved {} network bytes",
            r.transient_net_bytes
        );
        assert!(r.transient_secs > 0.0);
        assert!(r.permanent_secs > 0.0);
        assert!(r.checkpoint_secs > 0.0);
    }

    /// The local path's advantage is *network independence*: on a slow
    /// or congested interconnect, permanent (striped, remote) recovery
    /// degrades while transient (local image) recovery is untouched.
    #[test]
    fn transient_recovery_immune_to_slow_network() {
        let fast = {
            let (mut e, mut sys) = setup();
            run_two_level(&mut e, &mut sys, 7, 90).unwrap()
        };
        let slow = {
            let mut cc = ClusterConfig::trojans();
            cc.disk.capacity = 1 << 30;
            cc.net.link_rate = 2_000_000; // congested 2 MB/s links
            let (mut e, mut sys) = cdd::testkit::build(cc, Arch::RaidX);
            run_two_level(&mut e, &mut sys, 7, 90).unwrap()
        };
        // Local recovery time barely moves; remote recovery collapses.
        assert!(
            (slow.transient_secs / fast.transient_secs) < 1.1,
            "transient affected by the network: {:.3}s -> {:.3}s",
            fast.transient_secs,
            slow.transient_secs
        );
        assert!(
            slow.permanent_secs > 3.0 * fast.permanent_secs,
            "permanent recovery should be network-bound: {:.3}s -> {:.3}s",
            fast.permanent_secs,
            slow.permanent_secs
        );
        assert!(slow.transient_secs < slow.permanent_secs);
    }
}
