use super::*;

fn img(client: usize, lb: u64, disk: usize, block: u64) -> PendingImage {
    PendingImage { client, lb, addr: BlockAddr::new(disk, block) }
}

#[test]
fn full_group_flushes_as_one() {
    let mut q = ImageQueue::new();
    assert!(q.push(img(0, 0, 1, 10), Some((7, 3))).is_empty());
    assert!(q.push(img(0, 1, 1, 11), Some((7, 3))).is_empty());
    assert_eq!(q.len(), 2);
    let ready = q.push(img(0, 2, 1, 12), Some((7, 3)));
    assert_eq!(ready.len(), 3);
    assert!(q.is_empty());
}

#[test]
fn ungrouped_images_flush_immediately() {
    let mut q = ImageQueue::new();
    let ready = q.push(img(2, 5, 0, 9), None);
    assert_eq!(ready, vec![img(2, 5, 0, 9)]);
    assert!(q.is_empty());
}

#[test]
fn overwrite_replaces_in_place() {
    let mut q = ImageQueue::new();
    q.push(img(0, 4, 1, 20), Some((3, 4)));
    q.push(img(1, 4, 1, 21), Some((3, 4)));
    assert_eq!(q.len(), 1, "overwrite must not grow the group");
}

#[test]
fn drain_all_preserves_group_key_order() {
    let mut q = ImageQueue::new();
    q.push(img(0, 9, 2, 0), Some((9, 4)));
    q.push(img(0, 1, 1, 0), Some((1, 4)));
    let all = q.drain_all();
    assert_eq!(all.iter().map(|p| p.lb).collect::<Vec<_>>(), vec![1, 9]);
    assert!(q.is_empty());
}

#[test]
fn overflow_sheds_whole_groups_until_bound() {
    let mut q = ImageQueue::new();
    for g in 0..4u64 {
        for b in 0..3u64 {
            q.push(img(0, g * 10 + b, g as usize, b), Some((g, 8)));
        }
    }
    assert_eq!(q.len(), 12);
    let shed = q.drain_overflow(5);
    // Whole groups pop lowest-key first: groups 0, 1 and 2 go (9
    // blocks) leaving group 3's 3 blocks ≤ the bound of 5.
    assert_eq!(shed.len(), 9);
    assert_eq!(q.len(), 3);
    assert!(q.drain_overflow(5).is_empty(), "under the bound nothing sheds");
    assert!(q.drain_overflow(0).len() == 3 && q.is_empty());
}

#[test]
fn remove_disk_drops_only_that_disks_entries_and_fixes_len() {
    let mut q = ImageQueue::new();
    q.push(img(0, 0, 3, 10), Some((0, 8)));
    q.push(img(0, 1, 4, 11), Some((0, 8)));
    q.push(img(0, 9, 3, 12), Some((1, 8)));
    assert_eq!(q.len(), 3);
    let removed = q.remove_disk(3);
    assert_eq!(removed.iter().map(|p| p.lb).collect::<Vec<_>>(), vec![0, 9]);
    assert_eq!(q.len(), 1, "accounting must match the survivors");
    assert_eq!(q.drain_all(), vec![img(0, 1, 4, 11)]);
    assert!(q.remove_disk(3).is_empty(), "idempotent on an already-drained disk");
}

#[test]
fn reassign_client_reroutes_crashed_nodes_entries() {
    let mut q = ImageQueue::new();
    q.push(img(2, 0, 5, 0), Some((0, 8)));
    q.push(img(1, 1, 6, 0), Some((0, 8)));
    q.reassign_client(2, |p| p.addr.disk % 4);
    let all = q.drain_all();
    assert_eq!(all[0].client, 1, "disk 5 entry re-homed to its owner node");
    assert_eq!(all[1].client, 1, "other clients untouched");
}

#[test]
fn empty_queue_edge_operations_are_noops() {
    let mut q = ImageQueue::new();
    assert!(q.remove_disk(0).is_empty());
    assert_eq!(q.blocks_on_disk(0), 0);
    assert!(q.drain_overflow(0).is_empty());
    q.reassign_client(0, |_| unreachable!("nothing to reroute"));
    assert!(q.is_empty());
    assert!(q.drain_all().is_empty());
}

#[test]
fn removing_the_last_groups_only_disk_leaves_no_stranded_group() {
    let mut q = ImageQueue::new();
    q.push(img(0, 0, 2, 10), Some((5, 3)));
    q.push(img(0, 1, 2, 11), Some((5, 3)));
    assert_eq!(q.blocks_on_disk(2), 2);
    let removed = q.remove_disk(2);
    assert_eq!(removed.len(), 2);
    assert!(q.is_empty(), "emptied group must be deleted, not left as a husk");
    assert_eq!(q.blocks_on_disk(2), 0);
    // The group must refill from scratch: two pushes stay buffered,
    // the third completes it again.
    assert!(q.push(img(0, 0, 3, 10), Some((5, 3))).is_empty());
    assert!(q.push(img(0, 1, 3, 11), Some((5, 3))).is_empty());
    assert_eq!(q.push(img(0, 2, 3, 12), Some((5, 3))).len(), 3);
}

#[test]
fn blocks_on_disk_matches_what_remove_disk_drains() {
    let mut q = ImageQueue::new();
    for lb in 0..6u64 {
        q.push(img(0, lb, (lb % 3) as usize, lb), Some((lb, 8)));
    }
    for disk in 0..4usize {
        let predicted = q.blocks_on_disk(disk);
        assert_eq!(q.remove_disk(disk).len(), predicted, "disk {disk}");
    }
    assert!(q.is_empty());
}

#[test]
fn reassign_chains_across_successive_crashes() {
    // Node 2 crashes and its entries re-home to node 3; then node 3
    // crashes (now partitioned too) and the same entries must
    // re-home again — no entry may stay owned by a dead node.
    let mut q = ImageQueue::new();
    q.push(img(2, 0, 5, 0), Some((0, 8)));
    q.push(img(2, 1, 6, 0), Some((1, 8)));
    q.reassign_client(2, |_| 3);
    q.reassign_client(3, |_| 1);
    let all = q.drain_all();
    assert!(all.iter().all(|p| p.client == 1), "{all:?}");
}

#[test]
fn remove_disk_then_overflow_keeps_backlog_accounting_consistent() {
    // The max_image_backlog interaction: a disk drain mid-stream must
    // leave `len` exact, so a following overflow shed stops at the
    // bound instead of over- or under-shedding.
    let mut q = ImageQueue::new();
    for g in 0..4u64 {
        for b in 0..3u64 {
            q.push(img(0, g * 10 + b, b as usize, g * 10 + b), Some((g, 8)));
        }
    }
    assert_eq!(q.len(), 12);
    let dropped = q.remove_disk(1); // one block per group
    assert_eq!(dropped.len(), 4);
    assert_eq!(q.len(), 8);
    let shed = q.drain_overflow(5);
    // Whole groups shed lowest-key first, 2 blocks each now: groups
    // 0 and 1 go, leaving 4 ≤ 5.
    assert_eq!(shed.len(), 4);
    assert_eq!(q.len(), 4);
    assert!(shed.iter().all(|p| p.addr.disk != 1), "drained disk resurfaced in overflow");
    assert_eq!(q.drain_all().len(), 4);
}

#[test]
fn len_tracks_push_and_drain() {
    let mut q = ImageQueue::new();
    for lb in 0..5u64 {
        q.push(img(0, lb, 0, lb), Some((lb / 4, 4)));
    }
    // Group 0 (lbs 0..4) filled and flushed; lb 4 remains.
    assert_eq!(q.len(), 1);
    assert_eq!(q.drain_all().len(), 1);
    assert_eq!(q.len(), 0);
}

#[test]
fn retarget_disk_moves_entries_without_disturbing_groups() {
    let mut q = ImageQueue::new();
    q.push(img(0, 0, 2, 10), Some((5, 3)));
    q.push(img(0, 1, 3, 11), Some((5, 3)));
    assert_eq!(q.retarget_disk(2, 7), 1);
    assert_eq!(q.blocks_on_disk(2), 0);
    assert_eq!(q.blocks_on_disk(7), 1);
    assert_eq!(q.len(), 2, "retargeting must not change accounting");
    // The group still completes on its third member and flushes with
    // the rewritten address.
    let ready = q.push(img(0, 2, 3, 12), Some((5, 3)));
    assert_eq!(ready.len(), 3);
    assert_eq!(ready[0].addr, BlockAddr::new(7, 10));
}

#[test]
fn retarget_of_a_drained_disk_is_a_noop() {
    let mut q = ImageQueue::new();
    q.push(img(0, 0, 4, 9), Some((0, 8)));
    assert_eq!(q.remove_disk(4).len(), 1);
    assert_eq!(q.retarget_disk(4, 5), 0);
    assert!(q.is_empty());
}

#[test]
fn group_buffered_across_remove_and_readd_of_the_same_disk_id() {
    // A group holds entries for disks 1 and 2; disk 2 leaves the
    // array (its entries drain), then a *new* physical disk reuses
    // nothing — but a buggy queue that kept stale per-disk indexes
    // could double-count if id 2 later buffers fresh entries.
    let mut q = ImageQueue::new();
    q.push(img(0, 0, 1, 10), Some((4, 3)));
    q.push(img(0, 1, 2, 11), Some((4, 3)));
    assert_eq!(q.remove_disk(2).len(), 1);
    assert_eq!(q.len(), 1);
    // Fresh traffic addressed to disk id 2 again (e.g. after the
    // roster re-binds the slot) must account from zero.
    q.push(img(0, 1, 2, 20), Some((4, 3)));
    assert_eq!(q.blocks_on_disk(2), 1);
    let ready = q.push(img(0, 2, 1, 12), Some((4, 3)));
    assert_eq!(ready.len(), 3);
    assert_eq!(ready.iter().filter(|p| p.addr.disk == 2).count(), 1);
    assert_eq!(ready.iter().find(|p| p.lb == 1).map(|p| p.addr.block), Some(20));
    assert!(q.is_empty());
}

#[test]
fn retarget_then_remove_drains_at_the_new_home_only() {
    let mut q = ImageQueue::new();
    q.push(img(0, 0, 3, 10), Some((0, 8)));
    q.push(img(0, 9, 3, 12), Some((1, 8)));
    assert_eq!(q.retarget_disk(3, 6), 2);
    assert!(q.remove_disk(3).is_empty(), "old id no longer owns the entries");
    let drained = q.remove_disk(6);
    assert_eq!(drained.len(), 2);
    assert!(q.is_empty());
}
