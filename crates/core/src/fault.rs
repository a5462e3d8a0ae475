//! Failure analysis and rebuild planning.
//!
//! Pure planning: given a layout, the disks each block's sources must
//! avoid and the high-water mark of written logical blocks, list every
//! copy a disk holds and the surviving blocks that re-create it. The `cdd` crate filters these steps (full
//! rebuild, parked-block resync, pending-block rebalance) and executes
//! them against the data plane and the timing model.

use std::ops::Deref;

use crate::layout::{Layout, ReadSource};
use crate::types::{BlockAddr, FaultSet};

/// The logical identity of one physical copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// The data or a mirror image of this logical block (same bytes).
    Block(u64),
    /// The parity block of this stripe.
    Parity(u64),
}

/// One step of a rebuild: `target` (a block on the replaced disk) holds
/// `content`, re-created as the XOR of `inputs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuildStep {
    /// What the block holds.
    pub content: Content,
    /// The physical block being restored.
    pub target: BlockAddr,
    /// Surviving blocks whose XOR is the content, in read order: a single
    /// replica for a mirrored copy, the stripe's sibling data blocks then
    /// its parity for RAID-5 data, the data blocks alone for the parity
    /// itself. Empty when no source survives (the copy is lost).
    pub inputs: Vec<BlockAddr>,
}

impl RebuildStep {
    /// The logical blocks the content is a function of, ascending: the
    /// block itself, or every member of the parity's stripe.
    pub fn lbs(&self, layout: &dyn Layout) -> Vec<u64> {
        match self.content {
            Content::Block(lb) => vec![lb],
            Content::Parity(s) => layout.stripe_blocks(s),
        }
    }
}

/// List the restoration of every block that lives on `disk`, considering
/// only logical blocks below `used`, in ascending logical-block order
/// (data, then images, then — at a stripe's first member — its parity).
///
/// Covers both roles a disk plays: primary data blocks and mirror images /
/// parity blocks hosted for other disks' data. The sources of a copy of
/// `lb` — or of the parity of `lb`'s stripe — avoid every disk in
/// `avoid(lb)`, which must contain `disk` itself; a copy with no
/// surviving source gets a step with empty `inputs`.
pub fn plan_rebuild<F: Deref<Target = FaultSet>>(
    layout: &dyn Layout,
    disk: usize,
    avoid: impl Fn(u64) -> F,
    used: u64,
) -> Vec<RebuildStep> {
    let mut steps = Vec::new();
    for lb in 0..used.min(layout.capacity_blocks()) {
        let avoid = avoid(lb);
        debug_assert!(avoid.contains(disk), "a rebuild source on its own target");
        let copies = std::iter::once(layout.locate_data(lb)).chain(layout.locate_images(lb));
        for target in copies.filter(|a| a.disk == disk) {
            let inputs = match layout.read_source(lb, &avoid) {
                ReadSource::Primary(a) | ReadSource::Image(a) => vec![a],
                ReadSource::Reconstruct { siblings, parity } => {
                    siblings.into_iter().map(|(_, a)| a).chain([parity]).collect()
                }
                ReadSource::Lost => Vec::new(),
            };
            steps.push(RebuildStep { content: Content::Block(lb), target, inputs });
        }
        // A parity block hosted on the disk, once per stripe. Unwritten
        // members read as zero; they still XOR in.
        if let Some(target) = layout.locate_parity(lb).filter(|p| p.disk == disk) {
            let (s, pos) = layout.stripe_of(lb);
            if pos == 0 {
                let members: Vec<BlockAddr> =
                    layout.stripe_blocks(s).into_iter().map(|m| layout.locate_data(m)).collect();
                let lost = members.iter().any(|a| avoid.contains(a.disk));
                let inputs = if lost { Vec::new() } else { members };
                steps.push(RebuildStep { content: Content::Parity(s), target, inputs });
            }
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raid10::Raid10;
    use crate::raid5::Raid5;
    use crate::raidx::RaidX;

    #[test]
    fn raidx_rebuild_covers_data_and_images() {
        let l = RaidX::new(4, 1, 240);
        let used = 48;
        let avoid = FaultSet::of(&[0]);
        let steps = plan_rebuild(&l, 0, |_| &avoid, used);
        // Disk 0 held primary data for lbs with data disk 0 and images of
        // some groups; every such block must be restored.
        let mut targets: Vec<BlockAddr> = steps.iter().map(|s| s.target).collect();
        targets.sort();
        targets.dedup();
        assert_eq!(targets.len(), steps.len(), "duplicate targets");
        let expected: usize = (0..used).filter(|&lb| l.locate_data(lb).disk == 0).count()
            + (0..used).filter(|&lb| l.image_addr(lb).disk == 0).count();
        assert_eq!(steps.len(), expected);
        for s in &steps {
            assert_eq!(s.target.disk, 0);
            assert!(matches!(s.content, Content::Block(_)));
            assert_eq!(s.inputs.len(), 1, "a mirrored copy restores from one replica");
            assert_ne!(s.inputs[0].disk, 0);
        }
    }

    #[test]
    fn raid5_rebuild_uses_xor() {
        let l = Raid5::new(4, 100);
        let avoid = FaultSet::of(&[1]);
        let steps = plan_rebuild(&l, 1, |_| &avoid, 30);
        assert!(!steps.is_empty());
        // Data blocks restore from siblings + parity (every other disk),
        // parity blocks from the stripe's data alone.
        for s in &steps {
            let want = match s.content {
                Content::Block(_) => 3,
                Content::Parity(st) => l.stripe_blocks(st).len(),
            };
            assert_eq!(s.inputs.len(), want, "{s:?}");
            assert!(s.inputs.iter().all(|a| a.disk != 1));
        }
        assert!(steps.iter().any(|s| matches!(s.content, Content::Block(_))));
        assert!(steps.iter().any(|s| matches!(s.content, Content::Parity(_))));
    }

    #[test]
    fn raid10_rebuild_copies_mirror() {
        let l = Raid10::new(4, 100);
        let avoid = FaultSet::of(&[0]);
        let steps = plan_rebuild(&l, 0, |_| &avoid, 20);
        assert!(steps.iter().all(|s| s.inputs.len() == 1 && s.inputs[0].disk == 1));
    }

    #[test]
    fn unrecoverable_when_partner_also_dead() {
        let l = RaidX::new(4, 1, 240);
        // Disk 0's data has images on various disks; failing all other
        // disks in the row guarantees loss.
        let avoid = FaultSet::of(&[0, 1, 2, 3]);
        let steps = plan_rebuild(&l, 0, |_| &avoid, 48);
        assert!(steps.iter().all(|s| s.inputs.is_empty()));
        assert_eq!(steps[0].lbs(&l), vec![0]);
        // RAID-5 parity with a dead stripe member is lost too.
        let r5 = Raid5::new(4, 100);
        let avoid = FaultSet::of(&[0, 3]);
        let steps = plan_rebuild(&r5, 3, |_| &avoid, 3);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].content, Content::Parity(0));
        assert!(steps[0].inputs.is_empty());
        assert_eq!(steps[0].lbs(&r5), vec![0, 1, 2]);
    }

    /// The set to avoid is per block: a copy that cannot be trusted for
    /// one block leaves every other block's source alone.
    #[test]
    fn each_block_avoids_its_own_set() {
        let l = Raid10::new(4, 100);
        let (only_target, with_mirror) = (FaultSet::of(&[0]), FaultSet::of(&[0, 1]));
        let steps = plan_rebuild(&l, 0, |lb| if lb == 2 { &with_mirror } else { &only_target }, 8);
        for s in &steps {
            assert_eq!(s.inputs.is_empty(), s.content == Content::Block(2), "{s:?}");
        }
        assert!(steps.iter().any(|s| s.content == Content::Block(2)));
    }

    #[test]
    fn rebuild_respects_high_water_mark() {
        let l = RaidX::new(4, 1, 240);
        let avoid = FaultSet::of(&[0]);
        let few = plan_rebuild(&l, 0, |_| &avoid, 8);
        let many = plan_rebuild(&l, 0, |_| &avoid, 80);
        assert!(many.len() > few.len());
    }
}
