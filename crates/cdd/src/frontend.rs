//! Front-end / admission layer of the CDD pipeline (the paper's *client
//! module*).
//!
//! Everything that happens before a request is handed to a write scheme
//! lives here: admission (range and length validation, shared verbatim by
//! [`crate::IoSystem`] and the `nfs_sim::NfsSystem` baseline so both
//! stores reject malformed I/O with the same [`IoError`] variants), run
//! coalescing of adjacent blocks (re-exported from [`crate::runs`]), and
//! replica selection for reads ([`ReadBalancer`]).

use raidx_core::{FaultSet, Layout, ReadSource};

use crate::config::ReadBalance;
use crate::error::IoError;
pub use crate::runs::{merge_runs, Run};

/// Reject a `[lb0, lb0 + nblocks)` request that reaches past `capacity`.
///
/// The shared admission check of every block store: the reported
/// [`IoError::OutOfRange`] names the last requested block and the store's
/// capacity, identically for the CDD array and the NFS baseline.
pub fn validate_range(lb0: u64, nblocks: u64, capacity: u64) -> Result<(), IoError> {
    match lb0.checked_add(nblocks) {
        Some(end) if end <= capacity => Ok(()),
        _ => {
            Err(IoError::OutOfRange { lb: lb0.saturating_add(nblocks.saturating_sub(1)), capacity })
        }
    }
}

/// Admit a write of `len` bytes at `lb0`: the buffer must be a non-empty
/// whole number of `block_size`-byte blocks and fit below `capacity`.
/// Returns the block count.
pub fn validate_write(
    block_size: usize,
    capacity: u64,
    lb0: u64,
    len: usize,
) -> Result<u64, IoError> {
    if len == 0 || !len.is_multiple_of(block_size.max(1)) {
        return Err(IoError::BadLength { expected: block_size.max(1), got: len });
    }
    let nblocks = (len / block_size.max(1)) as u64;
    validate_range(lb0, nblocks, capacity)?;
    Ok(nblocks)
}

/// Run-granularity replica selection for reads (the paper's announced
/// "I/O load balancing" follow-up, implemented in the client module).
///
/// Owns the per-disk dispatched-byte counters that drive the
/// [`ReadBalance::LeastLoaded`] policy; the layout and fault set are
/// borrowed per decision so the balancer itself carries no array state.
#[derive(Debug)]
pub struct ReadBalancer {
    policy: ReadBalance,
    /// Bytes of read traffic dispatched per disk.
    read_load: Vec<u64>,
}

impl ReadBalancer {
    /// A balancer over `ndisks` disks following `policy`.
    pub fn new(policy: ReadBalance, ndisks: usize) -> Self {
        ReadBalancer { policy, read_load: vec![0; ndisks] }
    }

    /// The policy this balancer follows.
    pub fn policy(&self) -> ReadBalance {
        self.policy
    }

    /// The image addresses of a primary run, if they form one healthy
    /// contiguous run on a single disk (the condition under which a whole
    /// run can be redirected to the mirror copy).
    pub fn image_run_of(layout: &dyn Layout, faults: &FaultSet, run: &Run) -> Option<(usize, u64)> {
        let first = layout.locate_images(run.lbs[0]);
        let first = first.first()?;
        if faults.contains(first.disk) {
            return None;
        }
        for (i, &lb) in run.lbs.iter().enumerate() {
            let imgs = layout.locate_images(lb);
            let img = imgs.first()?;
            if img.disk != first.disk || img.block != first.block + i as u64 {
                return None;
            }
        }
        Some((first.disk, first.block))
    }

    /// Decide whether a healthy-primary run should be served by its
    /// mirror copy, per the configured balancing policy. Returns the
    /// redirected (disk, start) when it should; either way the chosen
    /// disk's load counter absorbs the run's payload.
    pub fn balance_run(
        &mut self,
        layout: &dyn Layout,
        faults: &FaultSet,
        block_size: u64,
        run: &Run,
    ) -> Option<(usize, u64)> {
        let payload = run.len() * block_size;
        let choice = match self.policy {
            ReadBalance::PrimaryOnly => None,
            ReadBalance::LayoutPreference => {
                if matches!(layout.read_source(run.lbs[0], faults), ReadSource::Image(_)) {
                    Self::image_run_of(layout, faults, run)
                } else {
                    None
                }
            }
            ReadBalance::LeastLoaded => match Self::image_run_of(layout, faults, run) {
                Some((img_disk, start)) if self.read_load[img_disk] < self.read_load[run.disk] => {
                    Some((img_disk, start))
                }
                _ => None,
            },
        };
        match choice {
            Some((disk, _)) => self.read_load[disk] += payload,
            None => self.read_load[run.disk] += payload,
        }
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_validation_reports_last_block() {
        assert!(validate_range(0, 10, 10).is_ok());
        assert!(validate_range(10, 0, 10).is_ok());
        match validate_range(8, 4, 10) {
            Err(IoError::OutOfRange { lb, capacity }) => {
                assert_eq!(lb, 11);
                assert_eq!(capacity, 10);
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn range_validation_survives_overflow() {
        assert!(matches!(
            validate_range(u64::MAX, 2, 100),
            Err(IoError::OutOfRange { capacity: 100, .. })
        ));
    }

    #[test]
    fn write_admission_checks_length_then_range() {
        assert_eq!(validate_write(512, 100, 0, 1024).unwrap(), 2);
        assert!(matches!(
            validate_write(512, 100, 0, 100),
            Err(IoError::BadLength { expected: 512, got: 100 })
        ));
        assert!(matches!(validate_write(512, 100, 0, 0), Err(IoError::BadLength { .. })));
        assert!(matches!(
            validate_write(512, 4, 3, 1024),
            Err(IoError::OutOfRange { lb: 4, capacity: 4 })
        ));
    }

    #[test]
    fn primary_only_never_redirects() {
        let layout = raidx_core::layout_for(raidx_core::Arch::Raid10, 4, 1, 128);
        let mut b = ReadBalancer::new(ReadBalance::PrimaryOnly, 4);
        let run = Run { disk: 0, start: 0, lbs: vec![0, 1] };
        assert!(b.balance_run(layout.as_ref(), &FaultSet::none(), 512, &run).is_none());
    }

    #[test]
    fn least_loaded_alternates_copies() {
        let layout = raidx_core::layout_for(raidx_core::Arch::Raid10, 4, 1, 128);
        let faults = FaultSet::none();
        let mut b = ReadBalancer::new(ReadBalance::LeastLoaded, 4);
        let run = Run { disk: 0, start: 0, lbs: vec![0] };
        // First read stays on the (equally loaded) primary, loading it;
        // the second redirects to the now less-loaded image.
        assert!(b.balance_run(layout.as_ref(), &faults, 512, &run).is_none());
        assert!(b.balance_run(layout.as_ref(), &faults, 512, &run).is_some());
    }

    #[test]
    fn dead_image_disk_blocks_redirection() {
        let layout = raidx_core::layout_for(raidx_core::Arch::Raid10, 4, 1, 128);
        let run = Run { disk: 0, start: 0, lbs: vec![0] };
        let img = layout.locate_images(0)[0].disk;
        let mut faults = FaultSet::none();
        faults.insert(img);
        assert!(ReadBalancer::image_run_of(layout.as_ref(), &faults, &run).is_none());
    }
}
