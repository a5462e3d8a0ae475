//! What an experiment varies about the cooperative disk driver layer.
//! The protocol's fixed costs are constants in [`crate::ops`], and the
//! request timeout is [`crate::datapath::REQUEST_TIMEOUT`].

/// How reads are spread across a block's replicas (the "I/O load
/// balancing" the paper names as the Trojans project's next phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadBalance {
    /// Follow the layout's static preference, `Layout::prefers_image`
    /// (alternate copies by row — the behaviour of the original
    /// prototype).
    #[default]
    LayoutPreference,
    /// Always read the primary copy (mirrors serve only failures).
    PrimaryOnly,
    /// Track bytes dispatched per disk and send each run to the less
    /// loaded copy.
    LeastLoaded,
}

/// Policies of the CDD protocol that experiments switch, separate from
/// the hardware parameters in [`cluster::ClusterConfig`].
#[derive(Debug, Clone)]
pub struct CddConfig {
    /// Whether writes first acquire a lock group via a broadcast round to
    /// every peer CDD's consistency module (the replicated lock-group
    /// table). Disable to measure the consistency protocol's cost.
    pub lock_broadcast: bool,
    /// Whether RAID-x image flushes run in the background (the OSM claim).
    /// Disabling makes image writes foreground — the key ablation.
    pub background_mirroring: bool,
    /// Bound on the OSM write-behind backlog, in buffered image blocks.
    /// `None` (the default) reproduces the paper's unbounded "background"
    /// queue. With `Some(bound)`, a foreground write that leaves more
    /// than `bound` image blocks buffered sheds whole mirroring groups —
    /// oldest first — as a *foreground* partial clustered flush, so
    /// `IoSystem::pending_image_blocks()` never exceeds the bound between
    /// requests. This is the backpressure that keeps a sustained burst
    /// (the Figure-5 contention regime) from growing the image queue
    /// without limit.
    pub max_image_backlog: Option<usize>,
    /// Replica-selection policy for reads.
    pub read_balance: ReadBalance,
    /// Per-client block cache in front of the read path
    /// ([`crate::cache`]). `None` (the default) disables caching — the
    /// system is byte- and plan-identical to an uncached build, which
    /// the determinism fingerprints gate. `Some` enables it with the
    /// given capacity; coherence rides the lock-group grant path
    /// (write-invalidate through the replicated table) and membership
    /// epoch bumps flush every cached extent.
    pub cache: Option<crate::cache::CacheConfig>,
}

impl Default for CddConfig {
    fn default() -> Self {
        CddConfig {
            lock_broadcast: true,
            background_mirroring: true,
            max_image_backlog: None,
            read_balance: ReadBalance::default(),
            cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CddConfig::default();
        assert!(c.lock_broadcast);
        assert!(c.background_mirroring);
        assert!(c.max_image_backlog.is_none(), "write-behind is unbounded by default");
        assert_eq!(c.read_balance, ReadBalance::LayoutPreference);
        assert!(c.cache.is_none(), "client caching is off by default (byte-identical runs)");
    }
}
