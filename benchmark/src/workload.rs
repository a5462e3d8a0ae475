//! The five workloads and one repetition of each: build engine and store
//! from scratch, set up, run the measured phase under a root span, verify,
//! tear down — once per architecture configuration, in sequence.

use std::time::Instant;

use cdd::CacheConfig;
use cfs::Fs;
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::rng::SplitMix64;
use sim_core::{Engine, SimDuration};

use crate::drivers::andrew::{self, AndrewConfig, AndrewInputs};
use crate::drivers::fig5::{self, Fig5Config, Fig5Inputs};
use crate::drivers::zipf::{self, ZipfConfig, ZipfInputs};
use crate::drivers::{Outcome, Sim};
use crate::spans::{Span, Tracer};
use crate::store::{SpanStore, Store, StoreConfig, StoreCounts, FOUR_ARCHS};

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Barrier-synchronised parallel I/O on an `nodes × 1` cluster.
    Fig5 {
        /// Cluster nodes (one disk each).
        nodes: usize,
        /// Access shape; `base_lb` is drawn from the seed.
        cfg: Fig5Config,
    },
    /// The Andrew phases over `cfs` on the Trojans cluster.
    Andrew {
        /// Inode slots `Fs::format` lays out.
        inodes: u32,
        /// Tree shape.
        cfg: AndrewConfig,
    },
    /// Zipf single-block reads on the Trojans cluster.
    Zipf(ZipfConfig),
}

/// One workload: a fixed name later issues cite, why it exists, and the
/// configurations it runs in sequence inside a repetition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Architectures, in run order.
    pub configs: Vec<StoreConfig>,
}

/// Per-client cache of the cached `zipf_cache` configuration: an eighth
/// of the region, so the working set is 8x a client's cache.
const ZIPF_CACHE: CacheConfig = CacheConfig { capacity_blocks: 256 };

/// Key of the uncached RAID-x configuration of `zipf_cache`.
pub const NOCACHE_KEY: &str = "raidx_nocache";

/// The workloads. `smoke` shrinks every one to a fraction of a second for
/// quick local checks; smoke results are never comparable to full ones.
pub fn specs(smoke: bool) -> Vec<Spec> {
    let bursts = |full: usize| if smoke { 2 } else { full };
    let four = FOUR_ARCHS.to_vec();
    let mut zipf_cfgs = four.clone();
    zipf_cfgs.insert(3, StoreConfig { key: NOCACHE_KEY, arch: Some(Arch::RaidX), cache: None });
    zipf_cfgs[4].cache = Some(ZIPF_CACHE);
    let fig5 = |write| Kind::Fig5 {
        nodes: 16,
        cfg: Fig5Config { clients: 16, bytes: 2 << 20, bursts: bursts(8), base_lb: 0, write },
    };
    vec![
        Spec {
            name: "fig5_write",
            why: "Fig. 5c headline: 16 clients x 2 MB barrier-synchronised writes; host time is cdd write planning plus DataPlane copies",
            kind: fig5(true),
            configs: four.clone(),
        },
        Spec {
            name: "fig5_read",
            why: "Same shape read back and verified: loads the cdd read path and ReadBalancer, so a write-path gain that costs reads shows here",
            kind: fig5(false),
            configs: four.clone(),
        },
        Spec {
            name: "andrew",
            why: "Fig. 6: 32 clients run the five Andrew phases over cfs; the only workload where cfs works, tens of thousands of small store calls",
            kind: Kind::Andrew {
                inodes: 16384,
                cfg: AndrewConfig {
                    clients: if smoke { 8 } else { 32 },
                    dirs: 4,
                    files_per_dir: 5,
                    mean_file_bytes: 16 << 10,
                    compile_cpu: SimDuration::from_millis(40),
                },
            },
            configs: four.clone(),
        },
        Spec {
            name: "zipf_cache",
            why: "Zipf(1.0) single-block reads over 8x a client cache, one Engine::run per op; only here do cdd::cache and per-op engine start-up matter",
            kind: Kind::Zipf(ZipfConfig {
                clients: 16,
                region_blocks: 2048,
                reads: if smoke { 1000 } else { 10_000 },
                write_every: 16,
                skew_x100: 100,
            }),
            configs: zipf_cfgs,
        },
        Spec {
            name: "scale_small_write",
            why: "128 nodes x 128 clients x 32 KB writes: engine-dominated (queue scans grow with cluster size); a DataPlane change must not show here",
            kind: Kind::Fig5 {
                nodes: 128,
                cfg: Fig5Config {
                    clients: 128,
                    bytes: 32 << 10,
                    bursts: bursts(8),
                    base_lb: 0,
                    write: true,
                },
            },
            configs: four,
        },
    ]
}

/// Seeded inputs of one workload, generated once per process.
pub enum Inputs {
    /// Placement and payloads of a parallel-I/O run.
    Fig5(Fig5Config, Fig5Inputs),
    /// File sizes and contents.
    Andrew(AndrewInputs),
    /// The operation stream.
    Zipf(ZipfInputs),
}

/// The cluster a workload of `kind` runs on.
pub fn cluster_of(kind: &Kind) -> ClusterConfig {
    match kind {
        Kind::Fig5 { nodes, .. } => ClusterConfig::shape(*nodes, 1),
        Kind::Andrew { .. } | Kind::Zipf(_) => ClusterConfig::trojans(),
    }
}

/// Turn `seed` into the workload's inputs. The layers never see the seed.
pub fn gen_inputs(spec: &Spec, seed: u64) -> Inputs {
    let bs = cluster_of(&spec.kind).block_size;
    match &spec.kind {
        Kind::Fig5 { nodes, cfg } => {
            // Where the files start is an input. The shift is a whole
            // number of layout periods (n rows of n-1 data blocks: the
            // RAID-5 parity rotation and the RAID-x mirror groups both
            // repeat after that), so every file keeps its place in the
            // layout and only its distance along the platters changes.
            // An arbitrary shift moves RAID-x small-write bandwidth by
            // 9% on its own and would drown a real change.
            let n = *nodes as u64;
            let period = n * (n - 1);
            let room = cluster_of(&spec.kind).blocks_per_disk() / 2 / period;
            let shift = SplitMix64::new(seed).substream(0xBA5E).next_below(room.clamp(1, 256));
            let cfg = Fig5Config { base_lb: shift * period, ..*cfg };
            let inputs = fig5::gen_inputs(&cfg, bs, seed);
            Inputs::Fig5(cfg, inputs)
        }
        Kind::Andrew { cfg, .. } => Inputs::Andrew(andrew::gen_inputs(cfg, seed)),
        Kind::Zipf(cfg) => Inputs::Zipf(zipf::gen_inputs(cfg, seed)),
    }
}

/// Deterministic counters read before and after the measured phase.
#[derive(Debug, Clone, Default)]
struct Probe {
    sim_ns: u64,
    engine: sim_core::prof::EngineStats,
    /// `(busy, ops, queue_wait)` per resource, in registration order.
    resources: Vec<(u64, u64, u64)>,
    lock_grants: u64,
    lock_conflicts: u64,
    timeouts: u64,
    failovers: u64,
    cache: cdd::CacheStats,
    plane_written: u64,
    plane_read: u64,
    cfs_cache: (u64, u64),
}

impl Probe {
    fn take(engine: &Engine, store: &mut Store, cfs_cache: (u64, u64)) -> Probe {
        let mut p = Probe {
            sim_ns: engine.now().0,
            engine: *engine.stats(),
            resources: engine
                .resources()
                .map(|(_, _, s)| (s.busy.as_nanos(), s.ops, s.queue_wait.as_nanos()))
                .collect(),
            cfs_cache,
            ..Probe::default()
        };
        if let Some(sys) = store.cdd_mut() {
            p.lock_grants = sys.lock_grants();
            p.lock_conflicts = sys.lock_conflicts();
            p.timeouts = sys.timeouts();
            p.failovers = sys.failovers();
            p.cache = sys.cache_stats().unwrap_or_default();
            p.plane_written = sys.plane_mut().bytes_written();
            p.plane_read = sys.plane_mut().bytes_read();
        }
        p
    }
}

/// Utilisation and waiting of the modelled components over the measured
/// phase, grouped by resource kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceFacts {
    /// Mean disk utilisation.
    pub disk_util_mean: f64,
    /// Busiest disk's utilisation.
    pub disk_util_max: f64,
    /// Mean queueing delay per disk demand, ms.
    pub disk_wait_ms_mean: f64,
    /// Longest disk queue seen (lifetime of the engine).
    pub disk_max_queue: u64,
    /// Busiest SCSI bus's utilisation.
    pub scsi_util_max: f64,
    /// Busiest NIC transmit side.
    pub tx_util_max: f64,
    /// Busiest NIC receive side.
    pub rx_util_max: f64,
    /// Mean queueing delay per NIC demand, ms.
    pub net_wait_ms_mean: f64,
    /// Busiest node CPU.
    pub cpu_util_max: f64,
}

/// Everything simulated or counted in one configuration's measured phase.
/// Two repetitions of the same inputs must produce equal values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimFacts {
    /// What the driver observed.
    pub outcome: Outcome,
    /// Blocks or files that failed verification after the measured phase.
    pub verify_failed: u64,
    /// Work counted at the store boundary.
    pub store: StoreCounts,
    /// Engine events dispatched.
    pub events: u64,
    /// Pending demands inspected by queue scans.
    pub queue_scan_iters: u64,
    /// Tasks spawned.
    pub tasks_spawned: u64,
    /// Spawns that allocated a fresh slot.
    pub task_slot_allocs: u64,
    /// Largest event-heap population (lifetime of the engine).
    pub heap_peak: u64,
    /// Lock-group grants.
    pub lock_grants: u64,
    /// Lock-group conflicts.
    pub lock_conflicts: u64,
    /// Request attempts that timed out.
    pub timeouts: u64,
    /// Requests that failed over to a replica.
    pub failovers: u64,
    /// CDD client-cache hits.
    pub cache_hits: u64,
    /// CDD client-cache misses.
    pub cache_misses: u64,
    /// CDD client-cache invalidations.
    pub cache_invalidations: u64,
    /// CDD client-cache evictions.
    pub cache_evictions: u64,
    /// Bytes stored into the `DataPlane`.
    pub plane_written: u64,
    /// Bytes fetched from the `DataPlane`.
    pub plane_read: u64,
    /// `cfs` metadata-cache hits.
    pub cfs_cache_hits: u64,
    /// `cfs` metadata-cache misses.
    pub cfs_cache_misses: u64,
    /// Modelled-component utilisation.
    pub resources: ResourceFacts,
}

impl SimFacts {
    /// Operations that failed, verification included.
    pub fn failed(&self) -> u64 {
        (self.outcome.failed + self.verify_failed).min(self.outcome.attempted)
    }
}

fn facts(engine: &Engine, a: &Probe, b: &Probe, outcome: Outcome, store: StoreCounts) -> SimFacts {
    let span_ns = outcome.drain_ns.max(b.sim_ns - a.sim_ns);
    let util = |busy: u64| if span_ns == 0 { 0.0 } else { busy as f64 / span_ns as f64 };
    let mut r = ResourceFacts::default();
    let (mut disks, mut disk_busy) = (0u64, 0u64);
    let (mut disk_wait, mut disk_ops, mut net_wait, mut net_ops) = (0u64, 0u64, 0u64, 0u64);
    for (i, (_, name, stats)) in engine.resources().enumerate() {
        let before = a.resources.get(i).copied().unwrap_or_default();
        let (busy, ops, wait) =
            (b.resources[i].0 - before.0, b.resources[i].1 - before.1, b.resources[i].2 - before.2);
        if name.starts_with("disk") {
            disks += 1;
            disk_busy += busy;
            disk_wait += wait;
            disk_ops += ops;
            r.disk_util_max = r.disk_util_max.max(util(busy));
            r.disk_max_queue = r.disk_max_queue.max(stats.max_queue as u64);
        } else if name.ends_with("/scsi") {
            r.scsi_util_max = r.scsi_util_max.max(util(busy));
        } else if name.ends_with("/tx") || name.ends_with("/rx") {
            net_wait += wait;
            net_ops += ops;
            let side = if name.ends_with("/tx") { &mut r.tx_util_max } else { &mut r.rx_util_max };
            *side = side.max(util(busy));
        } else if name.ends_with("/cpu") {
            r.cpu_util_max = r.cpu_util_max.max(util(busy));
        }
    }
    r.disk_util_mean = if disks == 0 { 0.0 } else { util(disk_busy) / disks as f64 };
    let mean_ms = |wait: u64, ops: u64| if ops == 0 { 0.0 } else { wait as f64 / ops as f64 / 1e6 };
    r.disk_wait_ms_mean = mean_ms(disk_wait, disk_ops);
    r.net_wait_ms_mean = mean_ms(net_wait, net_ops);
    SimFacts {
        outcome,
        verify_failed: 0,
        store,
        events: b.engine.events - a.engine.events,
        queue_scan_iters: b.engine.queue_scan_iters - a.engine.queue_scan_iters,
        tasks_spawned: b.engine.tasks_spawned - a.engine.tasks_spawned,
        task_slot_allocs: b.engine.task_slot_allocs - a.engine.task_slot_allocs,
        heap_peak: b.engine.heap_peak,
        lock_grants: b.lock_grants - a.lock_grants,
        lock_conflicts: b.lock_conflicts - a.lock_conflicts,
        timeouts: b.timeouts - a.timeouts,
        failovers: b.failovers - a.failovers,
        cache_hits: b.cache.hits - a.cache.hits,
        cache_misses: b.cache.misses - a.cache.misses,
        cache_invalidations: b.cache.invalidations - a.cache.invalidations,
        cache_evictions: b.cache.evictions - a.cache.evictions,
        plane_written: b.plane_written - a.plane_written,
        plane_read: b.plane_read - a.plane_read,
        cfs_cache_hits: b.cfs_cache.0 - a.cfs_cache.0,
        cfs_cache_misses: b.cfs_cache.1 - a.cfs_cache.1,
        resources: r,
    }
}

/// One configuration of one repetition.
#[derive(Debug, Clone)]
pub struct ConfigRun {
    /// Architecture key.
    pub key: &'static str,
    /// Host nanoseconds building cluster and store, formatting,
    /// pre-creating, seeding.
    pub setup_ns: u64,
    /// Host nanoseconds of the measured phase: the root `driver` span less
    /// the benchmark's own output checks inside it.
    pub measured_ns: u64,
    /// Simulated results and work counts.
    pub facts: SimFacts,
    /// Peak OSM image backlog in blocks (sampled in traced runs only).
    pub image_backlog_peak: u64,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
}

/// What the measured phase runs against: the wrapped store, bare or
/// mounted under `cfs`.
enum Subject {
    Bare(SpanStore<Store>),
    Mounted(Fs<SpanStore<Store>>),
}

impl Subject {
    fn store_mut(&mut self) -> &mut SpanStore<Store> {
        match self {
            Subject::Bare(s) => s,
            Subject::Mounted(fs) => fs.store_mut(),
        }
    }

    fn cfs_cache(&self) -> (u64, u64) {
        match self {
            Subject::Bare(_) => (0, 0),
            Subject::Mounted(fs) => fs.cache_stats(),
        }
    }
}

/// Set-up of one configuration: pre-create what a read run reads, format
/// the volume, seed the Zipf region. `Err` if any of it fails.
fn set_up(
    engine: &mut Engine,
    mut store: SpanStore<Store>,
    tr: &Tracer,
    spec: &Spec,
    inputs: &Inputs,
) -> Result<Subject, String> {
    let _g = tr.span("setup");
    match (&spec.kind, inputs) {
        (Kind::Fig5 { .. }, Inputs::Fig5(cfg, inputs)) => {
            if !cfg.write {
                fig5::precreate(&mut store, cfg, inputs).map_err(|e| e.to_string())?;
            }
            Ok(Subject::Bare(store))
        }
        // The format plan is dropped: the volume exists before the clock starts.
        (Kind::Andrew { inodes, .. }, Inputs::Andrew(_)) => Fs::format(store, *inodes, 0)
            .map(|(fs, _)| Subject::Mounted(fs))
            .map_err(|e| e.to_string()),
        (Kind::Zipf(_), Inputs::Zipf(inputs)) => {
            zipf::seed_region(&mut Sim::new(engine, tr), &mut store, inputs)?;
            Ok(Subject::Bare(store))
        }
        _ => Err("inputs were generated for another workload".to_string()),
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Run one configuration of `spec` once: build, set up, run the measured
/// phase under the root `driver` span, verify, tear down.
pub fn run_config(spec: &Spec, inputs: &Inputs, sc: &StoreConfig, traced: bool) -> ConfigRun {
    let tr = if traced { Tracer::on() } else { Tracer::off() };
    let t0 = Instant::now();
    let mut engine = Engine::new();
    let store = SpanStore::new(Store::build(&mut engine, cluster_of(&spec.kind), sc), tr.clone());
    let Ok(mut subject) = set_up(&mut engine, store, &tr, spec, inputs) else {
        // Nothing was measured; every operation counts as failed.
        let outcome = Outcome { attempted: 1, failed: 1, ..Outcome::default() };
        return ConfigRun {
            key: sc.key,
            setup_ns: ns(t0, Instant::now()),
            measured_ns: 0,
            facts: SimFacts { outcome, ..SimFacts::default() },
            image_backlog_peak: 0,
            spans: tr.take(),
        };
    };

    // The measured phase starts: zero the boundary counters, start the
    // backlog sampler in traced runs, snapshot everything else.
    let t1 = Instant::now();
    let cfs_cache = subject.cfs_cache();
    let store = subject.store_mut();
    store.reset_counts();
    if let (true, Some(sys)) = (traced, store.inner_mut().cdd_mut()) {
        sys.enable_lock_metrics();
    }
    let before = Probe::take(&engine, store.inner_mut(), cfs_cache);
    let (outcome, checked_ns) = {
        let _g = tr.span("driver");
        let mut sim = Sim::new(&mut engine, &tr);
        let outcome = match (&mut subject, &spec.kind, inputs) {
            (Subject::Bare(store), _, Inputs::Fig5(cfg, inputs)) => {
                fig5::run(&mut sim, store, cfg, inputs)
            }
            (Subject::Mounted(fs), Kind::Andrew { cfg, .. }, Inputs::Andrew(inputs)) => {
                andrew::run(&mut sim, fs, cfg, inputs)
            }
            (Subject::Bare(store), _, Inputs::Zipf(inputs)) => zipf::run(&mut sim, store, inputs),
            _ => unreachable!("set_up pairs subject, kind and inputs"),
        };
        (outcome, sim.checked_ns)
    };
    let t2 = Instant::now();
    let cfs_cache = subject.cfs_cache();
    let after = Probe::take(&engine, subject.store_mut().inner_mut(), cfs_cache);
    let mut facts = facts(&engine, &before, &after, outcome, subject.store_mut().counts());

    // Written data is read back after the measured phase.
    {
        let _g = tr.span("verify");
        facts.verify_failed = match (&mut subject, &spec.kind, inputs) {
            (Subject::Bare(store), _, Inputs::Fig5(cfg, inputs)) if cfg.write => {
                fig5::verify_written(store, cfg, inputs)
            }
            (Subject::Mounted(fs), Kind::Andrew { cfg, .. }, _) => andrew::verify_objects(fs, cfg),
            _ => 0,
        };
    }
    let samples = subject
        .store_mut()
        .inner_mut()
        .cdd_mut()
        .map(|s| s.take_backlog_samples())
        .unwrap_or_default();
    let image_backlog_peak = samples.iter().map(|&(_, blocks)| blocks as u64).max().unwrap_or(0);
    ConfigRun {
        key: sc.key,
        setup_ns: ns(t0, t1),
        measured_ns: ns(t1, t2) - checked_ns,
        facts,
        image_backlog_peak,
        spans: tr.take(),
    }
}

/// One repetition: every configuration of the workload, in sequence.
#[derive(Debug, Clone)]
pub struct Rep {
    /// One entry per configuration, in `Spec::configs` order.
    pub configs: Vec<ConfigRun>,
}

impl Rep {
    /// Measured-phase host seconds, summed over the configurations.
    pub fn host_s(&self) -> f64 {
        self.configs.iter().map(|c| c.measured_ns).sum::<u64>() as f64 / 1e9
    }

    /// Set-up host seconds, summed over the configurations.
    pub fn setup_s(&self) -> f64 {
        self.configs.iter().map(|c| c.setup_ns).sum::<u64>() as f64 / 1e9
    }

    /// The configuration with `key`.
    pub fn config(&self, key: &str) -> Option<&ConfigRun> {
        self.configs.iter().find(|c| c.key == key)
    }
}

/// Run one repetition of `spec`.
pub fn run_rep(spec: &Spec, inputs: &Inputs, traced: bool) -> Rep {
    Rep { configs: spec.configs.iter().map(|sc| run_config(spec, inputs, sc, traced)).collect() }
}
