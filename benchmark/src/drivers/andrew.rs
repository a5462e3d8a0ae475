//! The five Andrew phases (Figure 6) over the cluster file system: every
//! client makes a private tree, copies seeded source files in, scans it,
//! reads everything back and "compiles" it. The only driver that reaches
//! the block store through `cfs`.

use cdd::BlockStore;
use cfs::Fs;
use sim_core::plan::{barrier, seq, use_res};
use sim_core::rng::SplitMix64;
use sim_core::{BarrierId, Demand, Plan, SimDuration};

use super::{Outcome, Sim};

/// Phase names, in order.
pub const PHASES: [&str; 5] = ["MakeDir", "Copy", "ScanDir", "ReadAll", "Make"];

/// Shape of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AndrewConfig {
    /// Concurrent clients; client `c` runs on node `(c + 1) % nodes`.
    pub clients: usize,
    /// Directories per client tree.
    pub dirs: usize,
    /// Source files per directory.
    pub files_per_dir: usize,
    /// Mean source-file size; sizes are drawn in `[mean/4, 2*mean)`.
    pub mean_file_bytes: usize,
    /// Simulated CPU time to compile one source file.
    pub compile_cpu: SimDuration,
}

/// Byte every linked object file is filled with.
const OBJ_FILL: u8 = 0xEE;

/// One client's source files: path and seeded contents.
pub struct AndrewInputs {
    manifests: Vec<Vec<(String, Vec<u8>)>>,
}

/// Draw every file's size and contents from `seed`. Sizes come from one
/// stream in client/dir/file order — the order `workloads::run_andrew`
/// draws them in, so the same seed gives the same sizes there.
pub fn gen_inputs(cfg: &AndrewConfig, seed: u64) -> AndrewInputs {
    let mut sizes = SplitMix64::new(seed);
    let mut bytes = sizes.substream(0xC0DE);
    let lo = (cfg.mean_file_bytes / 4).max(64);
    let hi = 2 * cfg.mean_file_bytes;
    let manifests = (0..cfg.clients)
        .map(|c| {
            let mut files = Vec::with_capacity(cfg.dirs * cfg.files_per_dir);
            for d in 0..cfg.dirs {
                for f in 0..cfg.files_per_dir {
                    let size = lo + sizes.next_below((hi - lo) as u64) as usize;
                    let mut data = Vec::with_capacity(size + 8);
                    while data.len() < size {
                        data.extend_from_slice(&bytes.next_u64().to_le_bytes());
                    }
                    data.truncate(size);
                    files.push((format!("/c{c}/d{d}/src{f}.c"), data));
                }
            }
            files
        })
        .collect();
    AndrewInputs { manifests }
}

/// Record the result of one file-system call: a plan to run, or a failure.
fn push<T>(
    out: &mut Outcome,
    ops: &mut Vec<Plan>,
    res: Result<(T, Plan), cfs::FsError>,
) -> Option<T> {
    out.attempted += 1;
    match res {
        Ok((v, p)) => {
            ops.push(p);
            Some(v)
        }
        Err(_) => {
            out.failed += 1;
            None
        }
    }
}

/// The measured phase: the five phases in order, each a barrier-started
/// job per client, run to completion before the next begins.
pub fn run<S: BlockStore>(
    sim: &mut Sim<'_>,
    fs: &mut Fs<S>,
    cfg: &AndrewConfig,
    inputs: &AndrewInputs,
) -> Outcome {
    let nodes = fs.store().nodes();
    let mut out = Outcome::default();
    // Payload is counted at the stated input size — the mean file size per
    // file moved — not at the sizes drawn: nearly every file fits one
    // block, so simulated time barely follows the draw while the byte
    // total does, and bandwidth would move 3% from seed to seed on that.
    let nominal = cfg.mean_file_bytes as u64;
    let t0 = sim.engine.now();
    let tr = sim.tr.clone();
    for (phase_idx, phase) in PHASES.iter().enumerate() {
        let start = sim.engine.now();
        let bid = BarrierId(0xAD00 + phase_idx as u32);
        sim.engine.register_barrier(bid, cfg.clients);
        let mut jobs = Vec::with_capacity(cfg.clients);
        for (c, manifest) in inputs.manifests.iter().enumerate() {
            let node = (c + 1) % nodes;
            let mut ops: Vec<Plan> = vec![barrier(bid)];
            let o = &mut out;
            match phase_idx {
                0 => {
                    tr.next_op();
                    let r = {
                        let _g = tr.span("cfs.mkdir");
                        fs.mkdir(node, &format!("/c{c}"))
                    };
                    push(o, &mut ops, r.map(|p| ((), p)));
                    for d in 0..cfg.dirs {
                        tr.next_op();
                        let r = {
                            let _g = tr.span("cfs.mkdir");
                            fs.mkdir(node, &format!("/c{c}/d{d}"))
                        };
                        push(o, &mut ops, r.map(|p| ((), p)));
                    }
                }
                1 => {
                    for (path, data) in manifest {
                        tr.next_op();
                        let r = {
                            let _g = tr.span("cfs.write_file");
                            fs.write_file(node, path, data)
                        };
                        if push(o, &mut ops, r.map(|p| ((), p))).is_some() {
                            o.payload_bytes += nominal;
                        }
                    }
                }
                2 => {
                    tr.next_op();
                    let r = {
                        let _g = tr.span("cfs.readdir");
                        fs.readdir(node, &format!("/c{c}"))
                    };
                    if let Some(entries) = push(o, &mut ops, r) {
                        o.failed += u64::from(entries.len() != cfg.dirs);
                    }
                    for d in 0..cfg.dirs {
                        tr.next_op();
                        let r = {
                            let _g = tr.span("cfs.readdir");
                            fs.readdir(node, &format!("/c{c}/d{d}"))
                        };
                        let entries = push(o, &mut ops, r).unwrap_or_default();
                        o.failed += u64::from(entries.len() != cfg.files_per_dir);
                        for e in entries {
                            tr.next_op();
                            let path = format!("/c{c}/d{d}/{}", e.name);
                            let r = {
                                let _g = tr.span("cfs.stat");
                                fs.stat(node, &path)
                            };
                            if let Some(inode) = push(o, &mut ops, r) {
                                let want = manifest.iter().find(|(p, _)| *p == path);
                                let ok = want.is_some_and(|(_, d)| d.len() as u64 == inode.size);
                                o.failed += u64::from(!ok);
                            }
                        }
                    }
                }
                3 | 4 => {
                    for (path, want) in manifest {
                        tr.next_op();
                        let r = {
                            let _g = tr.span("cfs.read_file");
                            fs.read_file(node, path)
                        };
                        if let Some(got) = push(o, &mut ops, r) {
                            o.failed += u64::from(!sim.check(|| got == *want));
                            o.payload_bytes += nominal;
                        }
                        if phase_idx == 4 {
                            let cpu = fs.store().cpu_of(node);
                            ops.push(use_res(cpu, Demand::Busy(cfg.compile_cpu)));
                        }
                    }
                    if phase_idx == 4 {
                        // Link step: one object file per directory.
                        let obj = vec![OBJ_FILL; cfg.mean_file_bytes];
                        for d in 0..cfg.dirs {
                            tr.next_op();
                            let r = {
                                let _g = tr.span("cfs.write_file");
                                fs.write_file(node, &format!("/c{c}/d{d}/prog.o"), &obj)
                            };
                            if push(o, &mut ops, r.map(|p| ((), p))).is_some() {
                                o.payload_bytes += nominal;
                            }
                        }
                    }
                }
                _ => unreachable!("five phases"),
            }
            jobs.push(sim.spawn(format!("andrew/c{c}/{phase}"), seq(ops)));
        }
        let Ok(report) = sim.run() else {
            out.fail_all();
            return out;
        };
        out.phase_ns.push(report.foreground_end.since(start).as_nanos());
        out.job_lat_ns.extend(jobs.iter().filter_map(|&j| sim.latency_ns(j)));
        out.drain_ns = report.end.since(t0).as_nanos();
    }
    out.foreground_ns = out.phase_ns.iter().sum();
    out
}

/// After the run: read every linked object back and count the ones whose
/// bytes differ from what the Make phase wrote.
pub fn verify_objects<S: BlockStore>(fs: &mut Fs<S>, cfg: &AndrewConfig) -> u64 {
    let nodes = fs.store().nodes();
    let want = vec![OBJ_FILL; cfg.mean_file_bytes];
    let mut bad = 0;
    for c in 0..cfg.clients {
        for d in 0..cfg.dirs {
            match fs.read_file((c + 1) % nodes, &format!("/c{c}/d{d}/prog.o")) {
                Ok((got, _)) if got == want => {}
                _ => bad += 1,
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use crate::store::{Store, FOUR_ARCHS};
    use cluster::ClusterConfig;
    use sim_core::Engine;

    fn small() -> AndrewConfig {
        AndrewConfig {
            clients: 3,
            dirs: 2,
            files_per_dir: 2,
            mean_file_bytes: 8 << 10,
            compile_cpu: SimDuration::from_millis(40),
        }
    }

    #[test]
    fn all_phases_run_clean_on_every_architecture() {
        let cfg = small();
        let inputs = gen_inputs(&cfg, 11);
        for sc in FOUR_ARCHS {
            let mut engine = Engine::new();
            let store = Store::build(&mut engine, ClusterConfig::shape(4, 1), &sc);
            let (mut fs, _) = Fs::format(store, 512, 0).expect("format");
            let tr = Tracer::off();
            let out = run(&mut Sim::new(&mut engine, &tr), &mut fs, &cfg, &inputs);
            assert_eq!(out.failed, 0, "{}", sc.key);
            assert_eq!(out.phase_ns.len(), 5);
            assert!(out.phase_ns.iter().all(|&p| p > 0), "{}: {:?}", sc.key, out.phase_ns);
            assert_eq!(out.job_lat_ns.len(), 15);
            // mkdir 3x3, copy 3x4, scan 3x(1+2+4), read 3x4, make 3x(4+2)
            assert_eq!(out.attempted, 9 + 12 + 21 + 12 + 18);
            assert_eq!(verify_objects(&mut fs, &cfg), 0);
        }
    }

    #[test]
    fn a_full_inode_table_is_counted_as_failures() {
        let cfg = small();
        let inputs = gen_inputs(&cfg, 11);
        let mut engine = Engine::new();
        let store = Store::build(&mut engine, ClusterConfig::shape(4, 1), &FOUR_ARCHS[3]);
        // Room for the root and a few directories only.
        let (mut fs, _) = Fs::format(store, 4, 0).expect("format");
        let tr = Tracer::off();
        let out = run(&mut Sim::new(&mut engine, &tr), &mut fs, &cfg, &inputs);
        assert!(out.failed > 0, "running out of inodes must surface as failed ops");
        assert!(verify_objects(&mut fs, &cfg) > 0);
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let cfg = small();
        let (a, b, c) = (gen_inputs(&cfg, 5), gen_inputs(&cfg, 5), gen_inputs(&cfg, 6));
        assert_eq!(a.manifests, b.manifests);
        assert_ne!(a.manifests, c.manifests);
    }
}
