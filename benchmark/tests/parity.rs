//! Driver parity: at small sizes the benchmark's own load generators
//! reproduce the repository's Fig. 5 / Fig. 6 generators exactly — same
//! simulated results, same number of engine events — so the benchmark
//! cannot drift from the protocol the experiment binaries implement.

use benchmark::drivers::{andrew, fig5, Sim};
use benchmark::spans::Tracer;
use benchmark::store::{Store, StoreConfig, FOUR_ARCHS};
use cdd::BlockStore;
use cfs::Fs;
use cluster::ClusterConfig;
use sim_core::{Engine, SimDuration};
use workloads::{run_andrew, run_parallel_io, IoPattern, ParallelIoConfig};

fn build(sc: &StoreConfig) -> (Engine, Store) {
    let mut engine = Engine::new();
    let store = Store::build(&mut engine, ClusterConfig::trojans(), sc);
    (engine, store)
}

fn ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

#[test]
fn fig5_driver_matches_run_parallel_io() {
    let cases = [
        (IoPattern::LargeWrite, 256 << 10),
        (IoPattern::LargeRead, 256 << 10),
        (IoPattern::SmallWrite, 32 << 10),
        (IoPattern::SmallRead, 32 << 10),
    ];
    for sc in FOUR_ARCHS {
        for (pattern, bytes) in cases {
            let (mut e1, mut s1) = build(&sc);
            let reference = run_parallel_io(
                &mut e1,
                &mut s1,
                &ParallelIoConfig {
                    clients: 6,
                    pattern,
                    large_bytes: bytes,
                    small_bytes: bytes,
                    repeats: 3,
                    precreate: true,
                },
            )
            .expect("reference run");

            let (mut e2, mut s2) = build(&sc);
            let cfg = fig5::Fig5Config {
                clients: 6,
                bytes,
                bursts: 3,
                base_lb: 0,
                write: pattern.is_write(),
            };
            let inputs = fig5::gen_inputs(&cfg, s2.block_size(), 42);
            if !cfg.write {
                fig5::precreate(&mut s2, &cfg, &inputs).expect("precreate");
            }
            let tr = Tracer::off();
            let out = fig5::run(&mut Sim::new(&mut e2, &tr), &mut s2, &cfg, &inputs);

            let what = format!("{} {}", sc.key, pattern.label());
            assert_eq!(out.failed, 0, "{what}");
            assert_eq!(out.payload_bytes, reference.total_bytes, "{what}");
            assert_eq!(out.foreground_ns, ns(reference.elapsed_secs), "{what}: foreground");
            assert_eq!(out.drain_ns, ns(reference.drain_secs), "{what}: drain");
            assert_eq!(e2.stats().events, e1.stats().events, "{what}: engine events");
            assert_eq!(e2.stats().queue_scan_iters, e1.stats().queue_scan_iters, "{what}");
            let mean = out.job_lat_ns.iter().sum::<u64>() as f64 / 1e9 / (6.0 * 3.0);
            assert!((mean - reference.mean_latency_secs).abs() < 1e-12, "{what}: latency");
        }
    }
}

#[test]
fn andrew_driver_matches_run_andrew() {
    let seed = 0xA11D_4EA7;
    for sc in FOUR_ARCHS {
        let (mut e1, s1) = build(&sc);
        let (mut fs1, _) = Fs::format(s1, 2048, 0).expect("format");
        let reference = run_andrew(
            &mut e1,
            &mut fs1,
            &workloads::AndrewConfig {
                clients: 5,
                dirs: 2,
                files_per_dir: 3,
                mean_file_bytes: 16 << 10,
                compile_cpu: SimDuration::from_millis(40),
                seed,
            },
        )
        .expect("reference run");

        let (mut e2, s2) = build(&sc);
        let (mut fs2, _) = Fs::format(s2, 2048, 0).expect("format");
        let cfg = andrew::AndrewConfig {
            clients: 5,
            dirs: 2,
            files_per_dir: 3,
            mean_file_bytes: 16 << 10,
            compile_cpu: SimDuration::from_millis(40),
        };
        let inputs = andrew::gen_inputs(&cfg, seed);
        let tr = Tracer::off();
        let out = andrew::run(&mut Sim::new(&mut e2, &tr), &mut fs2, &cfg, &inputs);

        assert_eq!(out.failed, 0, "{}", sc.key);
        let phases: Vec<u64> = reference.phase_secs.iter().map(|&s| ns(s)).collect();
        assert_eq!(out.phase_ns, phases, "{}: phase times", sc.key);
        assert_eq!(e2.stats().events, e1.stats().events, "{}: engine events", sc.key);
        assert_eq!(fs2.cache_stats(), fs1.cache_stats(), "{}: cfs metadata cache", sc.key);
        assert_eq!(andrew::verify_objects(&mut fs2, &cfg), 0);
    }
}
