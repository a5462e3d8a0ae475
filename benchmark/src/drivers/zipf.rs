//! Zipf-skewed single-block reads with interleaved invalidating writes,
//! each operation run to completion before the next is issued. The only
//! driver with a per-operation latency, and the only one on which the CDD
//! client cache and the engine's per-`run` start-up cost matter.

use cdd::BlockStore;
use sim_core::check::Gen;
use sim_core::Plan;

use super::{Outcome, Sim};

/// Shape of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipfConfig {
    /// Issuing nodes; each op draws its client uniformly.
    pub clients: usize,
    /// Blocks in the accessed region (block 0 upward).
    pub region_blocks: u64,
    /// Reads in the measured phase.
    pub reads: usize,
    /// One write before every `write_every`-th read (0 = read-only).
    pub write_every: usize,
    /// Zipf exponent times 100.
    pub skew_x100: u32,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZipfOp {
    /// Overwrite block `lb` with `fill`.
    Write {
        /// Issuing node.
        client: usize,
        /// Target block.
        lb: u64,
        /// Byte the whole block is set to.
        fill: u8,
    },
    /// Read block `lb`; every byte must equal `expect`.
    Read {
        /// Issuing node.
        client: usize,
        /// Target block.
        lb: u64,
        /// Byte the shadow model holds for the block at this point.
        expect: u8,
    },
}

/// The seeded operation stream and the region's initial contents.
pub struct ZipfInputs {
    /// Initial fill byte of every block of the region.
    pub initial: Vec<u8>,
    /// Measured-phase operations, in issue order.
    pub ops: Vec<ZipfOp>,
}

/// Draw the whole operation stream from `seed`: a rank→block permutation
/// (hot ranks scatter over the disks), then per read one Zipf rank and one
/// client, with a write drawn the same way before every
/// `write_every`-th read. The draw order is `workloads::run_zipf`'s, so
/// the same seed addresses the same blocks there. Expected bytes come
/// from a shadow model advanced alongside.
pub fn gen_inputs(cfg: &ZipfConfig, seed: u64) -> ZipfInputs {
    assert!(cfg.clients > 0 && cfg.region_blocks > 0, "degenerate workload shape");
    let mut g = Gen::new(seed);
    // Cumulative Zipf weights; a rank is drawn by inverse CDF.
    let s = f64::from(cfg.skew_x100) / 100.0;
    let mut cum = Vec::with_capacity(cfg.region_blocks as usize);
    let mut acc = 0.0_f64;
    for k in 0..cfg.region_blocks {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cum.push(acc);
    }
    let mut perm: Vec<u64> = (0..cfg.region_blocks).collect();
    for i in (1..perm.len()).rev() {
        let j = g.usize_in(0..i + 1);
        perm.swap(i, j);
    }
    let draw_block = |g: &mut Gen| {
        let u = g.u64_in(0..(1 << 53)) as f64 / (1u64 << 53) as f64 * acc;
        perm[cum.partition_point(|&c| c <= u)]
    };
    // Odd tags only, so a written block never equals an unwritten one.
    let salt = (seed as u8) & 0xFE;
    let fill_byte = |tag: u8, lb: u64| tag ^ (lb as u8) ^ salt;
    let mut model: Vec<u8> = (0..cfg.region_blocks).map(|lb| fill_byte(1, lb)).collect();
    let initial = model.clone();
    let mut ops = Vec::with_capacity(cfg.reads + cfg.reads / cfg.write_every.max(1));
    let mut tag: u8 = 1;
    for i in 0..cfg.reads {
        if cfg.write_every > 0 && i % cfg.write_every == cfg.write_every - 1 {
            let lb = draw_block(&mut g);
            let client = g.usize_in(0..cfg.clients);
            tag = tag.wrapping_add(2);
            model[lb as usize] = fill_byte(tag, lb);
            ops.push(ZipfOp::Write { client, lb, fill: model[lb as usize] });
        }
        let client = g.usize_in(0..cfg.clients);
        let lb = draw_block(&mut g);
        ops.push(ZipfOp::Read { client, lb, expect: model[lb as usize] });
    }
    ZipfInputs { initial, ops }
}

/// Blocks per seeding write. One job per block would queue thousands of
/// demands at once and spend the set-up in the engine's queue scans.
const SEED_RUN: usize = 64;

/// Set-up: fill the region in runs of [`SEED_RUN`] blocks and let the
/// writes finish.
pub fn seed_region<S: BlockStore>(
    sim: &mut Sim<'_>,
    store: &mut S,
    inputs: &ZipfInputs,
) -> Result<(), String> {
    let bs = store.block_size() as usize;
    for (i, fills) in inputs.initial.chunks(SEED_RUN).enumerate() {
        let mut data = Vec::with_capacity(fills.len() * bs);
        for &fill in fills {
            data.resize(data.len() + bs, fill);
        }
        let plan = store.write(0, (i * SEED_RUN) as u64, &data).map_err(|e| e.to_string())?;
        sim.spawn(format!("zipf-seed/{i}"), plan);
    }
    sim.run().map(|_| ()).map_err(|e| e.to_string())
}

/// The measured phase: issue the stream; a write is spawned and completes
/// together with the read that follows it, every read is verified and run
/// to completion on its own.
pub fn run<S: BlockStore>(sim: &mut Sim<'_>, store: &mut S, inputs: &ZipfInputs) -> Outcome {
    let bs = store.block_size();
    let mut out = Outcome { attempted: inputs.ops.len() as u64, ..Outcome::default() };
    out.payload_bytes = out.attempted * bs;
    out.job_lat_ns.reserve(inputs.ops.len());
    // One block of the expected byte, so a read verifies with one memcmp.
    let mut want = vec![0u8; bs as usize];
    let t0 = sim.engine.now();
    for (i, op) in inputs.ops.iter().enumerate() {
        sim.tr.next_op();
        match *op {
            ZipfOp::Write { client, lb, fill } => {
                want.fill(fill);
                match store.write(client, lb, &want) {
                    Ok(plan) => drop(sim.spawn(format!("zipf-w/{i}"), plan)),
                    Err(_) => out.failed += 1,
                }
            }
            ZipfOp::Read { client, lb, expect } => {
                want.fill(expect);
                let plan = match store.read(client, lb, 1) {
                    Ok((data, plan)) => {
                        out.failed += u64::from(!sim.check(|| data == want));
                        plan
                    }
                    Err(_) => {
                        out.failed += 1;
                        Plan::Noop
                    }
                };
                let job = sim.spawn(format!("zipf-r/{i}"), plan);
                if sim.run().is_err() {
                    out.fail_all();
                    return out;
                }
                out.job_lat_ns.extend(sim.latency_ns(job));
            }
        }
    }
    out.foreground_ns = sim.engine.now().since(t0).as_nanos();
    out.drain_ns = out.foreground_ns;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use crate::store::{Store, StoreConfig, FOUR_ARCHS};
    use cdd::CacheConfig;
    use cluster::ClusterConfig;
    use sim_core::Engine;

    fn small() -> ZipfConfig {
        ZipfConfig { clients: 4, region_blocks: 64, reads: 400, write_every: 16, skew_x100: 100 }
    }

    fn run_on(sc: &StoreConfig, inputs: &ZipfInputs) -> Outcome {
        let mut engine = Engine::new();
        let mut cc = ClusterConfig::shape(4, 1);
        cc.disk.capacity = 8 << 20;
        let mut store = Store::build(&mut engine, cc, sc);
        let tr = Tracer::off();
        let mut sim = Sim::new(&mut engine, &tr);
        seed_region(&mut sim, &mut store, inputs).expect("seeding");
        run(&mut sim, &mut store, inputs)
    }

    #[test]
    fn stream_is_seeded_skewed_and_self_consistent() {
        let cfg = small();
        let a = gen_inputs(&cfg, 9);
        assert_eq!(a.ops, gen_inputs(&cfg, 9).ops);
        assert_ne!(a.ops, gen_inputs(&cfg, 10).ops);
        let reads = a.ops.iter().filter(|o| matches!(o, ZipfOp::Read { .. })).count();
        assert_eq!((reads, a.ops.len()), (400, 425));
        // Zipf(1.0): the most-read block draws far more than a uniform share.
        let mut hits = vec![0usize; 64];
        for o in &a.ops {
            if let ZipfOp::Read { lb, .. } = o {
                hits[*lb as usize] += 1;
            }
        }
        assert!(*hits.iter().max().expect("non-empty") > 5 * 400 / 64);
    }

    #[test]
    fn every_read_verifies_with_and_without_the_cache() {
        let inputs = gen_inputs(&small(), 9);
        let plain = run_on(&FOUR_ARCHS[3], &inputs);
        let cached = run_on(
            &StoreConfig { cache: Some(CacheConfig { capacity_blocks: 32 }), ..FOUR_ARCHS[3] },
            &inputs,
        );
        assert_eq!((plain.failed, cached.failed), (0, 0));
        assert_eq!(plain.job_lat_ns.len(), 400);
        assert!(cached.foreground_ns < plain.foreground_ns, "cache hits must save simulated time");
        assert_eq!(run_on(&FOUR_ARCHS[0], &inputs).failed, 0, "the stream also runs over NFS");
    }

    #[test]
    fn a_stale_block_is_counted() {
        let mut inputs = gen_inputs(&small(), 9);
        // Lie about one read's expected byte: exactly that read must fail.
        let idx = inputs.ops.iter().position(|o| matches!(o, ZipfOp::Read { .. })).expect("read");
        if let ZipfOp::Read { expect, .. } = &mut inputs.ops[idx] {
            *expect ^= 0xFF;
        }
        assert_eq!(run_on(&FOUR_ARCHS[3], &inputs).failed, 1);
    }
}
