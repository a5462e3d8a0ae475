//! Single resources checked against closed-form queueing theory. Each
//! point drives ≈20,000 Poisson arrivals through one engine resource and
//! compares the measured mean queueing delay (`ResourceStats`) with the
//! formula for that queue:
//!
//! * M/D/1 at a `FixedRate` NIC: Wq = ρ·S / (2(1 − ρ)).
//! * M/G/1 at a `DiskModel` (Pollaczek–Khinchine):
//!   Wq = λ·E[S²] / (2(1 − λ·E[S])), with E[S] and E[S²] taken from a
//!   twin model fed the same demands in the same order. An FCFS disk
//!   draws its service times in arrival order, so the twin's are exactly
//!   the ones the engine charged.
//! * Two classes at one NIC, foreground ahead of `Plan::Background`
//!   without preemption (Cobham): with W0 = Σ λᵢ·E[Sᵢ²] / 2, the
//!   foreground waits W0 / (1 − ρ₁) and the background
//!   W0 / ((1 − ρ₁)(1 − ρ₁ − ρ₂)).
//!
//! Each tolerance is set from the spread of the relative error over seeds
//! 1–20 at that point (same arrival count), as |mean| + 3·sd rounded up to
//! a whole percent; the comment beside each table gives the measured
//! spread. The tests run seed 1.

use sim_core::plan::{background, use_res};
use sim_core::{Demand, Engine, FixedRate, ResourceId, ServiceModel, SimDuration, SimTime};
use sim_core::{ResourceStats, SplitMix64};
use sim_disk::{DiskModel, DiskSpec};

/// Arrivals per point.
const N: usize = 20_000;
/// One 32 KB block.
const BLOCK: u64 = 32 << 10;
/// A 100 Mb/s Fast Ethernet port, in bytes per second.
const NIC_RATE: u64 = 12_500_000;
/// The seed the tests run.
const SEED: u64 = 1;

/// `n` Poisson arrival times at rate `lambda` per second, from `rng`.
fn poisson(rng: &mut SplitMix64, n: usize, lambda: f64) -> Vec<SimTime> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / lambda;
            SimTime((t * 1e9) as u64)
        })
        .collect()
}

/// Mean queueing delay, in seconds, of `ops` demands that waited `wait`.
fn mean_s(wait: SimDuration, ops: u64) -> f64 {
    wait.as_secs_f64() / ops as f64
}

/// Run `jobs` (start, plan) on one resource built from `model` and return
/// its statistics.
fn run_one(
    model: Box<dyn ServiceModel>,
    jobs: impl FnOnce(ResourceId) -> Vec<(SimTime, sim_core::Plan)>,
) -> ResourceStats {
    let mut e = Engine::new();
    let r = e.add_resource("r", model);
    for (at, plan) in jobs(r) {
        e.spawn_job_at("a", at, plan);
    }
    e.run().expect("one resource, no barriers: cannot deadlock");
    e.resource_stats(r).clone()
}

/// Relative error (measured − theory) / theory of the M/D/1 NIC at `rho`.
fn md1_error(seed: u64, rho: f64) -> f64 {
    let demand = Demand::NetXfer { bytes: BLOCK };
    let s = SimDuration::for_bytes(BLOCK, NIC_RATE).as_secs_f64();
    let arrivals = poisson(&mut SplitMix64::new(seed), N, rho / s);
    let stats = run_one(Box::new(FixedRate::rate(NIC_RATE)), |r| {
        arrivals.iter().map(|&t| (t, use_res(r, demand.clone()))).collect()
    });
    let theory = rho * s / (2.0 * (1.0 - rho));
    mean_s(stats.queue_wait, stats.ops) / theory - 1.0
}

/// Relative error of the M/G/1 disk at `rho`, for random 32 KB reads.
fn mg1_error(seed: u64, rho: f64) -> f64 {
    let spec = DiskSpec::classic_scsi();
    let mut rng = SplitMix64::new(seed);
    let blocks = spec.capacity / BLOCK;
    let demands: Vec<Demand> = (0..N)
        .map(|_| Demand::DiskRead { offset: rng.next_below(blocks) * BLOCK, bytes: BLOCK })
        .collect();
    let mut twin = DiskModel::new(spec.clone(), seed);
    let service: Vec<f64> =
        demands.iter().map(|d| twin.service_time(d, SimTime::ZERO).as_secs_f64()).collect();
    let es = service.iter().sum::<f64>() / N as f64;
    let es2 = service.iter().map(|x| x * x).sum::<f64>() / N as f64;
    let lambda = rho / es;
    let arrivals = poisson(&mut rng, N, lambda);
    let stats = run_one(Box::new(DiskModel::new(spec, seed)), |r| {
        arrivals.iter().zip(&demands).map(|(&t, d)| (t, use_res(r, d.clone()))).collect()
    });
    let theory = lambda * es2 / (2.0 * (1.0 - rho));
    mean_s(stats.queue_wait, stats.ops) / theory - 1.0
}

/// Relative errors (foreground, background) of the two-class NIC at total
/// load `rho`, split evenly: foreground 32 KB, background 64 KB transfers.
fn cobham_errors(seed: u64, rho: f64) -> (f64, f64) {
    let (fg, bg) = (BLOCK, 2 * BLOCK);
    let (s1, s2) = (
        SimDuration::for_bytes(fg, NIC_RATE).as_secs_f64(),
        SimDuration::for_bytes(bg, NIC_RATE).as_secs_f64(),
    );
    let (l1, l2) = (rho / 2.0 / s1, rho / 2.0 / s2);
    let mut rng = SplitMix64::new(seed);
    let fg_at = poisson(&mut rng, N, l1);
    let bg_at = poisson(&mut rng, N / 2, l2);
    let stats = run_one(Box::new(FixedRate::rate(NIC_RATE)), |r| {
        let mut jobs: Vec<(SimTime, sim_core::Plan)> = fg_at
            .iter()
            .map(|&t| (t, use_res(r, Demand::NetXfer { bytes: fg })))
            .chain(
                bg_at.iter().map(|&t| (t, background(use_res(r, Demand::NetXfer { bytes: bg })))),
            )
            .collect();
        jobs.sort_by_key(|&(t, _)| t);
        jobs
    });
    let (rho1, rho2) = (l1 * s1, l2 * s2);
    let w0 = (l1 * s1 * s1 + l2 * s2 * s2) / 2.0;
    let w_fg = w0 / (1.0 - rho1);
    let w_bg = w0 / ((1.0 - rho1) * (1.0 - rho1 - rho2));
    (
        mean_s(stats.fg_queue_wait(), stats.fg_ops()) / w_fg - 1.0,
        mean_s(stats.bg_queue_wait, stats.bg_ops) / w_bg - 1.0,
    )
}

/// Fail unless every `(rho, error, tolerance)` row is within tolerance.
fn check(name: &str, rows: &[(f64, f64, f64)]) {
    for &(rho, err, tol) in rows {
        assert!(
            err.abs() <= tol,
            "{name} at rho {rho}: measured wait off theory by {:+.2}%, tolerance {:.0}%",
            100.0 * err,
            100.0 * tol
        );
    }
}

/// `(rho, tolerance)`. Relative error over seeds 1–20, mean / sd / max|e|:
/// ρ 0.3: −0.27% / 1.96% / 6.21%; ρ 0.5: +0.20% / 2.64% / 6.40%;
/// ρ 0.7: +0.75% / 4.35% / 8.66%.
const MD1_TOL: [(f64, f64); 3] = [(0.3, 0.07), (0.5, 0.09), (0.7, 0.14)];

#[test]
fn fixed_rate_nic_waits_as_md1() {
    let rows: Vec<_> = MD1_TOL.iter().map(|&(rho, tol)| (rho, md1_error(SEED, rho), tol)).collect();
    check("M/D/1 NIC", &rows);
}

/// `(rho, tolerance)`. Relative error over seeds 1–20, mean / sd / max|e|:
/// ρ 0.3: +0.95% / 1.92% / 5.36%; ρ 0.5: +0.59% / 1.97% / 5.40%;
/// ρ 0.7: +0.56% / 3.19% / 8.66%.
const MG1_TOL: [(f64, f64); 3] = [(0.3, 0.07), (0.5, 0.07), (0.7, 0.11)];

#[test]
fn disk_model_waits_as_mg1() {
    let rows: Vec<_> = MG1_TOL.iter().map(|&(rho, tol)| (rho, mg1_error(SEED, rho), tol)).collect();
    check("M/G/1 disk", &rows);
}

/// `(rho, foreground tolerance, background tolerance)`, `rho` the total
/// load. Relative error over seeds 1–20, mean / sd / max|e|, foreground
/// then background: ρ 0.3: −0.94% / 1.72% / 2.86% and +0.90% / 2.26% /
/// 4.98%; ρ 0.5: −0.42% / 1.56% / 3.99% and +0.32% / 2.88% / 5.36%;
/// ρ 0.7: −0.27% / 1.39% / 3.58% and +0.21% / 4.53% / 12.09%.
const COBHAM_TOL: [(f64, f64, f64); 3] = [(0.3, 0.07, 0.08), (0.5, 0.06, 0.09), (0.7, 0.05, 0.14)];

#[test]
fn background_class_waits_as_cobham_priority_queue() {
    let (mut fg, mut bg) = (Vec::new(), Vec::new());
    for &(rho, tol_fg, tol_bg) in &COBHAM_TOL {
        let (e_fg, e_bg) = cobham_errors(SEED, rho);
        fg.push((rho, e_fg, tol_fg));
        bg.push((rho, e_bg, tol_bg));
    }
    check("Cobham foreground", &fg);
    check("Cobham background", &bg);
}
