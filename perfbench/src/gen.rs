//! Input generation from the workload seed. The program receives only
//! what these functions build.
//!
//! Workloads are stratified so that a seed changes which query arrives
//! when, but not how much work a run holds: every plan of the pool
//! appears equally often, and inter-arrival gaps are a Latin-hypercube
//! sample of the exponential distribution. Per-seed spread of the
//! simulated latencies then reflects scheduling, not a lucky draw of
//! cheap queries.

use std::sync::Arc;

use lsched_engine::plan::PhysicalPlan;
use lsched_engine::sim::WorkloadItem;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// An independent RNG stream of the workload seed (splitmix64 of the
/// seed and the stream's tag).
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream))
}

/// An independent `u64` of the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `segments` lists, each holding every plan of `pool` `copies` times in
/// seeded random order: every segment holds the same work.
pub fn segments(
    pool: &[Arc<PhysicalPlan>],
    copies: usize,
    segments: usize,
    rng: &mut StdRng,
) -> Vec<Vec<Arc<PhysicalPlan>>> {
    (0..segments).map(|_| plans(pool, copies, rng)).collect()
}

/// Every plan of `pool` `copies` times, in seeded random order.
pub fn plans(
    pool: &[Arc<PhysicalPlan>],
    copies: usize,
    rng: &mut StdRng,
) -> Vec<Arc<PhysicalPlan>> {
    let mut out: Vec<Arc<PhysicalPlan>> = (0..copies).flat_map(|_| pool.iter().cloned()).collect();
    out.shuffle(rng);
    out
}

/// All plans at time 0.
pub fn batch(plans: Vec<Arc<PhysicalPlan>>) -> Vec<WorkloadItem> {
    plans
        .into_iter()
        .map(|p| WorkloadItem::new(0.0, p))
        .collect()
}

/// An open-loop stream at `lambda` queries per second: gap `i` is the
/// exponential quantile of `(π(i) + u_i) / n` for a random permutation
/// `π` and uniform jitter `u_i`.
pub fn stream(plans: Vec<Arc<PhysicalPlan>>, lambda: f64, rng: &mut StdRng) -> Vec<WorkloadItem> {
    let n = plans.len();
    let mut strata: Vec<usize> = (0..n).collect();
    strata.shuffle(rng);
    let mut t = 0.0;
    plans
        .into_iter()
        .zip(strata)
        .map(|(plan, k)| {
            let u = (k as f64 + rng.gen_range(0.0..1.0)) / n as f64;
            t += -(1.0 - u).max(1e-12).ln() / lambda;
            WorkloadItem::new(t, plan)
        })
        .collect()
}
