//! The two single-engine workloads: `batch_heuristics` and
//! `stream_lsched`. Each pass is one `try_simulate` call over the same
//! generated workload with a freshly built scheduler.

use lsched_core::{
    LSchedConfig, LSchedModel, LSchedScheduler, PredictiveAdmission, PredictiveAdmissionConfig,
};
use lsched_engine::scheduler::Scheduler;
use lsched_engine::sim::{try_simulate, SimConfig, SimResult, WorkloadItem};
use lsched_sched::{
    Admission, AdmissionConfig, AdmissionStack, GuardStats, GuardedScheduler, QuickstepScheduler,
    ShedPolicy,
};
use lsched_workloads::tpch;

use crate::check;
use crate::layers::Layers;
use crate::report::Report;
use crate::timing::{drift, fastest_sum, run_paired, run_rounds, timed, Timed};
use crate::{gen, Args, Setup};

/// Untimed rounds before timing starts.
pub const WARMUP: usize = 2;
/// Fewest timed rounds in a run, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 5;

/// `batch_heuristics`: TPC-H plans at SF 2 and 10; `BATCH_SEGMENTS`
/// batches, each holding every plan `BATCH_COPIES` times and arriving at
/// t = 0; the first `BATCH_TIMED` are timed.
const BATCH_SFS: [f64; 2] = [2.0, 10.0];
const BATCH_SEGMENTS: usize = 8;
const BATCH_TIMED: usize = 4;
const BATCH_COPIES: usize = 3;
const BATCH_THREADS: usize = 16;

/// `stream_lsched`: TPC-H plans at SF 0.3 and 1; `STREAM_SEGMENTS`
/// streams, each holding every plan of one half of the pool
/// `STREAM_COPIES` times and arriving at `STREAM_LOAD` times the
/// calibrated capacity; the first `STREAM_TIMED` are timed.
const STREAM_SFS: [f64; 2] = [0.3, 1.0];
const STREAM_SEGMENTS: usize = 128;
const STREAM_TIMED: usize = 8;
const STREAM_COPIES: usize = 1;
const STREAM_THREADS: usize = 8;
const STREAM_LOAD: f64 = 0.3;
/// Initialisation seed of the untrained model; fixed, so the workload
/// seed changes only the inputs.
const STREAM_MODEL_SEED: u64 = 7;

/// Prints `what` and `err` and ends the process without a result: a
/// simulator error is a fault of the program, not a slow pass.
pub fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

/// Queries per second a pool serves at `threads` simulated workers: every
/// plan once, in a batch, under guarded Quickstep.
pub fn capacity_qps(
    pool: &[std::sync::Arc<lsched_engine::plan::PhysicalPlan>],
    threads: usize,
) -> f64 {
    let items = gen::batch(pool.to_vec());
    let cfg = SimConfig {
        num_threads: threads,
        seed: 1,
        ..Default::default()
    };
    let res = or_die(
        try_simulate(cfg, &items, &mut GuardedScheduler::new(QuickstepScheduler)),
        "capacity calibration",
    );
    items.len() as f64 / res.makespan
}

/// One independently seeded simulation of a workload. A workload is a
/// few segments, so that each timed pass stays short while the latency
/// metrics pool enough queries to repeat across seeds.
pub struct Segment {
    pub items: Vec<WorkloadItem>,
    pub cfg: SimConfig,
}

/// Times `try_simulate` for one pass with a fresh scheduler.
fn sim_pass<S: Scheduler>(seg: &Segment, mut sched: S) -> (f64, (SimResult, S)) {
    let cfg = seg.cfg.clone();
    let (s, res) = timed(|| try_simulate(cfg, &seg.items, &mut sched));
    (s, (or_die(res, "simulation"), sched))
}

/// A traced pass: its seconds, its result and the decorated scheduler
/// holding the timings.
type TracedPass<P> = (f64, SimResult, Timed<GuardedScheduler<Timed<P>>>);

/// The fastest traced pass of each segment.
pub struct Traced<P: Scheduler> {
    /// Fastest traced round over fastest untraced round, minus one.
    pub overhead: f64,
    pub passes: Vec<TracedPass<P>>,
}

impl<P: Scheduler> Traced<P> {
    /// Engine and scheduler layers, summed over segments.
    pub fn layers(&self, gen_s: f64) -> Layers {
        let mut l = Layers {
            workloads_gen_s: gen_s,
            trace_overhead: self.overhead,
            ..Layers::default()
        };
        for (pass_s, res, sched) in &self.passes {
            let outer = &sched.report;
            l.engine_loop_s += pass_s - outer.busy();
            l.engine_events += res.events_processed as f64;
            l.engine_work_orders += res.total_work_orders as f64;
            l.sched.merge(outer);
            l.sched_decisions += res.sched_decisions as f64;
            l.sched_rejected += res.sched_rejected as f64;
            l.guard_overhead_s += outer.decide.busy - sched.inner.inner().report.decide.busy;
            l.fallback_decisions +=
                (res.fallback_decisions + sched.inner.stats().fallback_events) as f64;
        }
        l
    }
}

/// The untraced and, with `--trace 1`, traced rounds of a simulation
/// workload. The first `timed` segments are timed in rounds; the rest
/// run once, so the latency metrics pool more queries than one round
/// holds. Checks every segment, reports the end-to-end metrics (without
/// `--trace`), and returns the peak memory after the first round with
/// the traced passes.
fn run_sim<P: Scheduler, T>(
    args: &Args,
    rep: &mut Report,
    su: &mut Setup<T>,
    segs: &[Segment],
    timed: usize,
    guarded: impl Fn() -> GuardedScheduler<P>,
    traced: impl Fn() -> GuardedScheduler<Timed<P>>,
) -> (f64, Option<Traced<P>>) {
    let pass = |seg: &Segment| {
        let (s, (res, sched)) = sim_pass(seg, guarded());
        (s, (res, sched.stats()))
    };
    let (timed_segs, once) = segs.split_at(timed);
    let once: Vec<_> = once.iter().map(|seg| pass(seg).1).collect();
    let same =
        |a: &(SimResult, GuardStats), b: &(SimResult, GuardStats)| a.0.bit_eq(&b.0) && a.1 == b.1;
    let (plain, tr) = if args.trace {
        let (plain, tr) = run_paired(
            timed,
            WARMUP,
            MIN_ROUNDS,
            args.seconds,
            |k| pass(&timed_segs[k]),
            |k| {
                let (s, (res, sched)) = sim_pass(&timed_segs[k], Timed::new(traced()));
                (s, (s, res, sched))
            },
            same,
            |a, b| a.1.bit_eq(&b.1),
            || su.rebuild(),
        );
        (plain, Some(tr))
    } else {
        let plain = run_rounds(
            timed,
            WARMUP,
            MIN_ROUNDS,
            args.seconds,
            |k| pass(&timed_segs[k]),
            same,
            || su.rebuild(),
        );
        (plain, None)
    };
    rep.notes.push(drift("passes", &plain));
    let firsts: Vec<_> = plain.iter().map(|p| &p.first).chain(&once).collect();
    for (seg, (res, guard)) in segs.iter().zip(&firsts) {
        check::sim_run(&mut rep.checks, &seg.items, res, seg.cfg.faults.is_none());
        rep.checks.expect(
            res.fallback_decisions == 0 && guard.fallback_events == 0,
            "the guarded policy did not make every decision",
        );
        rep.attempted += seg.items.len() as u64;
        rep.failed += (res.aborted.len() + res.unfinished.len()) as u64;
    }
    for p in &plain {
        rep.checks
            .expect(p.identical, "passes of one run are not bit-identical");
    }
    let timed_queries: usize = timed_segs.iter().map(|s| s.items.len()).sum();
    let timed_failed: u64 = plain
        .iter()
        .map(|p| (p.first.0.aborted.len() + p.first.0.unfinished.len()) as u64)
        .sum();
    // The first round is already counted with the once-run segments;
    // a traced run repeats every round once more, traced.
    let rounds = (plain[0].log.len() + WARMUP) * if tr.is_some() { 2 } else { 1 } - 1;
    rep.attempted += (timed_queries * rounds) as u64;
    rep.failed += timed_failed * rounds as u64;
    let rss = plain[0].first_round_rss_mb;
    let Some(tr) = tr else {
        let lat = check::latency(firsts.iter().flat_map(|f| &f.0.outcomes));
        rep.metric(
            "queries_per_s",
            timed_queries as f64 / fastest_sum(&plain),
            "1/s",
        );
        rep.metric("query_latency_mean_s", lat.mean, "s");
        rep.metric("query_latency_p90_s", lat.p90, "s");
        return (rss, None);
    };
    rep.notes.push(drift("traced passes", &tr));
    for (t, p) in tr.iter().zip(&plain) {
        rep.checks.expect(
            t.identical && t.first.1.bit_eq(&p.first.0),
            "traced passes are not bit-identical to untraced ones",
        );
    }
    let overhead = fastest_sum(&tr) / fastest_sum(&plain) - 1.0;
    let passes = tr.into_iter().map(|p| p.fastest).collect();
    (rss, Some(Traced { overhead, passes }))
}

/// Runs a simulation workload and reports it: end-to-end metrics, or
/// the layers with `extra` adding the inner policy's own.
#[allow(clippy::too_many_arguments)]
fn run_workload<P: Scheduler, T>(
    mut rep: Report,
    args: &Args,
    mut su: Setup<T>,
    segs: &[Segment],
    timed: usize,
    guarded: impl Fn() -> GuardedScheduler<P>,
    traced: impl Fn() -> GuardedScheduler<Timed<P>>,
    extra: impl FnOnce(&mut Layers, &Traced<P>),
) -> Report {
    let (rss, traced) = run_sim(args, &mut rep, &mut su, segs, timed, guarded, traced);
    let layers = traced.map(|t| {
        let mut l = t.layers(su.best_gen);
        extra(&mut l, &t);
        l
    });
    finish(rep, args, su.best, rss, layers)
}

/// Reports `setup_s` and `peak_rss_mb` (end-to-end runs) or the layers
/// (traced runs) and hands the report back.
pub fn finish(
    mut rep: Report,
    args: &Args,
    setup_s: f64,
    rss_mb: f64,
    layers: Option<Layers>,
) -> Report {
    match layers {
        Some(l) if args.trace => l.emit(&mut rep),
        _ => {
            rep.metric("setup_s", setup_s, "s");
            rep.metric("peak_rss_mb", rss_mb, "MB");
        }
    }
    rep
}

pub fn batch_heuristics(args: &Args) -> Report {
    let mut rep = Report::default();
    let (su, segs) = Setup::new(|| {
        timed(|| {
            let pool = tpch::plan_pool(&BATCH_SFS);
            let mut rng = gen::rng(args.seed, 1);
            gen::segments(&pool, BATCH_COPIES, BATCH_SEGMENTS, &mut rng)
                .into_iter()
                .zip(0u64..)
                .map(|(plans, k)| Segment {
                    items: gen::batch(plans),
                    cfg: SimConfig {
                        num_threads: BATCH_THREADS,
                        seed: gen::mix(args.seed, 100 + k),
                        ..Default::default()
                    },
                })
                .collect::<Vec<_>>()
        })
    });
    rep.notes.push(format!(
        "batch_heuristics: {BATCH_SEGMENTS} batches ({BATCH_TIMED} timed) of {} queries at t=0, \
         {BATCH_THREADS} threads",
        segs[0].items.len()
    ));
    run_workload(
        rep,
        args,
        su,
        &segs,
        BATCH_TIMED,
        || GuardedScheduler::new(QuickstepScheduler),
        || GuardedScheduler::new(Timed::new(QuickstepScheduler)),
        |_, _| {},
    )
}

/// The stream's model: the default encoder and predictor, with the
/// parallelism head sized to the pool.
fn stream_model() -> LSchedModel {
    let mut cfg = LSchedConfig::default();
    cfg.predictor.max_threads = STREAM_THREADS;
    LSchedModel::new(cfg, STREAM_MODEL_SEED)
}

/// Guarded LSched behind the predictive admission gate. The gate defers
/// and never displaces a waiting query (`consider_top_k = 0`); its
/// hysteresis fallback defers too. With displacement on, the gate sheds
/// about one query in ten at this load, which would count as failed.
fn stream_guard<P: Scheduler>(inner: P) -> GuardedScheduler<P> {
    let hysteresis = Admission::new(AdmissionConfig {
        policy: ShedPolicy::Defer,
        ..Default::default()
    });
    let gate = PredictiveAdmission::new(PredictiveAdmissionConfig {
        policy: ShedPolicy::Defer,
        consider_top_k: 0,
        ..Default::default()
    });
    GuardedScheduler::new(inner).with_admission_stack(AdmissionStack::with_primary(
        Box::new(gate),
        hysteresis,
        8,
    ))
}

pub fn stream_lsched(args: &Args) -> Report {
    let mut rep = Report::default();
    let (su, (segs, qps, params)) = Setup::new(|| {
        let (pool_s, pool) = timed(|| tpch::plan_pool(&STREAM_SFS));
        let qps = capacity_qps(&pool, STREAM_THREADS);
        let params = stream_model().store.num_scalars();
        let (stream_s, segs) = timed(|| {
            let mut rng = gen::rng(args.seed, 1);
            // Two fixed halves of the pool (alternate plans, so each mixes
            // both scale factors); segment k streams half k % 2. Passes stay
            // short while every timed round holds the same work.
            let halves: [Vec<_>; 2] =
                [0, 1].map(|h| pool.iter().skip(h).step_by(2).cloned().collect());
            (0..STREAM_SEGMENTS)
                .map(|k| gen::plans(&halves[k % 2], STREAM_COPIES, &mut rng))
                .collect::<Vec<_>>()
                .into_iter()
                .zip(0u64..)
                .map(|(plans, k)| Segment {
                    items: gen::stream(plans, STREAM_LOAD * qps, &mut rng),
                    cfg: SimConfig {
                        num_threads: STREAM_THREADS,
                        seed: gen::mix(args.seed, 100 + k),
                        ..Default::default()
                    },
                })
                .collect::<Vec<_>>()
        });
        (pool_s + stream_s, (segs, qps, params))
    });
    rep.notes.push(format!(
        "stream_lsched: {STREAM_SEGMENTS} streams ({STREAM_TIMED} timed) of {} queries at {:.3} q/s \
         ({STREAM_LOAD} x capacity {qps:.3} q/s), {STREAM_THREADS} threads, {params} model parameters",
        segs[0].items.len(),
        STREAM_LOAD * qps,
    ));
    run_workload(
        rep,
        args,
        su,
        &segs,
        STREAM_TIMED,
        || stream_guard(LSchedScheduler::greedy(stream_model())),
        || stream_guard(Timed::new(LSchedScheduler::greedy(stream_model()))),
        |l, t| {
            let (mut hits, mut misses) = (0, 0);
            for (_, _, sched) in &t.passes {
                let lsched = sched.inner.inner();
                let (h, m) = lsched.inner.cache_stats();
                hits += h;
                misses += m;
                l.core_decide.merge(&lsched.report);
            }
            l.cache_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        },
    )
}
