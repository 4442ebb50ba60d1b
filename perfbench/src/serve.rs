//! `serve_failover`: a tenantized TPC-H stream served by
//! `serve_supervised` over two shards of guarded Quickstep, with one
//! shard crashing and restarting mid-run while the engine injects worker
//! loss, transient work-order failures and stragglers.

use std::sync::{Arc, Mutex};

use lsched_engine::fault::FaultPlan;
use lsched_engine::sim::{QueryOutcome, SimConfig, WorkloadItem};
use lsched_sched::{GuardedScheduler, QuickstepScheduler};
use lsched_serve::{
    route_workload, serve_supervised, tenantize, ServeConfig, ServeResult, ShardFault,
    ShardFaultPlan, SloClass, SupervisorConfig, TenantQuery,
};
use lsched_workloads::tpch;

use crate::check;
use crate::layers::Layers;
use crate::report::Report;
use crate::sim::{capacity_qps, finish, or_die, MIN_ROUNDS, WARMUP};
use crate::timing::{drift, fastest_sum, run_paired, run_rounds, timed, Sink, Timed, TimedReport};
use crate::{gen, Args, Setup};

const SFS: [f64; 2] = [0.5, 2.0];
const SHARDS: usize = 2;
const THREADS: usize = 8;
const TENANTS: u64 = 6;
/// `SEGMENTS` independently served streams, each holding every plan
/// `COPIES` times; the first `TIMED` are timed.
const COPIES: usize = 8;
const SEGMENTS: usize = 128;
const TIMED: usize = 4;
/// Offered load as a share of one shard's calibrated capacity, so the
/// survivor can absorb the crashed shard's work.
const LOAD: f64 = 0.4;

/// One served stream with its fault plans.
struct Stream {
    items: Vec<WorkloadItem>,
    queries: Vec<TenantQuery>,
    cfg: ServeConfig,
    shard_faults: ShardFaultPlan,
}

fn classes() -> [SloClass; 3] {
    [
        SloClass::best_effort(),
        SloClass::silver(),
        SloClass::gold(),
    ]
}

/// Shard 0 crashes at 80% of the arrival horizon and restarts 2% of it
/// later; every shard loses a worker twice (each rejoins), 1% of
/// work-order attempts fail transiently and 2% straggle. No
/// cancellations.
fn stream(items: Vec<WorkloadItem>, seed: u64) -> Stream {
    let horizon = items.last().map_or(1.0, |w| w.arrival_time);
    let faults = FaultPlan {
        seed,
        worker_loss: vec![(0.2 * horizon, 1), (0.5 * horizon, 1)],
        worker_rejoin: vec![(0.35 * horizon, 1), (0.7 * horizon, 1)],
        wo_failure_prob: 0.01,
        max_retries: 10,
        straggler_prob: 0.02,
        ..FaultPlan::default()
    };
    let sim = SimConfig {
        num_threads: THREADS,
        seed,
        faults: Some(faults),
        ..Default::default()
    };
    let queries = tenantize(&items, TENANTS, &classes());
    let items = queries
        .iter()
        .map(|q| q.class.apply(q.item.clone()))
        .collect();
    Stream {
        items,
        queries,
        cfg: ServeConfig::new(SHARDS, sim),
        shard_faults: ShardFaultPlan {
            faults: vec![(
                0,
                ShardFault::CrashRestart {
                    at: 0.8 * horizon,
                    restart_delay: 0.02 * horizon,
                },
            )],
        },
    }
}

fn serve(s: &Stream, sink: Option<&Sink>) -> (f64, ServeResult) {
    let sup = SupervisorConfig::default();
    let (secs, res) = match sink {
        None => timed(|| {
            serve_supervised(&s.cfg, &s.queries, &s.shard_faults, &sup, |_| {
                GuardedScheduler::new(QuickstepScheduler)
            })
        }),
        Some(sink) => timed(|| {
            serve_supervised(&s.cfg, &s.queries, &s.shard_faults, &sup, |_| {
                Timed::reporting_to(GuardedScheduler::new(QuickstepScheduler), Arc::clone(sink))
            })
        }),
    };
    (secs, or_die(res, "serving"))
}

/// Bit-identity of two served runs: every shard run (replays included),
/// the failover accounting and the merged latency samples.
fn same(a: &ServeResult, b: &ServeResult) -> bool {
    a.shards.len() == b.shards.len()
        && a.shards.iter().zip(&b.shards).all(|(x, y)| {
            x.shard == y.shard
                && x.epoch == y.epoch
                && x.assigned == y.assigned
                && x.result.bit_eq(&y.result)
        })
        && a.failover == b.failover
        && a.abandoned == b.abandoned
        && a.latency.samples().iter().map(|v| v.to_bits()).eq(b
            .latency
            .samples()
            .iter()
            .map(|v| v.to_bits()))
}

/// Exactly one fate per query across survivors and replays, none
/// aborted or abandoned; the merged percentiles equal those of the
/// pooled per-shard outcomes.
fn check_served(rep: &mut Report, s: &Stream, res: &ServeResult) -> Vec<QueryOutcome> {
    let pooled: Vec<&QueryOutcome> = res.shards.iter().flat_map(|r| &r.result.outcomes).collect();
    let aborted = res.aborted as usize + res.abandoned.len() + res.failover.abandoned as usize;
    check::fates(&mut rep.checks, &s.items, &pooled, aborted);
    let planned = check::planned_work_orders(&s.items);
    let executed: u64 = res.shards.iter().map(|r| r.result.total_work_orders).sum();
    rep.checks.expect(
        executed >= planned,
        format!("executed {executed} work orders, fewer than the {planned} planned"),
    );
    rep.checks.expect(
        res.failover.crashes >= 1 && res.failover.restarts >= 1,
        "the shard crash did not happen",
    );
    let lat = check::latency(pooled.iter().copied());
    rep.checks.expect(
        res.latency.quantile(0.9).to_bits() == lat.p90.to_bits()
            && (res.latency.mean() - lat.mean).abs() <= 1e-9 * lat.mean.abs(),
        "merged latency percentiles differ from those of the pooled shard outcomes",
    );
    pooled.into_iter().cloned().collect()
}

pub fn serve_failover(args: &Args) -> Report {
    let mut rep = Report::default();
    let (mut su, (streams, qps)) = Setup::new(|| {
        let (pool_s, pool) = timed(|| tpch::plan_pool(&SFS));
        let qps = capacity_qps(&pool, THREADS);
        let mut rng = gen::rng(args.seed, 1);
        let (gen_s, streams) = timed(|| {
            gen::segments(&pool, COPIES, SEGMENTS, &mut rng)
                .into_iter()
                .zip(0u64..)
                .map(|(plans, k)| {
                    stream(
                        gen::stream(plans, LOAD * qps, &mut rng),
                        gen::mix(args.seed, 100 + k),
                    )
                })
                .collect::<Vec<_>>()
        });
        (pool_s + gen_s, (streams, qps))
    });
    rep.notes.push(format!(
        "serve_failover: {SEGMENTS} streams ({TIMED} timed) of {} queries at {:.3} q/s ({LOAD} x one shard's capacity \
         {qps:.3} q/s), {SHARDS} shards x {THREADS} threads, {TENANTS} tenants",
        streams[0].items.len(),
        LOAD * qps
    ));
    let (timed_streams, once) = streams.split_at(TIMED);
    let once: Vec<ServeResult> = once.iter().map(|s| serve(s, None).1).collect();
    // Traced passes: each pass's shard schedulers report into a sink of
    // their own, and the routing step is timed by routing again.
    let traced_pass = |k: usize| {
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let s = &timed_streams[k];
        let (secs, res) = serve(s, Some(&sink));
        let (route_s, _) = timed(|| route_workload(&s.cfg.router, &s.queries));
        let reports =
            std::mem::take(&mut *sink.lock().expect("no shard panicked holding the sink"));
        (secs, (res, reports, route_s))
    };
    let plain_pass = |k: usize| serve(&timed_streams[k], None);
    let (plain, tr) = if args.trace {
        let (plain, tr) = run_paired(
            TIMED,
            WARMUP,
            MIN_ROUNDS,
            args.seconds,
            plain_pass,
            traced_pass,
            same,
            |a, b| same(&a.0, &b.0),
            || su.rebuild(),
        );
        (plain, Some(tr))
    } else {
        (
            run_rounds(
                TIMED,
                WARMUP,
                MIN_ROUNDS,
                args.seconds,
                plain_pass,
                same,
                || su.rebuild(),
            ),
            None,
        )
    };
    rep.notes.push(drift("passes", &plain));
    let firsts: Vec<&ServeResult> = plain.iter().map(|p| &p.first).chain(&once).collect();
    let mut outcomes = Vec::new();
    for (s, res) in streams.iter().zip(&firsts) {
        outcomes.extend(check_served(&mut rep, s, res));
        rep.attempted += s.items.len() as u64;
        rep.failed += res.aborted + res.abandoned.len() as u64;
    }
    for p in &plain {
        rep.checks
            .expect(p.identical, "served passes are not bit-identical");
    }
    let queries: usize = timed_streams.iter().map(|s| s.items.len()).sum();
    let failed: u64 = plain
        .iter()
        .map(|p| p.first.aborted + p.first.abandoned.len() as u64)
        .sum();
    // The first round is already counted with the once-served streams;
    // a traced run repeats every round once more, traced.
    let rounds = (plain[0].log.len() + WARMUP) * if tr.is_some() { 2 } else { 1 } - 1;
    rep.attempted += (queries * rounds) as u64;
    rep.failed += failed * rounds as u64;
    let rss = plain[0].first_round_rss_mb;
    let Some(tr) = tr else {
        let lat = check::latency(&outcomes);
        rep.metric("queries_per_s", queries as f64 / fastest_sum(&plain), "1/s");
        rep.metric("query_latency_mean_s", lat.mean, "s");
        rep.metric("query_latency_p90_s", lat.p90, "s");
        return finish(rep, args, su.best, rss, None);
    };
    rep.notes.push(drift("traced passes", &tr));
    let mut l = Layers {
        workloads_gen_s: su.best_gen,
        ..Layers::default()
    };
    l.trace_overhead = fastest_sum(&tr) / fastest_sum(&plain) - 1.0;
    let mut per_shard = [0u64; SHARDS];
    for (t, p) in tr.iter().zip(&plain) {
        rep.checks.expect(
            t.identical && same(&t.first.0, &p.first),
            "traced passes are not bit-identical to untraced ones",
        );
        let (res, reports, route_s) = &t.fastest;
        let mut merged = TimedReport::default();
        for r in reports {
            merged.merge(r);
        }
        l.engine_loop_s += merged.lifetime_s - merged.busy();
        l.sched.merge(&merged);
        l.route_s += route_s;
        l.migrations += res.router.migrations as f64;
        l.rerouted += res.failover.rerouted as f64;
        l.recovered += res.failover.recovered as f64;
        l.failover_epochs += f64::from(res.failover.failover_epochs);
        l.recovery_latency_max_s = l
            .recovery_latency_max_s
            .max(res.failover.recovery_latency_max);
        l.fallback_decisions += res.guard.fallback_events as f64;
        for run in &res.shards {
            l.engine_events += run.result.events_processed as f64;
            l.engine_work_orders += run.result.total_work_orders as f64;
            l.sched_decisions += run.result.sched_decisions as f64;
            l.sched_rejected += run.result.sched_rejected as f64;
            l.fallback_decisions += run.result.fallback_decisions as f64;
            per_shard[run.shard] += run.result.events_processed;
        }
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
    l.shard_events_max_over_mean = *per_shard.iter().max().expect("shards") as f64 / mean;
    l.serve_policy_busy_s = l.sched.busy();
    finish(rep, args, su.best, rss, Some(l))
}
