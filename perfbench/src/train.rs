//! `train_resume`: REINFORCE training of a small LSched model with a
//! checkpoint after every episode, a resume from the newest checkpoint,
//! and a greedy evaluation of the trained model on a held-out stream.
//!
//! A timed pass is one whole training run through
//! `train_with_checkpoints` followed by the resume (the same call again,
//! which finds every episode done and only restores state). The traced
//! run drives the public pieces that `train_with_checkpoints` calls, in
//! the same order, and must land on the same bits.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lsched_core::train::{rollout_seed, time_aligned_baseline};
use lsched_core::{
    accumulate_rollout_gradients_with, rollout_returns, train_with_checkpoints, CheckpointPolicy,
    ExperienceManager, GradScratch, LSchedConfig, LSchedModel, LSchedScheduler, TrainCheckpoint,
    TrainConfig,
};
use lsched_engine::sim::{try_simulate, SimConfig, SimResult};
use lsched_nn::{Adam, AdamState, CheckpointManager, ParamStore};
use lsched_sched::GuardedScheduler;
use lsched_workloads::{split_train_test, tpch, EpisodeSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check;
use crate::layers::Layers;
use crate::report::{Checks, Report};
use crate::sim::{capacity_qps, finish, or_die, Segment, MIN_ROUNDS, WARMUP};
use crate::timing::{drift, fastest_sum, run_paired, run_rounds, timed};
use crate::{gen, Args, Setup};

const SFS: [f64; 2] = [0.3, 1.0];
/// The train/test split of the plan pool and the training seed are part
/// of the workload's definition, so the trained model is the same for
/// every workload seed; the workload seed draws the held-out stream.
/// With seeded training, the model's quality varies more across seeds
/// than the stream does, and the evaluation's latencies with it.
const SPLIT_SEED: u64 = 0;
const TRAIN_SEED: u64 = 5;
const EPISODES: usize = 4;
const EPISODE_QUERIES: usize = 8;
const ROLLOUTS: usize = 2;
const THREADS: usize = 8;
const MODEL_SEED: u64 = 11;
/// Held-out evaluation: every test plan `EVAL_COPIES` times, streaming
/// at `EVAL_LOAD` times the test pool's calibrated capacity.
const EVAL_COPIES: usize = 96;
const EVAL_LOAD: f64 = 0.3;
/// Checkpoint generations kept on disk.
const KEEP: usize = 2;

/// A model small enough that today's resume stays under half a second:
/// the checkpoint holds the parameters as a JSON string inside JSON,
/// whose parse time grows with the square of its length (2.6 s at 6k
/// parameters).
fn model() -> LSchedModel {
    let mut cfg = LSchedConfig::default();
    cfg.encoder.hidden = 2;
    cfg.encoder.edge_hidden = 1;
    cfg.encoder.pqe_dim = 2;
    cfg.encoder.aqe_dim = 2;
    cfg.encoder.conv_layers = 1;
    cfg.predictor.hidden = 2;
    cfg.predictor.max_degree = 4;
    cfg.predictor.max_threads = THREADS;
    LSchedModel::new(cfg, MODEL_SEED)
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        episodes: EPISODES,
        sim: SimConfig {
            num_threads: THREADS,
            ..Default::default()
        },
        seed,
        rollouts_per_episode: ROLLOUTS,
        rollout_threads: 1,
        ..Default::default()
    }
}

/// Every field of an Adam state, as bits.
fn adam_bits(a: &AdamState) -> Vec<u64> {
    let moments =
        a.m.iter()
            .chain(&a.v)
            .flat_map(|t| t.iter().map(|v| u64::from(v.to_bits())));
    [
        a.t,
        a.lr.to_bits().into(),
        a.beta1.to_bits().into(),
        a.beta2.to_bits().into(),
        a.eps.to_bits().into(),
    ]
    .into_iter()
    .chain(moments)
    .collect()
}

/// Every parameter value, as bits.
fn param_bits(store: &ParamStore) -> Vec<u32> {
    store
        .iter_ids()
        .flat_map(|(id, _)| store.value(id).data().iter().map(|v| v.to_bits()))
        .collect()
}

struct Inputs {
    sampler: EpisodeSampler,
    eval: Segment,
    params: usize,
}

/// A fresh checkpoint directory inside the working directory.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".perfbench-work").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One pass through the production path. Segment 0 is a whole training
/// run with a checkpoint per episode; segment 1, which always follows it,
/// resumes from the checkpoints segment 0 left. Returns the trained or
/// the resumed parameters.
fn production_pass(seg: usize, inputs: &Inputs, tcfg: &TrainConfig, dir: &Path) -> (f64, Vec<u32>) {
    if seg == 0 {
        let _ = std::fs::remove_dir_all(dir);
    }
    let policy = CheckpointPolicy {
        manager: CheckpointManager::new(dir, KEEP),
        every: 1,
    };
    let fresh = model();
    let mut exp = ExperienceManager::new(64);
    let (s, out) =
        timed(|| train_with_checkpoints(fresh, &inputs.sampler, tcfg, &mut exp, &policy));
    let (m, _, start) = or_die(out, if seg == 0 { "training" } else { "resume" });
    let want = if seg == 0 { 0 } else { EPISODES };
    if start != want {
        eprintln!("error: training started at episode {start}, expected {want}");
        std::process::exit(1);
    }
    (s, param_bits(&m.store))
}

/// What a replica pass measured and produced: after training
/// (segment 0) or after the resume (segment 1), the parameters, Adam
/// state and RNG words as bits; segment 0 also keeps the newest
/// checkpoint's payload and the checks of every rollout.
#[derive(Default)]
struct Replica {
    layers: Layers,
    rollout_checks: Checks,
    params: Vec<u32>,
    adam: Vec<u64>,
    rng: Vec<u64>,
    payload: Vec<u8>,
}

/// The training loop of `train_with_checkpoints` (segment 0) and its
/// resume (segment 1), rebuilt from their public pieces with every piece
/// timed. Segment 1 resumes from the checkpoints segment 0 left.
fn replica_pass(seg: usize, inputs: &Inputs, tcfg: &TrainConfig, dir: &Path) -> (f64, Replica) {
    let manager = CheckpointManager::new(dir, KEEP);
    if seg == 1 {
        return replica_resume(&manager);
    }
    let _ = std::fs::remove_dir_all(dir);
    let mut m = model();
    let mut r = Replica::default();
    let l = &mut r.layers;
    let t0 = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(tcfg.seed);
    let mut opt = Adam::new(tcfg.lr);
    let mut scratch = GradScratch::new();
    for ep in 0..tcfg.episodes {
        let workload = inputs.sampler.sample(&mut rng);
        let shared = Arc::new(m);
        let mut rollouts = Vec::new();
        for k in 0..tcfg.rollouts_per_episode {
            let mut cfg = tcfg.sim.clone();
            cfg.seed = rollout_seed(tcfg.seed, ep, k);
            let mut sched =
                LSchedScheduler::sampling_shared(Arc::clone(&shared), cfg.seed ^ 0x5eed);
            let (s, res) = timed(|| try_simulate(cfg, &workload, &mut sched));
            let res = or_die(res, "rollout");
            check::sim_run(
                &mut r.rollout_checks,
                &workload,
                &res,
                tcfg.sim.faults.is_none(),
            );
            l.rollout_s += s;
            let steps = sched.into_steps();
            l.rollout_decisions += steps.len() as f64;
            l.replayed_decisions += steps.len().min(tcfg.decision_sample_cap) as f64;
            l.engine_events += res.events_processed as f64;
            l.engine_work_orders += res.total_work_orders as f64;
            let returns = rollout_returns(&tcfg.reward, &steps, res.makespan);
            rollouts.push((steps, returns));
        }
        m = Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!("rollouts release the model"));
        let (s, ()) = timed(|| {
            let curves: Vec<Vec<(f64, f64)>> = rollouts
                .iter()
                .map(|(steps, g)| {
                    steps
                        .iter()
                        .map(|s| s.time)
                        .zip(g.iter().copied())
                        .collect()
                })
                .collect();
            m.store.zero_grads();
            for (steps, returns) in &rollouts {
                let adv: Vec<f64> = steps
                    .iter()
                    .zip(returns)
                    .map(|(s, g)| g - time_aligned_baseline(&curves, s.time))
                    .collect();
                accumulate_rollout_gradients_with(
                    &mut m,
                    steps,
                    &adv,
                    tcfg,
                    &mut rng,
                    &mut scratch,
                );
            }
            m.store.clip_grad_norm(tcfg.max_grad_norm);
        });
        l.gradient_s += s;
        let (s, ()) = timed(|| opt.step(&mut m.store));
        l.adam_step_s += s;
        let (s, json) = timed(|| {
            let ckpt = TrainCheckpoint {
                episode: (ep + 1) as u64,
                params_json: m.params_json(),
                adam: opt.to_state(),
                rng_state: rng.state().to_vec(),
            };
            or_die(serde_json::to_string(&ckpt), "checkpoint encoding")
        });
        l.ckpt_encode_s += s;
        let (s, path) = timed(|| manager.save((ep + 1) as u64, json.as_bytes()));
        l.ckpt_write_s += s;
        l.ckpt_bytes = or_die(
            std::fs::metadata(or_die(path, "checkpoint save")),
            "checkpoint size",
        )
        .len() as f64;
        r.payload = json.into_bytes();
    }
    let train_s = t0.elapsed().as_secs_f64();
    l.episodes_per_s = tcfg.episodes as f64 / train_s;
    r.params = param_bits(&m.store);
    r.adam = adam_bits(&opt.to_state());
    r.rng = rng.state().to_vec();
    (train_s, r)
}

/// Resume into a fresh model, as `train_with_checkpoints` does: read and
/// check the newest generation, parse it, restore the parameters, the
/// Adam state and the RNG.
fn replica_resume(manager: &CheckpointManager) -> (f64, Replica) {
    let mut r = Replica::default();
    let l = &mut r.layers;
    let mut fresh = model();
    let t0 = std::time::Instant::now();
    let (s, loaded) = timed(|| manager.load_latest());
    l.ckpt_read_s = s;
    let (_, payload) = or_die(loaded, "checkpoint read");
    let (s, ckpt) = timed(|| {
        let text = or_die(String::from_utf8(payload), "checkpoint text");
        or_die(
            serde_json::from_str::<TrainCheckpoint>(&text),
            "checkpoint parse",
        )
    });
    l.ckpt_parse_s = s;
    let (s, loaded) = timed(|| fresh.load_params_json(&ckpt.params_json));
    l.params_load_s = s;
    or_die(loaded, "parameter load");
    let opt = Adam::from_state(ckpt.adam);
    let rng: Option<[u64; 4]> = ckpt.rng_state.as_slice().try_into().ok();
    let rng = rng.map(StdRng::from_state);
    l.resume_s = t0.elapsed().as_secs_f64();
    r.params = param_bits(&fresh.store);
    r.adam = adam_bits(&opt.to_state());
    r.rng = rng.map_or_else(Vec::new, |g| g.state().to_vec());
    (l.resume_s, r)
}

pub fn train_resume(args: &Args) -> Report {
    let mut rep = Report::default();
    let (mut su, inputs) = Setup::new(|| {
        let (pool_s, (train, test)) =
            timed(|| split_train_test(&tpch::plan_pool(&SFS), SPLIT_SEED));
        let qps = capacity_qps(&test, THREADS);
        let params = model().store.num_scalars();
        let mut rng = gen::rng(args.seed, 1);
        let (stream_s, items) = timed(|| {
            gen::stream(
                gen::plans(&test, EVAL_COPIES, &mut rng),
                EVAL_LOAD * qps,
                &mut rng,
            )
        });
        let sampler = EpisodeSampler {
            pool: train,
            size_range: (EPISODE_QUERIES, EPISODE_QUERIES),
            rate_range: (20.0, 40.0),
            batch_fraction: 0.5,
        };
        let eval = Segment {
            items,
            cfg: SimConfig {
                num_threads: THREADS,
                seed: gen::mix(args.seed, 2),
                ..Default::default()
            },
        };
        (
            pool_s + stream_s,
            Inputs {
                sampler,
                eval,
                params,
            },
        )
    });
    let tcfg = train_config(TRAIN_SEED);
    rep.notes.push(format!(
        "train_resume: {EPISODES} episodes x {ROLLOUTS} rollouts x {EPISODE_QUERIES} queries, \
         {THREADS} threads, {} model parameters; held-out stream of {} queries",
        inputs.params,
        inputs.eval.items.len()
    ));
    let prod_dir = scratch_dir("train");
    let replica_dir = scratch_dir("replica");
    let plain_pass = |k: usize| production_pass(k, &inputs, &tcfg, &prod_dir);
    let (plain, tr) = if args.trace {
        let (plain, tr) = run_paired(
            2,
            WARMUP,
            MIN_ROUNDS,
            args.seconds,
            plain_pass,
            |k| replica_pass(k, &inputs, &tcfg, &replica_dir),
            |a, b| a == b,
            |a, b| {
                a.params == b.params && a.adam == b.adam && a.rng == b.rng && a.payload == b.payload
            },
            || su.rebuild(),
        );
        (plain, Some(tr))
    } else {
        (
            run_rounds(
                2,
                WARMUP,
                MIN_ROUNDS,
                args.seconds,
                plain_pass,
                |a, b| a == b,
                || su.rebuild(),
            ),
            None,
        )
    };
    rep.notes.push(drift("passes (training, resume)", &plain));
    let rss = plain[0].first_round_rss_mb;
    let (trained, resumed) = (&plain[0].first, &plain[1].first);
    let initial = param_bits(&model().store);
    rep.checks.expect(
        plain.iter().all(|p| p.identical),
        "training passes are not bit-identical",
    );
    rep.checks.expect(
        resumed == trained,
        "resumed parameters differ from the trained ones",
    );
    rep.checks.expect(
        trained.iter().all(|b| f32::from_bits(*b).is_finite()),
        "trained parameters are not finite",
    );
    rep.checks.expect(
        trained != &initial,
        "training left every parameter at its initial value",
    );
    let newest = CheckpointManager::new(&prod_dir, KEEP)
        .load_latest()
        .map(|(_, p)| p)
        .ok();

    // The replica: traced rounds, or once as a check.
    let once;
    let (r_trained, r_resumed) = match &tr {
        Some(tr) => {
            rep.notes
                .push(drift("traced passes (training, resume)", tr));
            rep.checks.expect(
                tr.iter().all(|p| p.identical),
                "traced passes are not bit-identical",
            );
            (&tr[0].first, &tr[1].first)
        }
        None => {
            once = [0, 1].map(|k| replica_pass(k, &inputs, &tcfg, &replica_dir).1);
            (&once[0], &once[1])
        }
    };
    // The rebuilt loop's rollouts are checked like any simulated run;
    // `train_with_checkpoints` runs the same rollouts, since both land
    // on the same parameters and checkpoint bytes.
    for failure in r_trained.rollout_checks.failures() {
        rep.checks
            .expect(false, format!("training rollout: {failure}"));
    }
    rep.checks.expect(
        &r_trained.params == trained,
        "the rebuilt training loop diverged from train_with_checkpoints",
    );
    rep.checks.expect(
        newest.as_deref() == Some(r_trained.payload.as_slice()),
        "the newest checkpoint differs from the rebuilt loop's",
    );
    rep.checks.expect(
        r_resumed.params == r_trained.params
            && r_resumed.adam == r_trained.adam
            && r_resumed.rng == r_trained.rng,
        "values, Adam state or RNG words did not restore bit for bit",
    );

    // Greedy evaluation of the trained model, read back from the newest
    // checkpoint, on the held-out stream.
    let params = or_die(
        String::from_utf8(newest.unwrap_or_default())
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str::<TrainCheckpoint>(&t).map_err(|e| e.to_string())),
        "checkpoint",
    )
    .params_json;
    let eval = || -> SimResult {
        let mut m = model();
        or_die(m.load_params_json(&params), "parameter load");
        let mut sched = GuardedScheduler::new(LSchedScheduler::greedy(m));
        or_die(
            try_simulate(inputs.eval.cfg.clone(), &inputs.eval.items, &mut sched),
            "evaluation",
        )
    };
    let (a, b) = (eval(), eval());
    rep.checks
        .expect(a.bit_eq(&b), "the evaluation is not deterministic");
    check::sim_run(&mut rep.checks, &inputs.eval.items, &a, true);
    let lat = check::latency(&a.outcomes);

    let _ = std::fs::remove_dir_all(&prod_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
    let _ = std::fs::remove_dir(".perfbench-work");

    // Operations: the queries of every rollout, every resume, and the
    // evaluation's queries. A traced run repeats every round, traced;
    // otherwise the replica runs once.
    let rounds = plain[0].log.len() + WARMUP;
    let replica_rounds = if tr.is_some() { rounds } else { 1 };
    let per_round = (EPISODES * ROLLOUTS * EPISODE_QUERIES + 1) as u64;
    rep.attempted +=
        per_round * (rounds + replica_rounds) as u64 + 2 * inputs.eval.items.len() as u64;
    rep.failed += (a.aborted.len() + a.unfinished.len()) as u64 * 2;
    if let Some(mut tr) = tr {
        // The training segment measured the training layers, the resume
        // segment the resume layers.
        let overhead = fastest_sum(&tr) / fastest_sum(&plain) - 1.0;
        let resume = std::mem::take(&mut tr[1].fastest.layers);
        let l = Layers {
            workloads_gen_s: su.best_gen,
            ckpt_read_s: resume.ckpt_read_s,
            ckpt_parse_s: resume.ckpt_parse_s,
            params_load_s: resume.params_load_s,
            resume_s: resume.resume_s,
            trace_overhead: overhead,
            ..std::mem::take(&mut tr[0].fastest.layers)
        };
        return finish(rep, args, su.best, rss, Some(l));
    }
    let queries = (EPISODES * ROLLOUTS * EPISODE_QUERIES) as f64;
    rep.metric("queries_per_s", queries / fastest_sum(&plain), "1/s");
    rep.metric("query_latency_mean_s", lat.mean, "s");
    rep.metric("query_latency_p90_s", lat.p90, "s");
    finish(rep, args, su.best, rss, None)
}
