//! Host-time measurement: the fastest-pass rule, per-call latency
//! records, and the [`Timed`] decorator that times a policy through the
//! public [`Scheduler`] trait.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use lsched_engine::scheduler::{
    AdmissionResponse, PolicyHealth, QueryId, SchedContext, SchedDecision, SchedEvent, Scheduler,
};
use lsched_sched::{AdmissionStats, GuardStats};
use lsched_serve::{AdmissionReport, HealthReport};

use crate::report::peak_rss_mb;

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Host seconds of every timed pass of one segment, in the order they
/// ran.
#[derive(Debug, Default, Clone)]
pub struct PassLog {
    secs: Vec<f64>,
}

impl PassLog {
    pub fn len(&self) -> usize {
        self.secs.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.secs.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The figure every host-time metric is built from: a pass is short,
    /// so some passes fall in the host's fast phases, and the fastest of
    /// them repeats across processes far better than their median.
    pub fn fastest(&self) -> f64 {
        self.sorted()[0]
    }

    pub fn median(&self) -> f64 {
        let v = self.sorted();
        v[v.len() / 2]
    }

    pub fn slowest(&self) -> f64 {
        let v = self.sorted();
        v[v.len() - 1]
    }
}

/// What [`run_rounds`] measured for one segment: pass times, the output
/// of its first (untimed) pass, the output of its fastest timed pass,
/// and whether every output equalled the first.
pub struct Passes<R> {
    pub log: PassLog,
    pub first: R,
    pub fastest: R,
    pub identical: bool,
    /// Peak resident memory after the first round: what one run of the
    /// workload needs, before repeated passes fragment the heap.
    pub first_round_rss_mb: f64,
}

/// Sum over segments of their fastest passes.
pub fn fastest_sum<R>(segs: &[Passes<R>]) -> f64 {
    segs.iter().map(|p| p.log.fastest()).sum()
}

/// One line showing the host drift inside a run: fastest, median and
/// slowest pass of each segment, summed over segments.
pub fn drift<R>(what: &str, segs: &[Passes<R>]) -> String {
    let sum = |f: fn(&PassLog) -> f64| segs.iter().map(|p| f(&p.log)).sum::<f64>();
    format!(
        "{what}: {} rounds of {} segment(s), fastest {:.6} s, median {:.6} s, slowest {:.6} s",
        segs[0].log.len(),
        segs.len(),
        sum(PassLog::fastest),
        sum(PassLog::median),
        sum(PassLog::slowest)
    )
}

/// Runs `warmup` untimed rounds (at least one), then timed rounds until
/// `budget` seconds have gone by and at least `min` rounds ran. A round
/// runs one pass of every segment; `pass(k)` returns the host seconds
/// of its measured part together with its output, and `same` checks
/// each output against the segment's first one. `between` runs after
/// every timed round (see [`crate::Setup::rebuild`]).
pub fn run_rounds<R>(
    segments: usize,
    warmup: usize,
    min: usize,
    budget: f64,
    mut pass: impl FnMut(usize) -> (f64, R),
    same: impl Fn(&R, &R) -> bool,
    mut between: impl FnMut(),
) -> Vec<Passes<R>> {
    let firsts: Vec<R> = (0..segments).map(|k| pass(k).1).collect();
    let first_round_rss_mb = peak_rss_mb();
    let mut identical = vec![true; segments];
    for _ in 1..warmup {
        for (k, first) in firsts.iter().enumerate() {
            identical[k] &= same(first, &pass(k).1);
        }
    }
    let mut logs = vec![PassLog::default(); segments];
    let mut fastest: Vec<Option<(f64, R)>> = (0..segments).map(|_| None).collect();
    let t0 = Instant::now();
    while logs[0].len() < min.max(1) || t0.elapsed().as_secs_f64() < budget {
        for k in 0..segments {
            let (s, r) = pass(k);
            identical[k] &= same(&firsts[k], &r);
            logs[k].secs.push(s);
            if fastest[k].as_ref().is_none_or(|(best, _)| s < *best) {
                fastest[k] = Some((s, r));
            }
        }
        between();
    }
    firsts
        .into_iter()
        .zip(logs)
        .zip(fastest)
        .zip(identical)
        .map(|(((first, log), fastest), identical)| Passes {
            log,
            first,
            fastest: fastest.expect("at least one timed round ran").1,
            identical,
            first_round_rss_mb,
        })
        .collect()
}

/// Untraced and traced passes of the same segments, interleaved so both
/// sides see the same host phases: the traced pass of segment `k` runs
/// right after its untraced pass, in every round. Returns both sides.
#[allow(clippy::too_many_arguments)]
pub fn run_paired<A, B>(
    segments: usize,
    warmup: usize,
    min: usize,
    budget: f64,
    mut plain: impl FnMut(usize) -> (f64, A),
    mut traced: impl FnMut(usize) -> (f64, B),
    same_a: impl Fn(&A, &A) -> bool,
    same_b: impl Fn(&B, &B) -> bool,
    between: impl FnMut(),
) -> (Vec<Passes<A>>, Vec<Passes<B>>) {
    enum Side<A, B> {
        Plain(A),
        Traced(B),
    }
    let all = run_rounds(
        2 * segments,
        warmup,
        min,
        budget,
        |k| {
            if k % 2 == 0 {
                let (s, a) = plain(k / 2);
                (s, Side::Plain(a))
            } else {
                let (s, b) = traced(k / 2);
                (s, Side::Traced(b))
            }
        },
        |x, y| match (x, y) {
            (Side::Plain(a), Side::Plain(b)) => same_a(a, b),
            (Side::Traced(a), Side::Traced(b)) => same_b(a, b),
            _ => false,
        },
        between,
    );
    let (mut plains, mut traceds) = (Vec::new(), Vec::new());
    for p in all {
        let Passes {
            log,
            first,
            fastest,
            identical,
            first_round_rss_mb,
        } = p;
        match (first, fastest) {
            (Side::Plain(first), Side::Plain(fastest)) => plains.push(Passes {
                log,
                first,
                fastest,
                identical,
                first_round_rss_mb,
            }),
            (Side::Traced(first), Side::Traced(fastest)) => traceds.push(Passes {
                log,
                first,
                fastest,
                identical,
                first_round_rss_mb,
            }),
            _ => unreachable!("every pass of a segment runs the same side"),
        }
    }
    (plains, traceds)
}

/// Count, busy time and per-call latencies of one kind of call.
#[derive(Debug, Default, Clone)]
pub struct CallStats {
    pub calls: u64,
    pub busy: f64,
    lat_ns: Vec<u64>,
}

impl CallStats {
    fn record(&mut self, t0: Instant) {
        let d = t0.elapsed();
        self.calls += 1;
        self.busy += d.as_secs_f64();
        self.lat_ns.push(d.as_nanos() as u64);
    }

    pub fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.busy += other.busy;
        self.lat_ns.extend_from_slice(&other.lat_ns);
    }

    /// The `p`-quantile of per-call latency in microseconds (0 when no
    /// call was made).
    pub fn quantile_us(&self, p: f64) -> f64 {
        if self.lat_ns.is_empty() {
            return 0.0;
        }
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        v[((v.len() - 1) as f64 * p).round() as usize] as f64 / 1e3
    }
}

/// What a [`Timed`] decorator measured over its lifetime.
#[derive(Debug, Default, Clone)]
pub struct TimedReport {
    /// Decision calls: `on_event` and `on_tick`.
    pub decide: CallStats,
    /// Admission calls.
    pub admit: CallStats,
    /// Feedback calls (`on_decision_executed`, `on_query_finished`,
    /// `on_query_cancelled`), seconds.
    pub feedback_s: f64,
    /// Seconds from construction to drop: under the serving layer, the
    /// shard's simulation run.
    pub lifetime_s: f64,
}

impl TimedReport {
    /// Every second spent inside the policy.
    pub fn busy(&self) -> f64 {
        self.decide.busy + self.admit.busy + self.feedback_s
    }

    pub fn merge(&mut self, other: &TimedReport) {
        self.decide.merge(&other.decide);
        self.admit.merge(&other.admit);
        self.feedback_s += other.feedback_s;
        self.lifetime_s += other.lifetime_s;
    }
}

/// Where decorators built inside the serving layer leave their reports.
pub type Sink = Arc<Mutex<Vec<TimedReport>>>;

/// Times every call the engine makes into `inner`. Decisions pass
/// through untouched, so a traced run stays bit-identical to an
/// untraced one.
pub struct Timed<S> {
    pub inner: S,
    pub report: TimedReport,
    born: Instant,
    sink: Option<Sink>,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            report: TimedReport::default(),
            born: Instant::now(),
            sink: None,
        }
    }

    /// A decorator that hands its report to `sink` when dropped.
    pub fn reporting_to(inner: S, sink: Sink) -> Self {
        let mut t = Self::new(inner);
        t.sink = Some(sink);
        t
    }
}

impl<S> Drop for Timed<S> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            self.report.lifetime_s = self.born.elapsed().as_secs_f64();
            if let Ok(mut reports) = sink.lock() {
                reports.push(std::mem::take(&mut self.report));
            }
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, event: &SchedEvent) -> Vec<SchedDecision> {
        let t0 = Instant::now();
        let out = self.inner.on_event(ctx, event);
        self.report.decide.record(t0);
        out
    }

    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        let t0 = Instant::now();
        let out = self.inner.on_tick(ctx, events);
        self.report.decide.record(t0);
        out
    }

    fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        let t0 = Instant::now();
        let out = self.inner.admit(ctx, arriving, attempt);
        self.report.admit.record(t0);
        out
    }

    fn on_decision_executed(&mut self, ctx: &SchedContext<'_>, decision: &SchedDecision) {
        let (s, ()) = timed(|| self.inner.on_decision_executed(ctx, decision));
        self.report.feedback_s += s;
    }

    fn on_query_finished(&mut self, time: f64, query: QueryId) {
        let (s, ()) = timed(|| self.inner.on_query_finished(time, query));
        self.report.feedback_s += s;
    }

    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        let (s, ()) = timed(|| self.inner.on_query_cancelled(time, query));
        self.report.feedback_s += s;
    }

    fn health(&self) -> PolicyHealth {
        self.inner.health()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

impl<S: AdmissionReport> AdmissionReport for Timed<S> {
    fn admission_report(&self) -> Option<AdmissionStats> {
        self.inner.admission_report()
    }
}

impl<S: HealthReport> HealthReport for Timed<S> {
    fn guard_report(&self) -> Option<GuardStats> {
        self.inner.guard_report()
    }

    fn ended_degraded(&self) -> bool {
        self.inner.ended_degraded()
    }
}
