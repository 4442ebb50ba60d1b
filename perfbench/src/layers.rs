//! The per-layer metrics of a traced run. Every workload reports the
//! full set; a layer the workload does not run reads 0.

use crate::report::Report;
use crate::timing::TimedReport;

#[derive(Debug, Default)]
pub struct Layers {
    pub workloads_gen_s: f64,
    pub engine_loop_s: f64,
    pub engine_events: f64,
    pub engine_work_orders: f64,
    pub sched: TimedReport,
    pub sched_decisions: f64,
    pub sched_rejected: f64,
    pub guard_overhead_s: f64,
    pub fallback_decisions: f64,
    pub core_decide: TimedReport,
    pub cache_hit_ratio: f64,
    pub rollout_s: f64,
    pub rollout_decisions: f64,
    pub gradient_s: f64,
    pub replayed_decisions: f64,
    pub adam_step_s: f64,
    pub episodes_per_s: f64,
    pub ckpt_encode_s: f64,
    pub ckpt_write_s: f64,
    pub ckpt_bytes: f64,
    pub ckpt_read_s: f64,
    pub ckpt_parse_s: f64,
    pub params_load_s: f64,
    pub resume_s: f64,
    pub route_s: f64,
    pub serve_policy_busy_s: f64,
    pub migrations: f64,
    pub rerouted: f64,
    pub recovered: f64,
    pub failover_epochs: f64,
    pub recovery_latency_max_s: f64,
    pub shard_events_max_over_mean: f64,
    /// Fastest traced pass over fastest untraced pass, minus one.
    pub trace_overhead: f64,
}

impl Layers {
    pub fn emit(&self, rep: &mut Report) {
        let ns_per_event = if self.engine_events > 0.0 {
            self.engine_loop_s / self.engine_events * 1e9
        } else {
            0.0
        };
        let attempts = self.sched_decisions + self.sched_rejected;
        let accepted = if attempts > 0.0 {
            self.sched_decisions / attempts
        } else {
            0.0
        };
        let d = &self.sched.decide;
        let c = &self.core_decide.decide;
        let metrics: [(&'static str, f64, &'static str); 45] = [
            ("workloads.gen_s", self.workloads_gen_s, "s"),
            ("engine.loop_s", self.engine_loop_s, "s"),
            ("engine.events", self.engine_events, "count"),
            ("engine.work_orders", self.engine_work_orders, "count"),
            ("engine.ns_per_event", ns_per_event, "ns"),
            ("engine.policy_share", self.policy_share(), "ratio"),
            ("sched.calls", d.calls as f64, "count"),
            ("sched.busy_s", self.sched.busy(), "s"),
            ("sched.feedback_s", self.sched.feedback_s, "s"),
            ("sched.call_p50_us", d.quantile_us(0.5), "us"),
            ("sched.call_p99_us", d.quantile_us(0.99), "us"),
            ("sched.decisions", self.sched_decisions, "count"),
            ("sched.rejected", self.sched_rejected, "count"),
            ("sched.accepted_ratio", accepted, "ratio"),
            ("sched.guard_overhead_s", self.guard_overhead_s, "s"),
            ("sched.admit_calls", self.sched.admit.calls as f64, "count"),
            ("sched.admit_busy_s", self.sched.admit.busy, "s"),
            ("sched.fallback_decisions", self.fallback_decisions, "count"),
            ("core.decide_calls", c.calls as f64, "count"),
            ("core.decide_busy_s", c.busy, "s"),
            ("core.decide_p50_us", c.quantile_us(0.5), "us"),
            ("core.decide_p99_us", c.quantile_us(0.99), "us"),
            (
                "core.snapshot_cache_hit_ratio",
                self.cache_hit_ratio,
                "ratio",
            ),
            ("core.rollout_s", self.rollout_s, "s"),
            ("core.rollout_decisions", self.rollout_decisions, "count"),
            ("core.gradient_s", self.gradient_s, "s"),
            ("core.replayed_decisions", self.replayed_decisions, "count"),
            ("core.episodes_per_s", self.episodes_per_s, "1/s"),
            ("nn.adam_step_s", self.adam_step_s, "s"),
            ("nn.ckpt_encode_s", self.ckpt_encode_s, "s"),
            ("nn.ckpt_write_s", self.ckpt_write_s, "s"),
            ("nn.ckpt_bytes", self.ckpt_bytes, "B"),
            ("nn.ckpt_read_s", self.ckpt_read_s, "s"),
            ("nn.ckpt_parse_s", self.ckpt_parse_s, "s"),
            ("nn.params_load_s", self.params_load_s, "s"),
            ("nn.resume_s", self.resume_s, "s"),
            ("serve.route_s", self.route_s, "s"),
            ("serve.policy_busy_s", self.serve_policy_busy_s, "s"),
            ("serve.migrations", self.migrations, "count"),
            ("serve.rerouted", self.rerouted, "count"),
            ("serve.recovered", self.recovered, "count"),
            ("serve.failover_epochs", self.failover_epochs, "count"),
            (
                "serve.recovery_latency_max_s",
                self.recovery_latency_max_s,
                "s",
            ),
            (
                "serve.shard_events_max_over_mean",
                self.shard_events_max_over_mean,
                "ratio",
            ),
            ("trace.overhead", self.trace_overhead, "ratio"),
        ];
        for (name, value, unit) in metrics {
            rep.metric(name, value, unit);
        }
    }

    /// Share of simulation time spent inside the policy.
    fn policy_share(&self) -> f64 {
        let total = self.engine_loop_s + self.sched.busy();
        if total > 0.0 {
            self.sched.busy() / total
        } else {
            0.0
        }
    }
}
