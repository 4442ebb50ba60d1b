//! Correctness checks computed apart from the program: query fates,
//! latencies and work-order counts are recomputed from the generated
//! inputs and the raw per-query outcomes.

use lsched_engine::sim::{QueryOutcome, SimResult, WorkloadItem};

use crate::report::Checks;

/// Mean and p90 of query latency, recomputed from raw outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub mean: f64,
    pub p90: f64,
}

/// Mean and nearest-rank p90 (rank `round((n - 1) * 0.9)` of the sorted
/// latencies). The latencies are `finish - arrival`, not the program's
/// own `duration` field.
pub fn latency<'a>(outcomes: impl IntoIterator<Item = &'a QueryOutcome>) -> Latency {
    let mut d: Vec<f64> = outcomes.into_iter().map(|o| o.finish - o.arrival).collect();
    if d.is_empty() {
        return Latency {
            mean: f64::NAN,
            p90: f64::NAN,
        };
    }
    let mean = d.iter().sum::<f64>() / d.len() as f64;
    d.sort_by(f64::total_cmp);
    let p90 = d[((d.len() - 1) as f64 * 0.9).round() as usize];
    Latency { mean, p90 }
}

/// Work orders the plans of `items` hold, read from the plan DAGs.
pub fn planned_work_orders(items: &[WorkloadItem]) -> u64 {
    items
        .iter()
        .flat_map(|w| w.plan.ops.iter())
        .map(|op| u64::from(op.num_work_orders))
        .sum()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12)
}

/// Every generated query has exactly one completed outcome and none
/// aborted: the multiset of `(plan, submission time)` over `outcomes`
/// equals the workload's. Each outcome satisfies `finish >= arrival` and
/// `duration == finish - arrival`.
pub fn fates(
    checks: &mut Checks,
    items: &[WorkloadItem],
    outcomes: &[&QueryOutcome],
    aborted: usize,
) {
    checks.expect(
        aborted == 0,
        format!("{aborted} queries aborted, shed or abandoned"),
    );
    let mut want: Vec<(&str, u64)> = items
        .iter()
        .map(|w| (w.plan.name.as_str(), w.submit_anchor().to_bits()))
        .collect();
    let mut got: Vec<(&str, u64)> = outcomes
        .iter()
        .map(|o| (o.name.as_str(), o.arrival.to_bits()))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    checks.expect(
        want == got,
        format!(
            "{} outcomes do not match the {} generated queries one to one",
            got.len(),
            want.len()
        ),
    );
    let bad = outcomes
        .iter()
        .filter(|o| {
            !(o.finish >= o.arrival && o.duration.to_bits() == (o.finish - o.arrival).to_bits())
        })
        .count();
    checks.expect(
        bad == 0,
        format!("{bad} outcomes break finish >= arrival or duration = finish - arrival"),
    );
}

/// The whole check of one simulated run. The program's own latency
/// statistics must agree with the recomputed ones.
pub fn sim_run(checks: &mut Checks, items: &[WorkloadItem], res: &SimResult, fault_free: bool) {
    let outcomes: Vec<&QueryOutcome> = res.outcomes.iter().collect();
    fates(
        checks,
        items,
        &outcomes,
        res.aborted.len() + res.unfinished.len(),
    );
    checks.expect(
        res.resilience.shed == 0,
        format!("{} queries shed", res.resilience.shed),
    );
    let planned = planned_work_orders(items);
    if fault_free {
        checks.expect(
            res.total_work_orders == planned,
            format!(
                "executed {} work orders, plans hold {planned}",
                res.total_work_orders
            ),
        );
    } else {
        checks.expect(
            res.total_work_orders >= planned,
            format!(
                "executed {} work orders, fewer than the {planned} planned",
                res.total_work_orders
            ),
        );
    }
    let lat = latency(&res.outcomes);
    let theirs = res.latency_stats();
    checks.expect(
        close(theirs.mean(), lat.mean) && theirs.quantile(0.9).to_bits() == lat.p90.to_bits(),
        "the program's latency statistics disagree with the recomputed ones",
    );
}
