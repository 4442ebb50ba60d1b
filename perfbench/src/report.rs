//! The result line, the correctness ledger and the memory probe.

use std::fmt::Write as _;

/// Failed correctness checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One run's output: operation counts, metrics and the checks behind
/// `correct`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Free-form lines printed before the result (pass drift, sizes).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric; a value that is not a finite number fails the
    /// run's checks, since it would mean a broken measurement.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.checks
            .expect(value.is_finite(), format!("metric {name} is {value}"));
        self.metrics.push((name, value, unit));
    }

    /// The result as one JSON object. Values are printed with every
    /// digit (`{:?}` is the shortest form that reads back exactly).
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.passed(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
