//! The repository's benchmark: four workloads that drive the scheduler
//! through its crates' public entry points, timed from outside.
//!
//! ```text
//! lsched-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it times every layer around its public calls and reports
//! the per-layer metrics. The last line of standard output is the result
//! as one JSON object. See `README.md` beside this crate.

mod check;
mod gen;
mod layers;
mod report;
mod serve;
mod sim;
mod timing;
mod train;

use std::process::ExitCode;

use report::Report;
use timing::timed;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Run length when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`, the length the bounds there were measured at.
const DEFAULT_SECONDS: f64 = 20.0;
/// Each run first builds its inputs again and again for this many
/// seconds (and at least `SETUP_MIN_REPS` times), then once more after
/// every timed round; `setup_s` is the fastest build.
const SETUP_SECONDS: f64 = 1.0;
const SETUP_MIN_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The repeated construction of a workload's inputs behind `setup_s`.
/// A burst of builds runs before the timed rounds and one more build
/// after every timed round ([`Setup::rebuild`]), so the fastest build is
/// drawn from the same host phases as the fastest pass.
pub struct Setup<'a, T> {
    /// Builds the inputs; returns the seconds it spent in the
    /// `workloads` crate with them.
    build: Box<dyn FnMut() -> (f64, T) + 'a>,
    /// Fastest whole build.
    pub best: f64,
    /// Fastest generation time.
    pub best_gen: f64,
}

impl<'a, T> Setup<'a, T> {
    /// Runs the burst (see [`SETUP_SECONDS`]) and returns the inputs of
    /// its last build.
    pub fn new(build: impl FnMut() -> (f64, T) + 'a) -> (Self, T) {
        let mut su = Setup {
            build: Box::new(build),
            best: f64::INFINITY,
            best_gen: f64::INFINITY,
        };
        let t0 = std::time::Instant::now();
        let mut reps = 0;
        loop {
            let inputs = su.build_once();
            reps += 1;
            if reps >= SETUP_MIN_REPS && t0.elapsed().as_secs_f64() >= SETUP_SECONDS {
                return (su, inputs);
            }
        }
    }

    fn build_once(&mut self) -> T {
        let (s, (gen_s, inputs)) = timed(&mut self.build);
        self.best = self.best.min(s);
        self.best_gen = self.best_gen.min(gen_s);
        inputs
    }

    /// One more timed build, its inputs dropped.
    pub fn rebuild(&mut self) {
        self.build_once();
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lsched-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let rep: Report = match args.workload.as_str() {
        "batch_heuristics" => sim::batch_heuristics(&args),
        "stream_lsched" => sim::stream_lsched(&args),
        "train_resume" => train::train_resume(&args),
        "serve_failover" => serve::serve_failover(&args),
        other => {
            eprintln!("error: unknown workload {other:?}; expected batch_heuristics, stream_lsched, train_resume or serve_failover");
            return ExitCode::from(2);
        }
    };
    for note in &rep.notes {
        println!("{note}");
    }
    for failure in rep.checks.failures() {
        eprintln!("check failed: {failure}");
    }
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
