//! `magus-perfbench`: time to a pushable mitigation plan and gradual
//! schedule, end to end and per layer. See README.md.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval-upgrade|continental-cold|continental-warm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the process exits non-zero when any output
//! check fails.

mod child;
mod layers;
mod pipeline;
mod report;
mod warm;
mod workload;

#[cfg(test)]
mod selftest;

use pipeline::{run_once, Check, Iteration};
use report::{median, Metric};
use std::time::{Duration, Instant};
use warm::BlobStamps;
use workload::{Inputs, Workload};

const USAGE: &str = "usage: magus-perfbench --workload \
                     <eval-upgrade|continental-cold|continental-warm> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("invalid --seed `{value}`"))?
            }
            "--seconds" => {
                seconds =
                    value.parse().ok().filter(|&s| s >= 1).ok_or_else(|| {
                        format!("invalid --seconds `{value}` (whole number >= 1)")
                    })?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid --trace `{other}` (0|1)")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = child::dispatch(&argv) {
        std::process::exit(code);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// `(workers, cores)`: two workers, or one on a single-core machine, so
/// the worker count never exceeds the cores.
pub fn worker_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc.min(2), nproc)
}

/// One invocation; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let (threads, nproc) = worker_threads();
    magus_exec::set_threads(threads);
    let inputs = args.workload.inputs(args.seed);
    let cold_digest = match &inputs.cache_dir {
        Some(_) => Some(child::fill(args.workload, args.seed)?),
        None => None,
    };
    let out = bench(
        &inputs,
        Duration::from_secs(args.seconds),
        args.trace,
        threads,
        cold_digest,
        &mut || child::iteration(args.workload, args.seed),
    )?;
    report::print_meta(
        args.workload.name(),
        args.seed,
        threads,
        nproc,
        &inputs,
        &out.iterations,
    );
    let failed = out.checks.iter().filter(|(_, ok)| !ok).count();
    for (name, ok) in &out.checks {
        if !ok {
            eprintln!("perfbench: CHECK FAILED: {name}");
        }
    }
    report::print_result(&out.metrics, out.checks.len(), failed);
    Ok(failed == 0)
}

/// What a run measured and checked.
pub struct Outcome {
    pub iterations: Vec<Iteration>,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
}

/// Evidence that the warm workload planned on the cached blobs.
pub struct WarmEvidence {
    /// Digest of the plan the cache fill computed on a cold build.
    pub cold_digest: u64,
    pub before: BlobStamps,
    /// `None` when the cache dir could not be read after the run.
    pub after: Option<BlobStamps>,
}

/// Untraced iterations from `iterate` for `budget`, then, when `trace` is
/// set, one iteration in this process with counters on and the per-layer
/// probes.
pub fn bench(
    inputs: &Inputs,
    budget: Duration,
    trace: bool,
    threads: usize,
    cold_digest: Option<u64>,
    iterate: &mut dyn FnMut() -> Result<Iteration, String>,
) -> Result<Outcome, String> {
    let before = match &inputs.cache_dir {
        Some(dir) => Some(warm::blob_stamps(dir)?),
        None => None,
    };
    magus_obs::set_level(magus_obs::ObsLevel::Off);
    let iterations = measure(iterate, budget)?;
    let mut extra = Vec::new();
    let metrics = if trace {
        magus_obs::set_level(magus_obs::ObsLevel::Counters);
        let (traced, market, sm) = run_once(inputs);
        let metrics = layers::per_layer(
            inputs,
            &iterations,
            &traced,
            &market,
            &sm,
            threads,
            &mut extra,
        );
        magus_obs::set_level(magus_obs::ObsLevel::Off);
        extra.extend(traced.checks());
        extra.push((
            "the traced iteration agrees on the plan digest",
            traced.digest == iterations[0].digest,
        ));
        metrics
    } else {
        end_to_end(&iterations)
    };
    let warm = match (cold_digest, before) {
        (Some(cold_digest), Some(before)) => Some(WarmEvidence {
            cold_digest,
            before,
            after: inputs
                .cache_dir
                .as_deref()
                .and_then(|d| warm::blob_stamps(d).ok()),
        }),
        _ => None,
    };
    let mut checks = run_checks(&iterations, warm.as_ref());
    checks.extend(extra);
    Ok(Outcome {
        iterations,
        metrics,
        checks,
    })
}

/// The run-level checks: every iteration's own checks, the same plan in
/// every iteration and, for the warm workload, the cold plan from blobs
/// the run did not rewrite.
pub fn run_checks(iterations: &[Iteration], warm: Option<&WarmEvidence>) -> Vec<Check> {
    let mut checks = Vec::new();
    let first = iterations.first().map(|it| it.digest);
    for it in iterations {
        checks.extend(it.checks());
        checks.push((
            "iterations agree on the plan digest",
            Some(it.digest) == first,
        ));
    }
    if let Some(w) = warm {
        checks.push((
            "the warm plan digest equals the cold one",
            first == Some(w.cold_digest),
        ));
        checks.push((
            "the warm run loaded the cache blobs without rebuilding them",
            w.after.as_ref() == Some(&w.before),
        ));
    }
    checks
}

/// Iterations a run makes at least, whatever `--seconds` says, so each
/// median has three samples: single iterations of the continental pair
/// vary by about 10%, and one warm iteration outlasts a 10-second budget.
const MIN_ITERATIONS: usize = 3;

/// Untraced iterations until `budget` has elapsed and at least
/// [`MIN_ITERATIONS`] have run.
fn measure(
    iterate: &mut dyn FnMut() -> Result<Iteration, String>,
    budget: Duration,
) -> Result<Vec<Iteration>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let it = iterate()?;
        eprintln!(
            "perfbench: iteration {}: setup {:.3}s plan {:.3}s schedule {:.3}s ({} search probes)",
            out.len() + 1,
            it.setup_s(),
            it.plan_s(),
            it.schedule_s(),
            it.search_probes
        );
        out.push(it);
        if out.len() >= MIN_ITERATIONS && start.elapsed() >= budget {
            return Ok(out);
        }
    }
}

/// The end-to-end metrics: medians over the run's iterations, each one a
/// fresh process, as one `magus` command is.
fn end_to_end(iterations: &[Iteration]) -> Vec<Metric> {
    let med = |f: fn(&Iteration) -> f64| median(iterations.iter().map(f).collect());
    vec![
        Metric::new("setup_s", "s", med(Iteration::setup_s)),
        Metric::new("plan_s", "s", med(Iteration::plan_s)),
        Metric::new("peak_rss_mib", "MiB", med(|it| it.peak_rss_mib)),
    ]
}
