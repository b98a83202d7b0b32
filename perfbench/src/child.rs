//! Child processes. Each timed iteration runs in a fresh process, as one
//! `magus` command does, so no iteration inherits another's heap or
//! caches. The warm workload's cache fill runs in one too.

use crate::pipeline::{run_once, Iteration};
use crate::warm::fill_cold;
use crate::workload::Workload;
use std::process::Command;

/// Internal first argument: run one iteration, print it as one line.
const ITERATION_FLAG: &str = "--iteration";
/// Internal first argument: fill the warm cache, print the cold digest.
const FILL_FLAG: &str = "--fill-cache";

/// Runs the child role `argv` asks for, if any, returning its exit code.
pub fn dispatch(argv: &[String]) -> Option<i32> {
    let role = argv.first()?.as_str();
    if role != ITERATION_FLAG && role != FILL_FLAG {
        return None;
    }
    let parsed = match &argv[1..] {
        [w, s] => Workload::parse(w).and_then(|w| {
            s.parse::<u64>()
                .map(|seed| (w, seed))
                .map_err(|e| format!("invalid seed `{s}`: {e}"))
        }),
        _ => Err(format!("usage: {role} <workload> <seed>")),
    };
    let (workload, seed) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return Some(2);
        }
    };
    magus_exec::set_threads(crate::worker_threads().0);
    let inputs = workload.inputs(seed);
    let line = if role == ITERATION_FLAG {
        Ok(run_once(&inputs).0.to_line())
    } else {
        fill_cold(&inputs).map(|digest| format!("{digest:016x}"))
    };
    Some(match line {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    })
}

/// Runs this binary in `role` for `workload` at `seed`, waits for it and
/// returns the last line it printed.
fn spawn(role: &str, workload: Workload, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([role, workload.name(), &seed.to_string()])
        .output()
        .map_err(|e| format!("starting {role}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{role} {} {seed} failed: {}",
            workload.name(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(stdout.lines().last().unwrap_or("").to_string())
}

/// One pipeline iteration in a fresh process.
pub fn iteration(workload: Workload, seed: u64) -> Result<Iteration, String> {
    Iteration::from_line(&spawn(ITERATION_FLAG, workload, seed)?)
}

/// Fills the warm cache in a fresh process; returns the cold digest.
pub fn fill(workload: Workload, seed: u64) -> Result<u64, String> {
    let last = spawn(FILL_FLAG, workload, seed)?;
    u64::from_str_radix(last.trim(), 16).map_err(|_| format!("cache fill printed `{last}`"))
}
