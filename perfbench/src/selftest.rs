//! The benchmark's self-test at toy size: every declared metric is
//! emitted with its declared unit, and the warm workload's checks fail on
//! a mismatched digest and on a rebuilt blob.

use crate::pipeline::{run_once, Check, Iteration};
use crate::report::{result_line, Metric};
use crate::warm::{blob_stamps, fill_cold};
use crate::workload::{Inputs, Workload};
use crate::{bench, parse_args, run_checks, WarmEvidence};
use magus_bench::{market_params, Scale};
use magus_net::{AreaType, MarketParams};
use serde_json::Value;
use std::sync::Mutex;
use std::time::Duration;

/// The benchmark sets process-wide state (thread count, obs level), so
/// the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    fn get<'a>(v: &'a Value, k: &str) -> Option<&'a Value> {
        v.as_object()?.get(k)
    }
    let field = |m: &Value, k: &str| get(m, k).and_then(Value::as_str).expect(k).to_string();
    get(&doc, section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn failed(checks: &[Check]) -> Vec<&'static str> {
    checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(n, _)| *n)
        .collect()
}

/// [`bench`] with the iterations in this process (the test binary cannot
/// spawn the benchmark binary).
fn bench_here(inputs: &Inputs, trace: bool, cold: Option<u64>) -> crate::Outcome {
    let mut iterate = || -> Result<Iteration, String> { Ok(run_once(inputs).0) };
    bench(inputs, Duration::ZERO, trace, 2, cold, &mut iterate).expect("toy run")
}

fn toy(workload: Workload, seed: u64) -> Inputs {
    let params = match workload {
        Workload::EvalUpgrade => market_params(AreaType::Suburban, seed, Scale::Tiny),
        Workload::ContinentalCold | Workload::ContinentalWarm => MarketParams::scaled(600, seed),
    };
    workload.with_params(params)
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let _guard = serial();
    let inputs = toy(Workload::EvalUpgrade, 1);
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = bench_here(&inputs, trace, None);
        assert!(failed(&out.checks).is_empty(), "{:?}", failed(&out.checks));
        assert_eq!(emitted(&out.metrics), declared(section), "{section}");
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));

        let line = result_line(&out.metrics, out.checks.len(), 0);
        let doc = serde_json::parse_value(&line).expect("result line parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let _guard = serial();
    let out = bench_here(&toy(Workload::ContinentalCold, 2), false, None);
    assert!(failed(&out.checks).is_empty(), "{:?}", failed(&out.checks));
    assert!(
        out.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        out.metrics
    );
}

#[test]
fn warm_checks_fail_on_a_mismatched_digest_and_a_rebuilt_blob() {
    let _guard = serial();
    let mut inputs = toy(Workload::ContinentalWarm, 3);
    let dir = std::env::temp_dir().join(format!("magus-perfbench-selftest-{}", std::process::id()));
    inputs.cache_dir = Some(dir.clone());

    let cold = fill_cold(&inputs).expect("cache fill");
    let out = bench_here(&inputs, false, Some(cold));
    assert!(failed(&out.checks).is_empty(), "{:?}", failed(&out.checks));

    let stamps = blob_stamps(&dir).expect("stamps");
    let mismatched = WarmEvidence {
        cold_digest: cold ^ 1,
        before: stamps.clone(),
        after: Some(stamps),
    };
    assert_eq!(
        failed(&run_checks(&out.iterations, Some(&mismatched))),
        ["the warm plan digest equals the cold one"]
    );

    // A corrupt store blob makes the run rebuild and rewrite it.
    let store_blob = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "mpl2"))
        .expect("store blob");
    let mut bytes = std::fs::read(&store_blob).expect("read blob");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&store_blob, &bytes).expect("corrupt blob");
    let rebuilt = bench_here(&inputs, false, Some(cold));
    assert_eq!(
        failed(&rebuilt.checks),
        ["the warm run loaded the cache blobs without rebuilding them"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arguments_follow_the_benchmark_contract() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv(
        "--workload continental-warm --seed 7 --seconds 3 --trace 1",
    ))
    .expect("valid");
    assert_eq!(a.workload, Workload::ContinentalWarm);
    assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    let d = parse_args(&argv("--workload eval-upgrade")).expect("defaults");
    assert_eq!((d.seed, d.trace), (1, false));
    for bad in [
        "",
        "--workload nope",
        "--workload eval-upgrade --trace 2",
        "--workload eval-upgrade --seconds 0",
        "--workload eval-upgrade --seed",
        "--workload eval-upgrade --threads 4",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "`{bad}` accepted");
    }
}

#[test]
fn iteration_lines_round_trip() {
    let _guard = serial();
    let (it, _, _) = run_once(&toy(Workload::EvalUpgrade, 4));
    let line = it.to_line();
    let back = Iteration::from_line(&line).expect("parses");
    assert_eq!(back.to_line(), line);
    assert_eq!(back.digest, it.digest);
    assert!(Iteration::from_line("digest=1").is_err());
}
