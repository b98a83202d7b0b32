//! Metric values, run metadata and the result line.

use crate::pipeline::Iteration;
use crate::workload::Inputs;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line
                .trim_start_matches("VmHWM:")
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Formats a float as a JSON number with every digit Rust keeps for a
/// round trip; non-finite values become `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    magus_obs::json_escape(s)
}

/// The result line: the last line of stdout.
pub fn result_line(metrics: &[Metric], attempted: usize, failed: usize) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

pub fn print_result(metrics: &[Metric], attempted: usize, failed: usize) {
    for m in metrics {
        println!("{:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(metrics, attempted, failed));
}

/// Run metadata, so no number is quoted without its input size.
pub fn print_meta(
    workload: &str,
    seed: u64,
    threads: usize,
    nproc: usize,
    inputs: &Inputs,
    iterations: &[Iteration],
) {
    let first = &iterations[0];
    let med = |f: fn(&Iteration) -> f64| median(iterations.iter().map(f).collect());
    let strategy = inputs
        .strategy
        .map_or("joint (Algorithm 1)".to_string(), |s| s.to_string());
    println!(
        "meta {{\"workload\": {}, \"seed\": {seed}, \"threads\": {threads}, \"nproc\": {nproc}, \
         \"sectors\": {}, \"grids\": {}, \"strategy\": {}, \"search_probes\": {}, \
         \"search_moves\": {}, \"iterations\": {}, \"schedule_s\": {}, \"total_s\": {}, \
         \"digest\": \"{:016x}\", \
         \"recovery_ratio\": {}, \"handover_reduction\": {}, \"market\": {}}}",
        json_str(workload),
        first.sectors,
        first.grids,
        json_str(&strategy),
        first.search_probes,
        first.search_moves,
        iterations.len(),
        json_num(med(Iteration::schedule_s)),
        json_num(med(Iteration::total_s)),
        first.digest,
        json_num(first.recovery_ratio),
        json_num(first.handover_reduction),
        json_str(&format!("{:?}", inputs.params)),
    );
}
