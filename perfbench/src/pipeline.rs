//! One pipeline iteration through the library entry points `magus
//! mitigate` and `magus gradual` use, with a span around every public
//! call, and the output checks.

use crate::workload::{Inputs, SCENARIO};
use magus_core::{
    execute_gradual, plan_gradual, prepare_scenario, GradualParams, MigrateParams, TuningKind,
};
use magus_lte::Bandwidth;
use magus_model::{standard_setup, StandardModel};
use magus_net::Market;
use magus_propagation::CacheStats;
use std::time::Instant;

/// Wall-clock spans recorded around public calls, in call order.
#[derive(Debug, Default, Clone)]
pub struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    /// Runs `f`, recording its wall time under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0.push((name, t0.elapsed().as_secs_f64()));
        out
    }

    /// Total seconds recorded under `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }
}

/// Registry readings taken around the plan phase. They stay at zero
/// unless the obs level records counters (the traced run).
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanCounters {
    pub prepare_probes: u64,
    pub worker_busy_ns: u64,
    pub worker_lifetime_ns: u64,
}

/// How far a from-scratch `initial_state` may read from the utility the
/// incremental search reached: the tolerance of the evaluator's own
/// `incremental_equals_full_rebuild` property. Incremental updates sum
/// in another order, so the bits may differ.
pub const REBUILD_TOLERANCE: f64 = 1e-6;

/// A named output check and whether it held.
pub type Check = (&'static str, bool);

/// The spans of one iteration, in call order.
pub const SPANS: [&str; 6] = [
    "net.generate_s",
    "model.setup_s",
    "core.prepare_s",
    "core.search_s",
    "core.plan_gradual_s",
    "core.execute_gradual_s",
];

/// The checks every iteration makes; [`Iteration::passed`] holds their
/// outcomes in this order.
pub const ITERATION_CHECKS: [&str; 3] = [
    "rehearsal completed without invariant violations",
    "f_after >= f_upgrade",
    "from-scratch state reproduces the utility",
];

/// What one iteration produced.
#[derive(Debug, Clone)]
pub struct Iteration {
    pub spans: Spans,
    /// Moves plus optimized-utility bits, hashed.
    pub digest: u64,
    /// Bits of the optimized utility at the planning pass's `C_before`.
    pub before_bits: u64,
    pub recovery_ratio: f64,
    pub handover_reduction: f64,
    pub sectors: usize,
    pub grids: usize,
    pub search_probes: usize,
    pub search_moves: usize,
    pub gradual_steps: usize,
    pub migrate_retries: u64,
    pub migrate_rolled_back: usize,
    /// Peak RSS (`VmHWM`) of the process when the iteration ended, MiB.
    pub peak_rss_mib: f64,
    /// Path-loss cache traffic over the plan phase.
    pub plan_cache: CacheStats,
    pub counters: PlanCounters,
    /// Outcomes of [`ITERATION_CHECKS`].
    pub passed: [bool; 3],
}

impl Iteration {
    /// `Market::generate_cached` + `standard_setup`.
    pub fn setup_s(&self) -> f64 {
        self.spans.get("net.generate_s") + self.spans.get("model.setup_s")
    }
    /// `prepare_scenario` + the search.
    pub fn plan_s(&self) -> f64 {
        self.spans.get("core.prepare_s") + self.spans.get("core.search_s")
    }
    /// `plan_gradual` + `execute_gradual`.
    pub fn schedule_s(&self) -> f64 {
        self.spans.get("core.plan_gradual_s") + self.spans.get("core.execute_gradual_s")
    }
    pub fn total_s(&self) -> f64 {
        self.setup_s() + self.plan_s() + self.schedule_s()
    }

    pub fn checks(&self) -> Vec<Check> {
        ITERATION_CHECKS.into_iter().zip(self.passed).collect()
    }

    /// One line of `key=value` fields: how an iteration run in a child
    /// process reports to the parent.
    pub fn to_line(&self) -> String {
        let mut f: Vec<String> = self
            .spans
            .0
            .iter()
            .map(|(name, s)| format!("{name}={s:?}"))
            .collect();
        let c = &self.plan_cache;
        let n = &self.counters;
        for (k, v) in [
            ("digest", self.digest),
            ("before_bits", self.before_bits),
            ("sectors", self.sectors as u64),
            ("grids", self.grids as u64),
            ("search_probes", self.search_probes as u64),
            ("search_moves", self.search_moves as u64),
            ("gradual_steps", self.gradual_steps as u64),
            ("migrate_retries", self.migrate_retries),
            ("migrate_rolled_back", self.migrate_rolled_back as u64),
            ("cache_hits", c.hits),
            ("cache_misses", c.misses),
            ("cache_assembles", c.assembles),
            ("cache_evictions", c.evictions),
            ("prepare_probes", n.prepare_probes),
            ("worker_busy_ns", n.worker_busy_ns),
            ("worker_lifetime_ns", n.worker_lifetime_ns),
        ] {
            f.push(format!("{k}={v}"));
        }
        for (k, v) in [
            ("recovery_ratio", self.recovery_ratio),
            ("handover_reduction", self.handover_reduction),
            ("peak_rss_mib", self.peak_rss_mib),
        ] {
            f.push(format!("{k}={v:?}"));
        }
        let passed: String = self
            .passed
            .iter()
            .map(|&ok| if ok { '1' } else { '0' })
            .collect();
        f.push(format!("passed={passed}"));
        f.join(" ")
    }

    /// Parses [`Iteration::to_line`].
    pub fn from_line(line: &str) -> Result<Iteration, String> {
        let fields: Vec<(&str, &str)> = line
            .split_whitespace()
            .filter_map(|t| t.split_once('='))
            .collect();
        let get = |k: &str| {
            fields
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("iteration line lacks `{k}`: {line}"))
        };
        let f = |k: &str| get(k)?.parse::<f64>().map_err(|e| format!("`{k}`: {e}"));
        let u = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("`{k}`: {e}"));
        let z = |k: &str| u(k).map(|v| v as usize);
        let mut spans = Spans::default();
        for name in SPANS {
            spans.0.push((name, f(name)?));
        }
        let bits = get("passed")?.as_bytes();
        if bits.len() != ITERATION_CHECKS.len() {
            return Err(format!("`passed` has {} checks", bits.len()));
        }
        Ok(Iteration {
            spans,
            digest: u("digest")?,
            before_bits: u("before_bits")?,
            recovery_ratio: f("recovery_ratio")?,
            handover_reduction: f("handover_reduction")?,
            sectors: z("sectors")?,
            grids: z("grids")?,
            search_probes: z("search_probes")?,
            search_moves: z("search_moves")?,
            gradual_steps: z("gradual_steps")?,
            migrate_retries: u("migrate_retries")?,
            migrate_rolled_back: z("migrate_rolled_back")?,
            peak_rss_mib: f("peak_rss_mib")?,
            plan_cache: CacheStats {
                hits: u("cache_hits")?,
                misses: u("cache_misses")?,
                assembles: u("cache_assembles")?,
                evictions: u("cache_evictions")?,
            },
            counters: PlanCounters {
                prepare_probes: u("prepare_probes")?,
                worker_busy_ns: u("worker_busy_ns")?,
                worker_lifetime_ns: u("worker_lifetime_ns")?,
            },
            passed: [bits[0] == b'1', bits[1] == b'1', bits[2] == b'1'],
        })
    }
}

/// Runs set-up, planning and scheduling once. The market and model are
/// returned so the traced run can probe single layers on them.
pub fn run_once(inputs: &Inputs) -> (Iteration, Market, StandardModel) {
    let cfg = &inputs.cfg;
    let kind = cfg.search.utility;
    let mut spans = Spans::default();

    let market = spans.time("net.generate_s", || {
        Market::generate_cached(inputs.params.clone(), inputs.cache_dir.as_deref())
    });
    let sm = spans.time("model.setup_s", || {
        standard_setup(&market, Bandwidth::Mhz10)
    });
    let ev = &sm.evaluator;

    let reg = magus_obs::registry();
    let hist_sum = |name: &str| reg.histogram(name).snapshot(name).sum;
    let cache0 = ev.store().cache_stats();
    let probes0 = reg.counter("hillclimb.probes").get();
    let busy0 = hist_sum("pool.worker_busy_ns");
    let life0 = hist_sum("pool.worker_lifetime_ns");
    let prepared = spans.time("core.prepare_s", || {
        prepare_scenario(&sm, &market, SCENARIO, cfg)
    });
    let prepare_probes = reg.counter("hillclimb.probes").get() - probes0;
    let out = spans.time("core.search_s", || match inputs.strategy {
        Some(spec) => prepared.run_strategy(&sm, spec, cfg),
        None => prepared.run(&sm, TuningKind::Joint, cfg),
    });
    let cache1 = ev.store().cache_stats();
    let counters = PlanCounters {
        prepare_probes,
        worker_busy_ns: hist_sum("pool.worker_busy_ns") - busy0,
        worker_lifetime_ns: hist_sum("pool.worker_lifetime_ns") - life0,
    };

    let gradual = spans.time("core.plan_gradual_s", || {
        plan_gradual(
            ev,
            &out.config_before,
            &out.config_after,
            &out.targets,
            &GradualParams::default(),
        )
    });
    let report = spans.time("core.execute_gradual_s", || {
        execute_gradual(
            ev,
            &out.config_before,
            &out.config_after,
            &gradual,
            &MigrateParams {
                utility: kind,
                ..MigrateParams::default()
            },
        )
    });

    let f_after = out.after.get(kind);
    let rebuilt = ev.initial_state(&out.config_after).utility(kind);
    let passed = [
        report.completed && report.invariant_violations.is_empty(),
        f_after >= out.upgrade.get(kind),
        (rebuilt - f_after).abs() < REBUILD_TOLERANCE,
    ];
    let it = Iteration {
        spans,
        digest: plan_digest(&out.search.steps, f_after),
        before_bits: prepared.before.get(kind).to_bits(),
        recovery_ratio: out.recovery(kind),
        handover_reduction: gradual.simultaneous_reduction_factor(),
        sectors: market.network().num_sectors(),
        grids: market.spec().len(),
        search_probes: out.search.probes,
        search_moves: out.search.steps.len(),
        gradual_steps: gradual.steps.len(),
        migrate_retries: report.steps.iter().map(|s| u64::from(s.retries)).sum(),
        migrate_rolled_back: report.rolled_back_steps,
        peak_rss_mib: crate::report::peak_rss_mib(),
        plan_cache: CacheStats {
            hits: cache1.hits - cache0.hits,
            misses: cache1.misses - cache0.misses,
            assembles: cache1.assembles - cache0.assembles,
            evictions: cache1.evictions - cache0.evictions,
        },
        counters,
        passed,
    };
    (it, market, sm)
}

/// The plan digest: the pushed moves and the optimized utility's bits.
/// Equal digests mean the operator receives the same plan.
pub fn plan_digest(moves: &[magus_net::ConfigChange], f_after: f64) -> u64 {
    let text = format!("{moves:?}|{:016x}", f_after.to_bits());
    magus_propagation::io::fnv1a64(text.as_bytes())
}
