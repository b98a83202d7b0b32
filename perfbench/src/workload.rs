//! The three workloads and the inputs each one derives from a seed.

use magus_bench::{market_params, Scale};
use magus_core::{ExperimentConfig, StrategySpec};
use magus_net::{AreaType, MarketParams, UpgradeScenario};
use std::path::PathBuf;

/// Sector target of the continental pair.
pub const CONTINENTAL_SECTORS: usize = 2_000;

/// The scenario every workload plans for: (b), the central base station
/// goes off-air.
pub const SCENARIO: UpgradeScenario = UpgradeScenario::CentralBaseStation;

/// Moves the planning pass may make before the upgrade.
pub const PLANNING_MOVES: usize = 40;

/// Changes the mitigation search may push (Algorithm 1's budget, and the
/// beam's rounds and final polish).
pub const SEARCH_CHANGES: usize = 12;

/// The CLI's default configuration with fixed move budgets. Uncapped,
/// the searches stop where each seed's market converges, so the work per
/// run varied about 2x between seeds (13.6k against 48.8k beam probes at
/// seeds 1 and 2). Every seed reaches these budgets, so each run does
/// the same number of search rounds and the seed changes only the market.
pub fn experiment_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::default();
    cfg.pretune_params.max_moves = PLANNING_MOVES;
    cfg.search.max_changes = SEARCH_CHANGES;
    cfg
}

/// A named workload (see README.md for why each one exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-sized suburban market, Algorithm 1 joint tuning, no cache.
    EvalUpgrade,
    /// ~2k-sector tile-compressed market built from scratch, beam:4.
    ContinentalCold,
    /// `ContinentalCold` loaded from a cache dir filled before timing.
    ContinentalWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EvalUpgrade,
        Workload::ContinentalCold,
        Workload::ContinentalWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalUpgrade => "eval-upgrade",
            Workload::ContinentalCold => "continental-cold",
            Workload::ContinentalWarm => "continental-warm",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{s}` ({})", names.join("|"))
            })
    }

    /// The benchmark-sized inputs for `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        let params = match self {
            Workload::EvalUpgrade => market_params(AreaType::Suburban, seed, Scale::Eval),
            Workload::ContinentalCold | Workload::ContinentalWarm => {
                MarketParams::scaled(CONTINENTAL_SECTORS, seed)
            }
        };
        self.with_params(params)
    }

    /// Inputs over explicit market parameters (the self-test shrinks the
    /// market; everything else stays as benchmarked).
    pub fn with_params(self, params: MarketParams) -> Inputs {
        let strategy = match self {
            Workload::EvalUpgrade => None,
            Workload::ContinentalCold | Workload::ContinentalWarm => Some(StrategySpec::Beam(4)),
        };
        // One dir for every seed: the fill empties it first.
        let cache_dir =
            (self == Workload::ContinentalWarm).then(|| PathBuf::from(".perfbench-cache"));
        Inputs {
            params,
            strategy,
            cache_dir,
            cfg: experiment_config(),
        }
    }
}

/// Everything one pipeline iteration consumes.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub params: MarketParams,
    /// `None` runs the paper's Algorithm 1 joint tuning
    /// (`PreparedScenario::run`); `Some` runs a portfolio strategy.
    pub strategy: Option<StrategySpec>,
    /// The `--cache-dir` of the warm workload, relative to the checkout.
    pub cache_dir: Option<PathBuf>,
    pub cfg: ExperimentConfig,
}
