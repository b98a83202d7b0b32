//! The traced run's per-layer metrics. Each time is a span around one
//! public call, taken from outside the library; each count is a
//! `magus-obs` registry counter read as a delta around the call.

use crate::pipeline::{Check, Iteration};
use crate::report::{median, Metric};
use crate::workload::{Inputs, SCENARIO};
use magus_core::prepare_scenario;
use magus_geo::Db;
use magus_model::{Evaluator, ModelState, StandardModel};
use magus_net::{ConfigChange, Market, SectorId};
use magus_propagation::{
    decode_neighbors, decode_store, encode_neighbors, encode_store, PathLossStore,
    PropagationModel, TiltSettings, NUM_TILT_SETTINGS,
};
use magus_terrain::Terrain;
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Sectors whose candidate moves make up the probe mix (the same mix
/// `scale_matrix` uses).
const PROBE_SECTORS: usize = 64;

/// Minimum wall time of the timed probe rounds.
const PROBE_BUDGET_S: f64 = 0.5;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Every per-layer metric, measured on the traced iteration's market and
/// model. `untraced` are the run's untraced iterations, the reference
/// for the tracing overhead and the multi-thread side of the team
/// speed-up.
pub fn per_layer(
    inputs: &Inputs,
    untraced: &[Iteration],
    traced: &Iteration,
    market: &Market,
    sm: &StandardModel,
    threads: usize,
    checks: &mut Vec<Check>,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut put = |name, unit, value| m.push(Metric::new(name, unit, value));
    let span = |name| traced.spans.get(name);
    let p = market.params();

    let (_, terrain_s) = time(|| Terrain::generate(*market.spec(), p.seed, &p.terrain, &p.clutter));
    put("terrain.generate_s", "s", terrain_s);
    put("net.generate_s", "s", span("net.generate_s"));

    // A fresh build of this market's store, then its compression,
    // neighbor index and blob round trip.
    let model = PropagationModel::new(
        Arc::clone(market.terrain()),
        p.spm,
        // The shadowing seed `Market::generate_cached` uses; it moves
        // values, not cost.
        p.seed ^ 0x5107_AD10,
    );
    let (mut store, build_s) = time(|| {
        PathLossStore::build(
            *market.spec(),
            market.network().sites(),
            &model,
            TiltSettings::default(),
            p.footprint_span_m,
        )
    });
    let cells: usize = (0..store.num_sectors() as u32)
        .map(|s| store.window(s).len())
        .sum();
    put("propagation.build_s", "s", build_s);
    put(
        "propagation.build_cells_per_s",
        "cells/s",
        cells as f64 / build_s,
    );
    let ((), compress_s) = time(|| store.compress_bases());
    put("propagation.compress_s", "s", compress_s);
    let (_, neighbor_s) = time(|| store.neighbor_index());
    put("propagation.neighbor_index_s", "s", neighbor_s);
    drop(store);

    let (store_blob, nbr_blob) = blobs(inputs, market.store());
    let (decoded, decode_s) = time(|| decode_store(&store_blob));
    checks.push(("the store blob decodes", decoded.is_ok()));
    drop(decoded);
    let (decoded, decode_nbr_s) = time(|| decode_neighbors(&nbr_blob));
    checks.push(("the neighbor blob decodes", decoded.is_ok()));
    put("propagation.decode_store_s", "s", decode_s);
    put("propagation.decode_neighbors_s", "s", decode_nbr_s);
    let blob_bytes = store_blob.len() + nbr_blob.len();
    put("propagation.blob_mib", "MiB", blob_bytes as f64 / MIB);
    let encoded = market.store().base_raster_bytes();
    put("propagation.encoded_mib", "MiB", encoded as f64 / MIB);
    let c = traced.plan_cache;
    let lookups = (c.hits + c.misses).max(1);
    put(
        "propagation.cache_hit_ratio",
        "ratio",
        c.hits as f64 / lookups as f64,
    );
    put("propagation.assembles", "count", c.assembles as f64);

    let ev = &sm.evaluator;
    put("model.setup_s", "s", span("model.setup_s"));
    let (state, initial_s) = time(|| ev.initial_state(&sm.nominal));
    put("model.initial_state_s", "s", initial_s);
    let probe = probe_mix(ev, &state, inputs.cfg.search.utility);
    checks.push(("probing leaves the state bit-identical", probe.restored));
    put("model.probe_us", "us", probe.seconds / probe.probes * 1e6);
    put("model.probes_per_s", "1/s", probe.probes / probe.seconds);
    put("model.cells_per_probe", "cells", probe.cells / probe.probes);

    let count = |x: usize| x as f64;
    put("core.prepare_s", "s", span("core.prepare_s"));
    put(
        "core.prepare_probes",
        "count",
        traced.counters.prepare_probes as f64,
    );
    put("core.search_s", "s", span("core.search_s"));
    put("core.search_probes", "count", count(traced.search_probes));
    put("core.search_moves", "count", count(traced.search_moves));
    put("core.plan_gradual_s", "s", span("core.plan_gradual_s"));
    put("core.gradual_steps", "count", count(traced.gradual_steps));
    put(
        "core.execute_gradual_s",
        "s",
        span("core.execute_gradual_s"),
    );
    put(
        "core.migrate_retries",
        "count",
        traced.migrate_retries as f64,
    );
    put(
        "core.migrate_rolled_back",
        "count",
        count(traced.migrate_rolled_back),
    );
    put("core.recovery_ratio", "ratio", traced.recovery_ratio);
    put(
        "core.handover_reduction",
        "ratio",
        traced.handover_reduction,
    );

    put("exec.threads", "count", count(threads));
    // Worker-thread time (map_indexed busy time plus lock-step team
    // lifetime) over the thread capacity of the plan phase.
    let worker_s =
        (traced.counters.worker_busy_ns + traced.counters.worker_lifetime_ns) as f64 * 1e-9;
    put(
        "exec.worker_busy_frac",
        "ratio",
        worker_s / (threads as f64 * traced.plan_s()),
    );
    let (speedup, same) = team_speedup(inputs, market, sm, untraced, threads);
    checks.push(("1-thread and multi-thread planning passes agree", same));
    put("exec.team_speedup", "ratio", speedup);

    let untraced_total = median(untraced.iter().map(Iteration::total_s).collect());
    put(
        "obs.trace_overhead_frac",
        "ratio",
        traced.total_s() / untraced_total - 1.0,
    );
    m
}

/// The store and neighbor blobs to decode: the warm workload's cache
/// files as written, or this market's store encoded in memory.
fn blobs(inputs: &Inputs, store: &PathLossStore) -> (Vec<u8>, Vec<u8>) {
    if let Some(dir) = &inputs.cache_dir {
        let read = |ext: &str| {
            std::fs::read_dir(dir)
                .ok()
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.path())
                .find(|p| p.extension().is_some_and(|e| e == ext))
                .and_then(|p| std::fs::read(p).ok())
        };
        if let (Some(s), Some(n)) = (read("mpl2"), read("mnb1")) {
            return (s, n);
        }
    }
    (
        encode_store(store).to_vec(),
        encode_neighbors(&store.neighbor_index()).to_vec(),
    )
}

struct ProbeMix {
    probes: f64,
    seconds: f64,
    cells: f64,
    restored: bool,
}

/// Probes the hill-climber's candidate mix over the first sectors after a
/// warm-up pass, until [`PROBE_BUDGET_S`] has elapsed.
fn probe_mix(ev: &Evaluator, state: &ModelState, kind: magus_model::UtilityKind) -> ProbeMix {
    let cands = candidates(ev, state);
    let mut replica = state.clone();
    for &ch in &cands {
        let _ = ev.probe_objective(&mut replica, ch, kind);
    }
    let sweep = magus_obs::registry().counter("evaluator.sweep_cells");
    let cells0 = sweep.get();
    let t0 = Instant::now();
    let mut probes = 0usize;
    while probes == 0 || t0.elapsed().as_secs_f64() < PROBE_BUDGET_S {
        for &ch in &cands {
            std::hint::black_box(ev.probe_objective(&mut replica, ch, kind));
        }
        probes += cands.len();
    }
    let seconds = t0.elapsed().as_secs_f64();
    ProbeMix {
        probes: probes.max(1) as f64,
        seconds,
        cells: (sweep.get() - cells0) as f64,
        restored: replica.bit_fingerprint() == state.bit_fingerprint(),
    }
}

/// ±1 dB power and ±1 tilt step on each on-air sector of the first
/// [`PROBE_SECTORS`].
fn candidates(ev: &Evaluator, state: &ModelState) -> Vec<ConfigChange> {
    let mut out = Vec::new();
    for s in 0..state.num_sectors().min(PROBE_SECTORS) as u32 {
        let id = SectorId(s);
        let sc = state.config().sector(id);
        if !sc.on_air {
            continue;
        }
        let mut c = vec![
            ConfigChange::PowerDelta(id, Db(1.0)),
            ConfigChange::PowerDelta(id, Db(-1.0)),
        ];
        if sc.tilt > 0 {
            c.push(ConfigChange::SetTilt(id, sc.tilt - 1));
        }
        if sc.tilt + 1 < NUM_TILT_SETTINGS {
            c.push(ConfigChange::SetTilt(id, sc.tilt + 1));
        }
        out.extend(
            c.into_iter()
                .filter(|&ch| state.config().would_change(ev.network(), ch)),
        );
    }
    out
}

/// The planning pass at one thread against the untraced median at
/// `threads`, with tracing off. Returns the speed-up and whether both
/// passes reached the same `C_before`.
fn team_speedup(
    inputs: &Inputs,
    market: &Market,
    sm: &StandardModel,
    untraced: &[Iteration],
    threads: usize,
) -> (f64, bool) {
    let level = magus_obs::level();
    magus_obs::set_level(magus_obs::ObsLevel::Off);
    magus_exec::set_threads(1);
    let (prepared, one_s) = time(|| prepare_scenario(sm, market, SCENARIO, &inputs.cfg));
    magus_exec::set_threads(threads);
    magus_obs::set_level(level);
    let many_s = median(
        untraced
            .iter()
            .map(|it| it.spans.get("core.prepare_s"))
            .collect(),
    );
    let same = untraced
        .iter()
        .all(|it| it.before_bits == prepared.before.get(inputs.cfg.search.utility).to_bits());
    (one_s / many_s, same)
}
