//! `map-zoo`: the post-design flow as a one-caller closed loop. Each op maps
//! the five zoo models at 224, one `dse::map_model` call each, on the
//! case-study machine with one worker thread, in an order shuffled per op
//! from the seed; ops repeat until the time is up.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use nn_baton::arch::{presets, PackageConfig, Technology};
use nn_baton::c3p::{search_layer_memo, Objective, SearchMemo};
use nn_baton::dse::{self, ModelReport};
use nn_baton::mapping::enumerate::{visit_candidates, EnumOptions};
use nn_baton::mapping::verify_coverage;
use nn_baton::model::Model;
use nn_baton::telemetry::{self, alloc, counters, Counter};

use crate::calib::{self, Calibrator};
use crate::stats::{self, pct, Rng};
use crate::{Args, Report};

/// Cold set-ups measured per run, each in a fresh process and each ahead of
/// its own share of the timed window; the median is reported.
const SETUP_PROCESSES: u32 = 8;

/// What a one-shot CLI user pays before the first answer: build the models
/// and map each once, in a process that has mapped nothing yet. Normalized
/// to the reference host speed by kernel samples on either side.
pub fn cold_setup_s() -> f64 {
    let cal = Calibrator::default();
    let before = cal.sample_ms();
    let t0 = Instant::now();
    nn_baton::parallel::configure_threads(Some(1));
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    for model in crate::zoo_224() {
        black_box(dse::map_model(&model, &arch, &tech).expect("zoo models map"));
    }
    let s = t0.elapsed().as_secs_f64();
    calib::normalize(s, before, cal.sample_ms())
}

struct Machine {
    arch: PackageConfig,
    tech: Technology,
}

/// The per-op outputs check: every winner covers its layer exactly and has
/// finite positive energy and cycles.
fn check_report(model: &Model, r: &ModelReport, m: &Machine, report: &mut Report) {
    report.check(r.layers.len() == model.layers().len(), || {
        format!(
            "{}: {} of {} layers mapped",
            model.name(),
            r.layers.len(),
            model.layers().len()
        )
    });
    for (layer, l) in model.layers().iter().zip(&r.layers) {
        let ev = &l.evaluation;
        let energy = ev.energy.total_pj();
        report.check(energy.is_finite() && energy > 0.0 && ev.cycles > 0, || {
            format!(
                "{}/{}: energy {energy} pJ, {} cycles",
                model.name(),
                l.layer,
                ev.cycles
            )
        });
        report.check(
            verify_coverage(layer, &m.arch, &ev.mapping).is_exact(),
            || {
                format!(
                    "{}/{}: winner does not cover the layer exactly",
                    model.name(),
                    l.layer
                )
            },
        );
    }
}

/// Closed-loop ops until `window` has passed. One op maps every zoo model
/// once, in a fresh seeded order; its latency is the time spent inside the
/// five `map_model` calls. Every result must equal `reference`; `per_model`
/// sees each model with its own latency in ms. With a calibrator,
/// each call is bracketed by kernel samples and the latencies are
/// normalized to the reference host speed.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    models: &[Model],
    reference: &[ModelReport],
    m: &Machine,
    rng: &mut Rng,
    window: Duration,
    cal: Option<&Calibrator>,
    report: &mut Report,
    mut per_model: impl FnMut(&Model, f64),
) -> Vec<f64> {
    let mut lat = Vec::new();
    let t0 = Instant::now();
    let mut order: Vec<usize> = (0..models.len()).collect();
    while lat.is_empty() || t0.elapsed() < window {
        rng.shuffle(&mut order);
        let mut op_ms = 0.0;
        let mut same = true;
        let mut before = cal.map(Calibrator::sample_ms);
        for &i in &order {
            let t = Instant::now();
            let result = dse::map_model(&models[i], &m.arch, &m.tech);
            let mut ms = t.elapsed().as_secs_f64() * 1e3;
            if let (Some(cal), Some(b)) = (cal, before) {
                let after = cal.sample_ms();
                ms = calib::normalize(ms, b, after);
                before = Some(after);
            }
            op_ms += ms;
            same &= matches!(&result, Ok(r) if *r == reference[i]);
            per_model(&models[i], ms);
        }
        lat.push(op_ms);
        report.op(same, || {
            "a model's result differs from its first mapping".into()
        });
    }
    lat
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    nn_baton::parallel::configure_threads(Some(1));
    let m = Machine {
        arch: presets::case_study_accelerator(),
        tech: Technology::paper_16nm(),
    };
    let models = crate::zoo_224();
    // The first mapping of each model is the reference every later one
    // must equal.
    let mut reference = Vec::with_capacity(models.len());
    for model in &models {
        let r = dse::map_model(model, &m.arch, &m.tech).map_err(|e| e.to_string())?;
        check_report(model, &r, &m, report);
        reference.push(r);
    }
    let t = Instant::now();
    let gap = crate::des_gap_mean(&models, &reference)?;
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut rng = Rng::new(args.seed);
    let window = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        // Every time is normalized to the reference host speed (see
        // `calib`). The set-up probes are spread over the run, one ahead of
        // each share of the window.
        let cal = Calibrator::default();
        let mut lat = Vec::new();
        let mut setups = Vec::new();
        for _ in 0..SETUP_PROCESSES {
            setups.push(crate::setup_probe("map-zoo")?);
            let share = window / SETUP_PROCESSES;
            let ops = closed_loop(
                &models,
                &reference,
                &m,
                &mut rng,
                share,
                Some(&cal),
                report,
                |_, _| {},
            );
            lat.extend(ops);
        }
        let busy_s = lat.iter().sum::<f64>() / 1e3;
        report.set("setup_s", pct(&setups, 50.0));
        report.set("ops_per_s", (lat.len() * models.len()) as f64 / busy_s);
        report.set("p90_ms", pct(&lat, 90.0));
        report.set("max_rps", lat.len() as f64 / busy_s);
        report.set("peak_rss_mb", crate::self_peak_rss_mb());
        report.set("des_gap_mean", gap);
        return Ok(());
    }

    // Untraced half: the baseline for the overhead, and allocation counts
    // free of telemetry's own allocations.
    let window = window / 2;
    let mut allocs = Vec::new();
    let mut before = alloc::totals().allocs;
    // Allocations per op: one op maps every model once.
    let plain = closed_loop(
        &models,
        &reference,
        &m,
        &mut rng,
        window,
        None,
        report,
        |_, _| {
            let now = alloc::totals().allocs;
            allocs.push((now - before) as f64);
            before = now;
        },
    );

    // Traced half: telemetry session on, phase stats and counters read
    // around each op, and every layer's public entry point timed.
    let session = telemetry::attach_with_sink(&telemetry::TelemetryConfig::default(), None);
    let mut t = Traced::default();
    let t_wall = Instant::now();
    let mut c_before = counters::snapshot();
    let mut search_before = search_phase_us();
    let traced = closed_loop(
        &models,
        &reference,
        &m,
        &mut rng,
        window,
        None,
        report,
        |model, wall| {
            // A model was just mapped: attribute its wall time and counters.
            let search_us = search_phase_us();
            t.self_ms += wall - (search_us - search_before) as f64 / 1e3;
            let c = counters::snapshot().since(&c_before);
            t.generated += c.get(Counter::CandidatesGenerated);
            t.evaluations += c.get(Counter::Evaluations);
            t.memo_hits += c.get(Counter::CacheHit);
            t.memo_misses += c.get(Counter::CacheMiss);
            t.mapped += 1;
            t.timed_ms += wall;
            t.probe(model, &m);
            c_before = counters::snapshot();
            search_before = search_phase_us();
        },
    );
    let traced_wall_ms = t_wall.elapsed().as_secs_f64() * 1e3;
    drop(session);

    // Times are per model mapped; the candidate count is per op.
    let mapped = t.mapped as f64;
    report.set("mapping.enumerate_ms", t.enumerate_ms / mapped);
    report.set(
        "mapping.candidates",
        t.candidates as f64 / traced.len() as f64,
    );
    report.set("c3p.search_ms", t.search_ms / mapped);
    report.set(
        "c3p.ns_per_candidate",
        t.search_ms * 1e6 / t.candidates as f64,
    );
    report.set(
        "c3p.candidates_per_s",
        t.candidates as f64 / (t.search_ms / 1e3),
    );
    report.set(
        "c3p.evals_per_s",
        t.probe_evals as f64 / (t.search_ms / 1e3),
    );
    report.set(
        "c3p.survivor_share",
        t.evaluations as f64 / t.generated as f64,
    );
    report.set(
        "c3p.memo_hit_share",
        t.memo_hits as f64 / (t.memo_hits + t.memo_misses) as f64,
    );
    report.set("dse.map_model_self_ms", t.self_ms / mapped);
    report.set(
        "alloc.allocs_per_op",
        stats::mean(&allocs) * models.len() as f64,
    );
    report.set("sim.replay_ms", replay_ms);
    report.set(
        "model.energy_pj",
        reference.iter().map(|r| r.energy.total_pj()).sum(),
    );
    report.set(
        "model.cycles",
        reference.iter().map(|r| r.cycles as f64).sum(),
    );
    report.set("trace.coverage", t.timed_ms / traced_wall_ms);
    report.set(
        "trace.overhead",
        pct(&traced, 50.0) / pct(&plain, 50.0) - 1.0,
    );
    Ok(())
}

/// Microseconds spent in `search_layer` spans since the session started.
fn search_phase_us() -> u64 {
    telemetry::span::phase_stats()
        .iter()
        .find(|(phase, _)| *phase == "search_layer")
        .map_or(0, |(_, h)| h.sum())
}

/// Accumulators of the traced half.
#[derive(Default)]
struct Traced {
    mapped: u64,
    self_ms: f64,
    timed_ms: f64,
    enumerate_ms: f64,
    search_ms: f64,
    candidates: u64,
    probe_evals: u64,
    generated: u64,
    evaluations: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl Traced {
    /// Times the layers below `map_model` from outside: candidate
    /// enumeration and the memoized search, once per distinct shape, the
    /// way `map_model` meets them.
    fn probe(&mut self, model: &Model, m: &Machine) {
        let memo = SearchMemo::new();
        let mut shapes = HashSet::new();
        for layer in model.layers() {
            if shapes.insert(layer.shape_key()) {
                let mut n = 0u64;
                let t = Instant::now();
                visit_candidates(layer, &m.arch, EnumOptions::default(), |_, mapping| {
                    black_box(mapping);
                    n += 1;
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                self.enumerate_ms += ms;
                self.timed_ms += ms;
                self.candidates += n;
            }
            let evals = counters::snapshot().get(Counter::Evaluations);
            let t = Instant::now();
            let r = search_layer_memo(
                &memo,
                layer,
                &m.arch,
                &m.tech,
                Objective::Energy,
                EnumOptions::default(),
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            black_box(r.ok());
            self.probe_evals += counters::snapshot().get(Counter::Evaluations) - evals;
            self.search_ms += ms;
            self.timed_ms += ms;
        }
    }
}
