//! Both search entry points report what they did: every call is timed
//! into `baton_search_duration_seconds` (failed searches included), and the
//! run counters account for every enumerated candidate.
//!
//! The metrics registry and the run counters are process-global, so the
//! tests hold [`SERIAL`]: no sibling search can land in a measurement
//! window.

use std::sync::{Mutex, MutexGuard, PoisonError};

use baton_arch::{presets, Technology};
use baton_c3p::{search_layer_k_best, search_layer_with, Objective};
use baton_mapping::enumerate::{candidates, EnumOptions};
use baton_model::{zoo, ConvSpec};
use baton_telemetry::metrics::{self, SeriesValue};
use baton_telemetry::{counters, Counter};

/// Serializes the tests that measure process-global state.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a sibling's failed assertion must not poison it.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Observations recorded so far for `objective`.
fn observations(objective: Objective) -> u64 {
    metrics::registry()
        .snapshot()
        .into_iter()
        .filter(|f| f.name == "baton_search_duration_seconds")
        .flat_map(|f| f.series)
        .filter(|(labels, _)| labels.iter().any(|(_, v)| v == objective.label()))
        .map(|(_, v)| match v {
            SeriesValue::Histogram(h) => h.count(),
            _ => 0,
        })
        .sum()
}

#[test]
fn failed_searches_add_one_observation_per_call() {
    let _serial = serial();
    metrics::reset();
    metrics::enable();
    let mut arch = presets::case_study_accelerator();
    // An O-L2 too small for any candidate's output tile.
    arch.chiplet.o_l2_bytes = 1;
    let tech = Technology::paper_16nm();
    let layer = ConvSpec::new("tiny", 14, 14, 32, 3, 1, 1, 64).unwrap();
    let objective = Objective::Energy;

    assert_eq!(observations(objective), 0);
    search_layer_k_best(&layer, &arch, &tech, objective, 3).unwrap_err();
    assert_eq!(observations(objective), 1, "k-best failure not timed");
    search_layer_with(&layer, &arch, &tech, objective, EnumOptions::default()).unwrap_err();
    assert_eq!(observations(objective), 2, "search failure not timed");
    metrics::reset();
}

#[test]
fn k_best_counters_account_for_every_candidate() {
    let _serial = serial();
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    let layer = zoo::darknet19(224).layer("conv9").cloned().unwrap();
    let enumerated = candidates(&layer, &arch).len() as u64;
    for threads in [1usize, 4] {
        baton_parallel::configure_threads(Some(threads));
        // Counters only advance while a session is attached.
        let session = baton_telemetry::attach_with_sink(&Default::default(), None);
        search_layer_k_best(&layer, &arch, &tech, Objective::Energy, 3).unwrap();
        let c = counters::snapshot();
        drop(session);
        baton_parallel::configure_threads(None);
        let (evaluated, pruned) = (c.get(Counter::Evaluations), c.get(Counter::SearchPruned));
        let undecomposable = c.rejects_plane() + c.rejects_buffer();
        assert!(
            pruned > 0,
            "threads={threads}: the k-th-best bound pruned nothing"
        );
        assert_eq!(
            evaluated + pruned + undecomposable,
            enumerated,
            "threads={threads}: evaluated {evaluated} + pruned {pruned} + undecomposable {undecomposable}"
        );
    }
}
