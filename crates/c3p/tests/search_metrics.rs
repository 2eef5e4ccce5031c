//! Both search entry points time every call into
//! `baton_search_duration_seconds`, failed searches included.
//!
//! The metrics registry is process-global, so this binary holds a single
//! test: no sibling search can land in its observation window.

use baton_arch::{presets, Technology};
use baton_c3p::{search_layer_k_best, search_layer_with, Objective};
use baton_mapping::enumerate::EnumOptions;
use baton_model::ConvSpec;
use baton_telemetry::metrics::{self, SeriesValue};

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
