//! Property test: the batched struct-of-arrays search engine is
//! bit-identical to the scalar reference scan.
//!
//! [`search_layer_with`] runs the production path — visitor enumeration
//! into reused buffers, per-geometry memoization, struct-of-arrays floor
//! lanes, streaming penalty resolution, branch-and-bound pruning against a
//! shared incumbent, chunked fan-out. [`search_layer_reference`] is the
//! naive ground truth: materialize candidates, `decompose` + full profile
//! build each, first-wins argmin. For every generated layer, enumeration
//! option set, objective, and thread count, winner and score must agree
//! exactly (`Evaluation` equality is field-wise over exact `u64`/`f64`
//! values — no tolerance), and the infeasible case must produce the same
//! `SearchError`.

use baton_arch::{presets, PackageConfig, Technology};
use baton_c3p::{
    evaluate, search_layer_k_best, search_layer_reference, search_layer_with, Evaluation, Objective,
};
use baton_mapping::enumerate::{candidates, EnumOptions};
use baton_mapping::RotationMode;
use baton_model::ConvSpec;
use proptest::prelude::*;

/// Enumeration option sets with `'static` ladders, exercising sparse and
/// dense tilings and both rotation-membership shapes.
const OPTION_SETS: [EnumOptions; 3] = [
    EnumOptions {
        plane_fractions: &[1, 2, 4, 8, 16, 32],
        co_fractions: &[1, 2, 4],
        rotations: &[RotationMode::Ring, RotationMode::DramOnly],
    },
    EnumOptions {
        plane_fractions: &[1, 4],
        co_fractions: &[1, 2],
        rotations: &[RotationMode::Ring],
    },
    EnumOptions {
        plane_fractions: &[1, 2, 8],
        co_fractions: &[1],
        rotations: &[RotationMode::DramOnly],
    },
];

const OBJECTIVES: [Objective; 3] = [Objective::Energy, Objective::Edp, Objective::Runtime];

/// Bounded random conv layers: planes 7..=40, kernels 1/3/5, strides 1..=2,
/// channel counts that cross the lane/vector boundaries of the case-study
/// machine. Invalid shapes (kernel exceeding the padded input) are
/// rejected by `ConvSpec::new` and filtered out of the draw.
fn layers() -> impl Strategy<Value = ConvSpec> {
    (
        7u32..=40,  // hi == wi
        1u32..=96,  // ci
        0usize..3,  // kernel index -> {1, 3, 5}
        1u32..=2,   // stride
        0u32..=2,   // pad
        1u32..=128, // co
    )
        .prop_filter_map("valid conv shape", |(hw, ci, ki, stride, pad, co)| {
            let k = [1u32, 3, 5][ki];
            ConvSpec::new("prop", hw, hw, ci, k, stride, pad, co).ok()
        })
}

fn setup() -> (PackageConfig, Technology) {
    (presets::case_study_accelerator(), Technology::paper_16nm())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn batched_search_is_bit_identical_to_the_reference(
        layer in layers(),
        opt_idx in 0usize..3,
        obj_idx in 0usize..3,
    ) {
        let (arch, tech) = setup();
        let opts = OPTION_SETS[opt_idx];
        let objective = OBJECTIVES[obj_idx];
        let want = search_layer_reference(&layer, &arch, &tech, objective, opts);
        for threads in [1usize, 4] {
            baton_parallel::configure_threads(Some(threads));
            let got = search_layer_with(&layer, &arch, &tech, objective, opts);
            baton_parallel::configure_threads(None);
            prop_assert_eq!(
                &want, &got,
                "threads={} objective={:?} opts={} layer={:?}",
                threads, objective, opt_idx, layer
            );
        }
    }

    #[test]
    fn k_best_head_matches_the_reference_winner(
        layer in layers(),
    ) {
        // The k-best path shares the batch engine with a k-th-best bound;
        // its head must be the reference winner whenever one exists.
        let (arch, tech) = setup();
        let objective = Objective::Energy;
        let want = search_layer_reference(
            &layer, &arch, &tech, objective, EnumOptions::default(),
        );
        for threads in [1usize, 4] {
            baton_parallel::configure_threads(Some(threads));
            let got = baton_c3p::search_layer_k_best(&layer, &arch, &tech, objective, 3);
            baton_parallel::configure_threads(None);
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    prop_assert!(!g.is_empty());
                    prop_assert_eq!(w, &g[0], "threads={}", threads);
                }
                (Err(w), Err(g)) => prop_assert_eq!(w, g),
                (w, g) => prop_assert!(
                    false,
                    "feasibility disagreement: reference={:?} k_best={:?}",
                    w.is_ok(), g.is_ok()
                ),
            }
        }
    }

    #[test]
    fn k_best_ranking_matches_a_stable_sort_of_the_scalar_scan(
        layer in layers(),
        obj_idx in 0usize..3,
        k in 1usize..=12,
    ) {
        // The whole ranking, not just its head: every feasible candidate
        // scored through the materialized chain in candidate order, then
        // stably sorted (ties keep candidate order) and truncated to `k`.
        let (arch, tech) = setup();
        let objective = OBJECTIVES[obj_idx];
        let mut scan: Vec<(f64, Evaluation)> = candidates(&layer, &arch)
            .iter()
            .filter_map(|m| evaluate(&layer, &arch, &tech, m).ok())
            .map(|ev| (objective.score(&ev, &tech), ev))
            .collect();
        scan.sort_by(|a, b| a.0.total_cmp(&b.0));
        scan.truncate(k);
        let want: Vec<Evaluation> = scan.into_iter().map(|(_, ev)| ev).collect();
        for threads in [1usize, 4] {
            baton_parallel::configure_threads(Some(threads));
            let got = search_layer_k_best(&layer, &arch, &tech, objective, k);
            baton_parallel::configure_threads(None);
            match got {
                Ok(got) => prop_assert_eq!(
                    &want, &got,
                    "threads={} objective={:?} k={}", threads, objective, k
                ),
                Err(_) => prop_assert!(want.is_empty(), "k-best found nothing, the scan did"),
            }
        }
    }
}

/// The bounded k-best prunes only candidates whose floor is strictly above
/// the shared k-th score. Under the runtime objective thousands of
/// candidates share the fastest cycle count and sit exactly on their
/// floors, so ranks `k` and `k + 1` tie; the ranking must still equal a
/// stable sort of the scalar scan, ties in candidate order.
#[test]
fn k_best_keeps_candidate_order_across_a_runtime_tie_at_rank_k() {
    let (arch, tech) = setup();
    let layer = ConvSpec::new("tiny", 14, 14, 32, 3, 1, 1, 64).unwrap();
    let (objective, k) = (Objective::Runtime, 8);
    let mut scan: Vec<(f64, Evaluation)> = candidates(&layer, &arch)
        .iter()
        .filter_map(|m| evaluate(&layer, &arch, &tech, m).ok())
        .map(|ev| (objective.score(&ev, &tech), ev))
        .collect();
    scan.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(scan[k - 1].0, scan[k].0, "ranks k and k + 1 must tie");
    scan.truncate(k);
    let want: Vec<Evaluation> = scan.into_iter().map(|(_, ev)| ev).collect();
    for threads in [1usize, 4] {
        baton_parallel::configure_threads(Some(threads));
        let got = search_layer_k_best(&layer, &arch, &tech, objective, k);
        baton_parallel::configure_threads(None);
        assert_eq!(Ok(want.clone()), got, "threads={threads}");
    }
}

/// The infeasible-machine path must agree too: same `SearchError` fields
/// (layer name and candidate count) from both engines.
#[test]
fn infeasible_machines_return_identical_errors() {
    let (mut arch, tech) = setup();
    arch.chiplet.o_l2_bytes = 1;
    let layer = ConvSpec::new("tiny", 14, 14, 32, 3, 1, 1, 64).unwrap();
    let want = search_layer_reference(&layer, &arch, &tech, Objective::Energy, {
        EnumOptions::default()
    })
    .unwrap_err();
    for threads in [1usize, 4] {
        baton_parallel::configure_threads(Some(threads));
        let got = search_layer_with(&layer, &arch, &tech, Objective::Energy, {
            EnumOptions::default()
        })
        .unwrap_err();
        baton_parallel::configure_threads(None);
        assert_eq!(want, got, "threads={threads}");
    }
}
