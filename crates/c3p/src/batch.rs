//! Batched struct-of-arrays evaluation engine for the search inner loop.
//!
//! Instead of decomposing and materializing `AccessProfile` breakpoints for
//! every candidate (about 1.2k allocations per evaluated mapping, mostly
//! for candidates the branch-and-bound prunes anyway), a chunk is scanned
//! in two phases over a reusable, thread-locally pooled [`BatchScratch`]:
//!
//! 1. **Phase A** resolves each candidate's geometry through the shared
//!    [`GeomMemo`] (one `mapping_geometry` per distinct `geom_id`, replayed
//!    for its up-to-8 order/rotation siblings) and fills flat status and
//!    floor lanes with [`Floors::from_volumes`], the same `f64` path the
//!    scalar search uses, so prune decisions are bit-identical.
//! 2. **Phase B** walks the lanes in candidate order, prunes against the
//!    shared `k`-th-best bound and evaluates survivors with the shared C³P
//!    kernel ([`Paths`]) at the machine's capacities, with zero allocation
//!    beyond the chunk's bounded top-`k` list.
//!
//! The winner-only search is the `k = 1` case, where the bound is the
//! incumbent best score.
//!
//! Counter semantics match the scalar path exactly at one thread:
//! `DecomposeCalls` and the reject counters are bumped per *candidate*,
//! `Evaluations`/penalty counters fire per evaluated survivor,
//! `BestImprovements` fires when the shared bound strictly improves, and
//! prune checks observe the shared bound at the same point in candidate
//! order as the scalar scan.

use std::cell::RefCell;

use baton_arch::{PackageConfig, Technology};
use baton_mapping::{Mapping, MappingGeometry, NestScratch};
use baton_model::ConvSpec;
use baton_parallel::AtomicBest;
use baton_telemetry::{count, Counter};

use crate::bounds::Floors;
use crate::evaluate::{price, runtime_bound, Evaluation};
use crate::kernel::{GeomMemo, Paths, Pooled};
use crate::search::Objective;

/// Reusable struct-of-arrays buffers for one search worker.
///
/// Acquire via [`scratch_for`]; every buffer is cleared with capacity kept,
/// so a worker that processes many chunks (or a calling thread that runs
/// many searches) reaches a zero-allocation steady state.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Geometry memo of the current search.
    pub(crate) geoms: GeomMemo,
    /// Per-candidate lane: `1` if the geometry resolved, `0` if rejected.
    status: Vec<u8>,
    /// Per-candidate lane: the branch-and-bound floor score (lower bound).
    floor_score: Vec<f64>,
    /// The running top-`k` list of the current chunk, best first.
    top: Vec<(f64, Evaluation)>,
    /// Reusable nest/footprint buffers for the evaluation walk.
    nest: NestScratch,
}

/// Aggregated result of one chunk of candidates.
#[derive(Debug, Default)]
pub(crate) struct ChunkOutcome {
    /// The chunk's `k` best `(score, evaluation)` pairs that still tie or
    /// beat the shared bound when the chunk ends, best first, score ties in
    /// candidate order (the cross-chunk ordered merge plus a stable sort
    /// extends that rule).
    pub(crate) top: Vec<(f64, Evaluation)>,
    /// Candidates that were evaluated (decomposable, not pruned).
    pub(crate) feasible: u64,
    /// Candidates discarded because their floor exceeded the bound.
    pub(crate) pruned: u64,
}

impl BatchScratch {
    /// Phase A: resolves each candidate's geometry through the memo and
    /// fills the status lane (`1` legal, `0` rejected) and the floor lane.
    fn fill_lanes(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        cands: &[Mapping],
        geom_ids: &[u32],
    ) {
        debug_assert_eq!(cands.len(), geom_ids.len());
        self.status.clear();
        self.floor_score.clear();
        for (m, &gid) in cands.iter().zip(geom_ids) {
            match self.geoms.get(layer, arch, m, gid) {
                Err(_) => {
                    self.status.push(0);
                    self.floor_score.push(f64::INFINITY);
                }
                Ok(geom) => {
                    let (v, _, _) = geom.volumes_for(m.rotation);
                    let fl = Floors::from_volumes(
                        &v,
                        geom.weight_streams(),
                        geom.compute_cycles(),
                        arch,
                        tech,
                    );
                    self.status.push(1);
                    self.floor_score.push(fl.score(objective, tech));
                }
            }
        }
    }

    /// Bounded, floor-pruned top-`k` scan of one candidate chunk.
    ///
    /// Phase A fills the status/floor lanes; phase B walks them in
    /// candidate order and keeps a sorted top-`k` list. Once the list holds
    /// `k` entries its `k`-th score is offered to the shared `bound`, and a
    /// candidate whose floor is strictly above the bound is skipped: it
    /// scores worse than `k` evaluated candidates, so it cannot rank in the
    /// global top `k`. Ties are never pruned, so the result is exact.
    /// `geom_ids[i]` must be the enumerator's id for `cands[i]`; `k >= 1`.
    #[allow(clippy::too_many_arguments)] // the full search context, passed flat
    pub(crate) fn top_k_chunk(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        k: usize,
        bound: &AtomicBest,
        cands: &[Mapping],
        geom_ids: &[u32],
    ) -> ChunkOutcome {
        debug_assert!(k >= 1);
        self.fill_lanes(layer, arch, tech, objective, cands, geom_ids);
        self.top.clear();
        let mut out = ChunkOutcome::default();
        for (i, m) in cands.iter().enumerate() {
            if self.status[i] == 0 {
                continue;
            }
            // Strict `>`: a floor that merely ties the bound may still tie
            // the `k`-th candidate (floors are exact when no capacity
            // penalty triggers), and ties rank by candidate index.
            if self.floor_score[i] > bound.get() {
                out.pruned += 1;
                continue;
            }
            let geom = self.geoms.resolved(geom_ids[i]);
            let ev = evaluate_streaming(&mut self.nest, layer, arch, tech, m, &geom);
            let score = objective.score(&ev, tech);
            out.feasible += 1;
            // After every equal score: earlier candidates win ties.
            let pos = self
                .top
                .partition_point(|(s, _)| s.total_cmp(&score).is_le());
            if pos >= k {
                continue;
            }
            self.top.insert(pos, (score, ev));
            self.top.truncate(k);
            if self.top.len() == k {
                let kth = self.top[k - 1].0;
                if kth < bound.offer(kth) {
                    count(Counter::BestImprovements);
                }
            }
        }
        // An entry strictly worse than the bound cannot rank: `k` evaluated
        // candidates beat it. A chunk left with nothing allocates nothing.
        let final_bound = bound.get();
        out.top = self
            .top
            .drain(..)
            .filter(|(s, _)| *s <= final_bound)
            .collect();
        out
    }
}

/// Evaluates one survivor with zero allocation: nest into the scratch, the
/// five capacity-dependent paths resolved by the shared kernel at the
/// machine's capacities. Bit-identical to `evaluate_decomposition` on the
/// same mapping (pinned by the equivalence proptest in `tests/`).
fn evaluate_streaming(
    nest: &mut NestScratch,
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    mapping: &Mapping,
    geom: &MappingGeometry,
) -> Evaluation {
    count(Counter::Evaluations);
    let paths = Paths::build(nest, layer, mapping, geom);
    let resolved = paths.resolve(
        arch.chiplet.core.a_l1_bytes * 8,
        arch.chiplet.a_l2_bytes * 8,
        geom.effective_w_l1_bits(),
    );
    let access = resolved.access_counts(&paths.v, u64::from(geom.weight_streams()));
    let energy = price(&access, arch, tech);
    let (cycles, utilization) = runtime_bound(geom.compute_cycles(), &access, arch, tech);
    Evaluation {
        mapping: *mapping,
        access,
        energy,
        compute_cycles: geom.compute_cycles(),
        cycles,
        utilization,
    }
}

thread_local! {
    /// Retired scratches, reused by later searches on the same thread. The
    /// sequential fan-out fast path runs on the calling thread, so repeated
    /// searches there (the steady state `baton bench` measures) hit this
    /// pool and allocate nothing.
    static SCRATCH_POOL: RefCell<Vec<BatchScratch>> = const { RefCell::new(Vec::new()) };
}

/// Checks a scratch out of the thread-local pool (allocating a fresh one
/// only if the pool is empty) with its geometry memo cleared for a new
/// search.
pub(crate) fn scratch_for() -> Pooled<BatchScratch> {
    let mut s = Pooled::take(&SCRATCH_POOL);
    s.geoms.clear();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{evaluate_decomposition, resolve, LayerProfiles};
    use baton_arch::presets;
    use baton_mapping::enumerate::{enumerate_into, EnumOptions};
    use baton_model::zoo;

    #[test]
    fn streaming_evaluation_matches_the_scalar_path_bit_for_bit() {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        for (bucket, layer) in zoo::representative_layers(224) {
            let (mut cands, mut ids) = (Vec::new(), Vec::new());
            enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
            let mut scratch = scratch_for();
            let mut checked = 0u32;
            for (m, &gid) in cands.iter().zip(&ids).take(512) {
                let Ok(geom) = scratch.geoms.get(&layer, &arch, m, gid) else {
                    assert!(
                        baton_mapping::decompose(&layer, &arch, m).is_err(),
                        "{bucket}"
                    );
                    continue;
                };
                let d = baton_mapping::decompose(&layer, &arch, m).unwrap();
                let got = evaluate_streaming(&mut scratch.nest, &layer, &arch, &tech, m, &geom);
                let want = evaluate_decomposition(&d, &arch, &tech, m);
                assert_eq!(got, want, "{bucket}: {m:?}");
                checked += 1;
            }
            assert!(checked > 32, "{bucket}: only {checked} candidates compared");
        }
    }

    #[test]
    fn streaming_resolve_agrees_with_profiles_on_starved_buffers() {
        // Penalties must trigger identically: a tiny A-L2 forces the
        // capacity-dependent multipliers above 1 on most candidates.
        let mut arch = presets::case_study_accelerator();
        arch.chiplet.a_l2_bytes = 2 * 1024;
        arch.chiplet.core.a_l1_bytes = 320;
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let (mut cands, mut ids) = (Vec::new(), Vec::new());
        enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
        let mut scratch = scratch_for();
        let mut penalized = 0u32;
        for (m, &gid) in cands.iter().zip(&ids).take(512) {
            let Ok(geom) = scratch.geoms.get(&layer, &arch, m, gid) else {
                continue;
            };
            let d = baton_mapping::decompose(&layer, &arch, m).unwrap();
            let got = evaluate_streaming(&mut scratch.nest, &layer, &arch, &tech, m, &geom);
            let want = resolve(&d, &LayerProfiles::build(&d), &arch);
            assert_eq!(got.access, want, "{m:?}");
            if want.dram_input_bits > d.volumes.dram_input_base {
                penalized += 1;
            }
        }
        assert!(penalized > 0, "starved machine should trigger penalties");
    }

    #[test]
    fn candidates_tying_the_bound_are_never_pruned() {
        // Another chunk may publish a k-th score that a candidate here
        // merely ties; an earlier candidate still ranks ahead of that
        // chunk's entries, so the prune must be strict. Under the runtime
        // objective the fastest candidates sit exactly on their floors,
        // so a seeded bound at the k-th score must change nothing.
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let layer = ConvSpec::new("tiny", 14, 14, 32, 3, 1, 1, 64).unwrap();
        let (mut cands, mut ids) = (Vec::new(), Vec::new());
        enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
        let k = 4;
        let scan = |scratch: &mut BatchScratch, bound: &AtomicBest| {
            scratch.top_k_chunk(
                &layer,
                &arch,
                &tech,
                Objective::Runtime,
                k,
                bound,
                &cands,
                &ids,
            )
        };
        let mut scratch = scratch_for();
        let free = scan(&mut scratch, &AtomicBest::new());
        assert_eq!(free.top.len(), k);
        let kth = free.top[k - 1].0;
        let on_floor = scratch.floor_score.iter().filter(|&&f| f == kth).count();
        assert!(on_floor > k, "only {on_floor} floors tie the k-th score");

        let bound = AtomicBest::new();
        bound.offer(kth);
        let seeded = scan(&mut scratch, &bound);
        assert_eq!(free.top, seeded.top);
        assert!(seeded.pruned > 0, "the seeded bound must prune something");
    }

    #[test]
    fn scratch_pool_round_trips() {
        let mut a = scratch_for();
        a.status.resize(16, 0);
        a.floor_score.resize(16, 0.0);
        drop(a);
        let b = scratch_for();
        assert!(b.status.capacity() >= 16, "pool must keep capacity");
        assert!(b.floor_score.capacity() >= 16, "pool must keep capacity");
    }
}
