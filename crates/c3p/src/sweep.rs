//! Streaming struct-of-arrays repricer for the pre-design memory sweep.
//!
//! A sweep unit only ever asks for accesses at the *rungs of its capacity
//! ladders*, so instead of building [`LayerProfiles`] per candidate (~15
//! allocations) and re-scanning breakpoints at every `(A-L1, W-L1, A-L2)`
//! grid cell, this module resolves each candidate's capacity-dependent
//! paths once per rung with the shared C³P kernel (`kernel::Paths`) into
//! flat lanes held in a pooled, thread-local [`SweepLanes`]. Repricing a
//! design point then costs five lane lookups, the shared `AccessCounts`
//! assembly, and the energy/runtime models; steady-state units allocate
//! nothing.
//!
//! Bit-identity with the materialized chain (`LayerProfiles::build` +
//! [`resolve_at_capacities`]) is pinned by the tests below and by the
//! differential sweep-equivalence harness; counter semantics match one
//! [`baton_mapping::decompose()`] call per pushed candidate and one
//! penalty-counter check per scored point.
//!
//! [`LayerProfiles`]: crate::evaluate::LayerProfiles
//! [`resolve_at_capacities`]: crate::evaluate::resolve_at_capacities

use std::cell::RefCell;

use baton_arch::{PackageConfig, Technology};
use baton_mapping::{Mapping, NestScratch, Volumes};
use baton_model::ConvSpec;

use crate::evaluate::{price, runtime_bound};
use crate::kernel::{GeomMemo, Paths, Pooled, Resolved};

/// Per-candidate scalar metadata, kept alongside the resolved lanes.
#[derive(Debug, Clone, Copy)]
struct CandMeta {
    /// Package-wide base volumes under the candidate's rotation mode.
    v: Volumes,
    /// Cores receiving each A-L2 multicast (A-L1 fill factor).
    fill_streams: u64,
    /// Cores sharing one weight stream (effective W-L1 pool share).
    plane_ways: u64,
    /// Ideal compute cycles of the candidate.
    compute_cycles: u64,
    /// A-L1 feasibility floor in bytes.
    a_l1_floor: u64,
    /// O-L2 feasibility floor in bytes.
    o_l2_floor: u64,
}

/// Struct-of-arrays rung lanes for one sweep unit's candidate set.
///
/// Acquire via [`sweep_lanes_for`]; every buffer is cleared with capacity
/// kept, so a worker that processes many `(geometry, O-L1)` units reaches a
/// zero-allocation steady state. Candidate-major layout: candidate `i`'s
/// resolved accesses at ladder rung `r` live at `i * rungs + r`.
#[derive(Debug, Default)]
pub struct SweepLanes {
    /// A-L1 capacity ladder in bytes.
    a_l1: Vec<u64>,
    /// W-L1 capacity ladder in bytes.
    w_l1: Vec<u64>,
    /// A-L2 capacity ladder in bytes.
    a_l2: Vec<u64>,
    /// `lanes * vector * 8` of the machine: the minimum effective W-L1
    /// capacity in bits below which a stream cannot hold one weight chunk.
    min_w_bits: u64,
    /// Per-candidate metadata.
    meta: Vec<CandMeta>,
    /// DRAM input reads per A-L2 rung (stride `a_l2.len()`).
    dram_input: Vec<u64>,
    /// Ring (D2D) input traffic per A-L2 rung (stride `a_l2.len()`).
    d2d_input: Vec<u64>,
    /// A-L2 to bus reads per A-L1 rung (stride `a_l1.len()`).
    a_l2_read: Vec<u64>,
    /// DRAM weight reads per W-L1 rung (stride `w_l1.len()`).
    dram_weight: Vec<u64>,
    /// Ring (D2D) weight traffic per W-L1 rung (stride `w_l1.len()`).
    d2d_weight: Vec<u64>,
    /// Geometry memo of the current unit.
    pub(crate) geoms: GeomMemo,
    /// Reusable nest/footprint buffers for the resolution walks.
    nest: NestScratch,
}

impl SweepLanes {
    /// Prepares the lanes for a new unit: installs the capacity ladders and
    /// clears candidates and the geometry memo, keeping every capacity.
    fn reset(&mut self, a_l1: &[u64], w_l1: &[u64], a_l2: &[u64], min_w_bits: u64) {
        self.a_l1.clear();
        self.a_l1.extend_from_slice(a_l1);
        self.w_l1.clear();
        self.w_l1.extend_from_slice(w_l1);
        self.a_l2.clear();
        self.a_l2.extend_from_slice(a_l2);
        self.min_w_bits = min_w_bits;
        self.meta.clear();
        self.dram_input.clear();
        self.d2d_input.clear();
        self.a_l2_read.clear();
        self.dram_weight.clear();
        self.d2d_weight.clear();
        self.geoms.clear();
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether no candidate has been pushed (or all were rejected).
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Decomposes one enumerated candidate (through the geometry memo) and
    /// resolves its capacity-dependent paths at every ladder rung. Returns
    /// `false` if the mapping is illegal for the layer/machine pair.
    ///
    /// The per-rung values are bit-identical to
    /// [`resolve_at_capacities`](crate::evaluate::resolve_at_capacities) on
    /// the materialized profiles: same sliced footprints, same walk, same
    /// saturating products.
    pub fn push_candidate(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        geom_id: u32,
        a_l1_floor: u64,
        o_l2_floor: u64,
    ) -> bool {
        let Ok(geom) = self.geoms.get(layer, arch, mapping, geom_id) else {
            return false;
        };
        let paths = Paths::build(&mut self.nest, layer, mapping, &geom);
        let plane_ways = u64::from(geom.plane_ways());
        for &cap in &self.a_l2 {
            let (dram, d2d) = paths.inputs(cap * 8);
            self.dram_input.push(dram);
            self.d2d_input.push(d2d);
        }
        for &cap in &self.a_l1 {
            self.a_l2_read.push(paths.a_l2_read(cap * 8));
        }
        for &cap in &self.w_l1 {
            let (dram, d2d) = paths.weights(plane_ways * cap * 8);
            self.dram_weight.push(dram);
            self.d2d_weight.push(d2d);
        }
        self.meta.push(CandMeta {
            v: paths.v,
            fill_streams: u64::from(geom.weight_streams()),
            plane_ways,
            compute_cycles: geom.compute_cycles(),
            a_l1_floor,
            o_l2_floor,
        });
        true
    }

    /// Compacts the candidate set to the `keep`-flagged subset, preserving
    /// order (the corner-pruning survivor filter). In place, no allocation.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.meta.len(), "one flag per candidate");
        let (na1, nw1, na2) = (self.a_l1.len(), self.w_l1.len(), self.a_l2.len());
        let mut w = 0usize;
        for (r, &k) in keep.iter().enumerate() {
            if !k {
                continue;
            }
            if w != r {
                self.meta[w] = self.meta[r];
                self.dram_input.copy_within(r * na2..(r + 1) * na2, w * na2);
                self.d2d_input.copy_within(r * na2..(r + 1) * na2, w * na2);
                self.a_l2_read.copy_within(r * na1..(r + 1) * na1, w * na1);
                self.dram_weight
                    .copy_within(r * nw1..(r + 1) * nw1, w * nw1);
                self.d2d_weight.copy_within(r * nw1..(r + 1) * nw1, w * nw1);
            }
            w += 1;
        }
        self.meta.truncate(w);
        self.dram_input.truncate(w * na2);
        self.d2d_input.truncate(w * na2);
        self.a_l2_read.truncate(w * na1);
        self.dram_weight.truncate(w * nw1);
        self.d2d_weight.truncate(w * nw1);
    }

    /// Scores candidate `i` at the grid cell addressed by ladder rung
    /// indices `(a1, w1, a2)`, on a machine whose buffer capacities already
    /// match those rungs. Returns `(total energy pJ, cycles)`, or `None` if
    /// the candidate is infeasible at this cell.
    ///
    /// The check order (floors, then stream width, then resolution) and the
    /// penalty-counter conditions replicate the materialized scoring chain
    /// exactly, so the counter stream is identical point for point.
    pub fn score(
        &self,
        i: usize,
        (a1, w1, a2): (usize, usize, usize),
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Option<(f64, u64)> {
        let m = &self.meta[i];
        let a_l1 = self.a_l1[a1];
        let w_l1 = self.w_l1[w1];
        debug_assert_eq!(a_l1, arch.chiplet.core.a_l1_bytes);
        debug_assert_eq!(w_l1, arch.chiplet.core.w_l1_bytes);
        debug_assert_eq!(self.a_l2[a2], arch.chiplet.a_l2_bytes);
        if m.a_l1_floor > a_l1 || m.o_l2_floor > arch.chiplet.o_l2_bytes {
            return None;
        }
        let eff_w = m.plane_ways * w_l1 * 8;
        if self.min_w_bits > eff_w {
            return None;
        }
        let (na1, nw1, na2) = (self.a_l1.len(), self.w_l1.len(), self.a_l2.len());
        let resolved = Resolved {
            inputs: (self.dram_input[i * na2 + a2], self.d2d_input[i * na2 + a2]),
            a_l2_read: self.a_l2_read[i * na1 + a1],
            weights: (
                self.dram_weight[i * nw1 + w1],
                self.d2d_weight[i * nw1 + w1],
            ),
        };
        let access = resolved.access_counts(&m.v, m.fill_streams);
        let energy = price(&access, arch, tech);
        let (cycles, _) = runtime_bound(m.compute_cycles, &access, arch, tech);
        Some((energy.total_pj(), cycles))
    }
}

thread_local! {
    /// Retired lane sets, reused by later sweep units on the same thread.
    /// One worker holds one checked-out `SweepLanes` per distinct layer
    /// shape of its current unit, so the pool depth settles at the shape
    /// count and steady-state units allocate nothing.
    static LANES_POOL: RefCell<Vec<SweepLanes>> = const { RefCell::new(Vec::new()) };
}

/// A [`SweepLanes`] checked out of the thread-local pool; returns itself on
/// drop.
pub type PooledLanes = Pooled<SweepLanes>;

/// Checks a lane set out of the thread-local pool (allocating a fresh one
/// only if the pool is empty) and installs the unit's capacity ladders
/// (bytes) and minimum stream width (`lanes * vector * 8` bits).
pub fn sweep_lanes_for(a_l1: &[u64], w_l1: &[u64], a_l2: &[u64], min_w_bits: u64) -> PooledLanes {
    let mut s = Pooled::take(&LANES_POOL);
    s.reset(a_l1, w_l1, a_l2, min_w_bits);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{resolve_at_capacities, LayerProfiles};
    use baton_arch::presets;
    use baton_mapping::enumerate::{enumerate_into, EnumOptions};
    use baton_model::zoo;

    const A_L1: [u64; 3] = [1024, 8 * 1024, 128 * 1024];
    const W_L1: [u64; 3] = [2 * 1024, 18 * 1024, 256 * 1024];
    const A_L2: [u64; 2] = [32 * 1024, 256 * 1024];

    #[test]
    fn lane_scores_match_the_materialized_chain_bit_for_bit() {
        // The pinned contract: per-rung lane resolution + `score` ==
        // `LayerProfiles::build` + `resolve_at_capacities` + `price` +
        // `runtime_bound`, exactly, at every grid cell.
        let mut arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let min_w = u64::from(arch.chiplet.core.lanes) * u64::from(arch.chiplet.core.vector) * 8;
        for (bucket, layer) in zoo::representative_layers(224) {
            let (mut cands, mut ids) = (Vec::new(), Vec::new());
            enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
            let mut lanes = sweep_lanes_for(&A_L1, &W_L1, &A_L2, min_w);
            let mut kept: Vec<Mapping> = Vec::new();
            for (m, &gid) in cands.iter().zip(&ids).take(256) {
                if lanes.push_candidate(&layer, &arch, m, gid, 0, 0) {
                    kept.push(*m);
                } else {
                    assert!(
                        baton_mapping::decompose(&layer, &arch, m).is_err(),
                        "{bucket}"
                    );
                }
            }
            assert!(!kept.is_empty(), "{bucket}: no decomposable candidates");
            let mut checked = 0u32;
            for (i, m) in kept.iter().enumerate() {
                let d = baton_mapping::decompose(&layer, &arch, m).unwrap();
                let p = LayerProfiles::build(&d);
                for (a1, &a_l1) in A_L1.iter().enumerate() {
                    for (w1, &w_l1) in W_L1.iter().enumerate() {
                        for (a2, &a_l2) in A_L2.iter().enumerate() {
                            arch.chiplet.core.a_l1_bytes = a_l1;
                            arch.chiplet.core.w_l1_bytes = w_l1;
                            arch.chiplet.a_l2_bytes = a_l2;
                            let eff_w = u64::from(d.plane_ways) * w_l1 * 8;
                            let got = lanes.score(i, (a1, w1, a2), &arch, &tech);
                            if min_w > eff_w {
                                assert!(got.is_none(), "{bucket}: {m:?}");
                                continue;
                            }
                            let access = resolve_at_capacities(&d, &p, a_l1 * 8, a_l2 * 8, eff_w);
                            let energy = price(&access, &arch, &tech);
                            let (cycles, _) =
                                runtime_bound(d.compute_cycles, &access, &arch, &tech);
                            assert_eq!(
                                got,
                                Some((energy.total_pj(), cycles)),
                                "{bucket}: {m:?} cell ({a1},{w1},{a2})"
                            );
                            checked += 1;
                        }
                    }
                }
            }
            assert!(checked > 64, "{bucket}: only {checked} cells compared");
        }
    }

    #[test]
    fn floors_gate_scoring() {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let (mut cands, mut ids) = (Vec::new(), Vec::new());
        enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
        let ladder = [arch.chiplet.core.a_l1_bytes];
        let w = [arch.chiplet.core.w_l1_bytes];
        let a2 = [arch.chiplet.a_l2_bytes];
        let mut lanes = sweep_lanes_for(&ladder, &w, &a2, 0);
        let (m, gid) = (cands[0], ids[0]);
        // An A-L1 floor above the rung makes the cell infeasible; an O-L2
        // floor above the machine's O-L2 does too.
        assert!(lanes.push_candidate(&layer, &arch, &m, gid, ladder[0] + 1, 0));
        assert!(lanes.push_candidate(&layer, &arch, &m, gid, 0, arch.chiplet.o_l2_bytes + 1));
        assert!(lanes.push_candidate(&layer, &arch, &m, gid, 0, 0));
        assert!(lanes.score(0, (0, 0, 0), &arch, &tech).is_none());
        assert!(lanes.score(1, (0, 0, 0), &arch, &tech).is_none());
        assert!(lanes.score(2, (0, 0, 0), &arch, &tech).is_some());
    }

    #[test]
    fn retain_compacts_in_order() {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let (mut cands, mut ids) = (Vec::new(), Vec::new());
        enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
        let ladder = [arch.chiplet.core.a_l1_bytes];
        let w = [arch.chiplet.core.w_l1_bytes];
        let a2 = [arch.chiplet.a_l2_bytes];
        let mut lanes = sweep_lanes_for(&ladder, &w, &a2, 0);
        let mut pushed = 0usize;
        for (m, &gid) in cands.iter().zip(&ids) {
            if lanes.push_candidate(&layer, &arch, m, gid, 0, 0) {
                pushed += 1;
            }
            if pushed == 5 {
                break;
            }
        }
        assert_eq!(lanes.len(), 5);
        let scores: Vec<_> = (0..5)
            .map(|i| lanes.score(i, (0, 0, 0), &arch, &tech))
            .collect();
        lanes.retain(&[false, true, false, true, true]);
        assert_eq!(lanes.len(), 3);
        for (new_i, old_i) in [1usize, 3, 4].iter().enumerate() {
            assert_eq!(lanes.score(new_i, (0, 0, 0), &arch, &tech), scores[*old_i]);
        }
    }

    #[test]
    fn lanes_pool_round_trips() {
        let a = sweep_lanes_for(&A_L1, &W_L1, &A_L2, 64);
        assert_eq!(a.a_l1.len(), 3);
        drop(a);
        let b = sweep_lanes_for(&A_L2, &A_L2, &A_L2, 64);
        assert_eq!(b.a_l1.len(), 2);
        assert!(b.a_l1.capacity() >= 3, "pool must keep capacity");
    }
}
