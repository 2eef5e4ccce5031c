//! The allocation-free C³P kernel shared by the production engines.
//!
//! Each capacity-dependent data path is a base volume times the penalties
//! of the reuse regions its buffer fails to cover (§IV-B). [`Paths`] walks
//! one candidate's nest for the five such paths — DRAM and ring inputs vs.
//! A-L2, A-L2 reads vs. A-L1, DRAM and ring weights vs. the effective W-L1
//! — and [`Resolved::access_counts`] assembles the result. The batched
//! search (`crate::batch`) resolves once, at the machine's capacities; the
//! sweep lanes (`crate::sweep`) resolve once per ladder rung and assemble
//! per grid cell. Both engines also share the geometry memo
//! ([`GeomMemo`]) and the thread-local pool guard ([`Pooled`]).
//!
//! The materialized chain (`LayerProfiles::build` +
//! `resolve_at_capacities`) deliberately does not use this module: it is
//! the independent oracle the bit-identity tests compare against.
//!
//! The per-candidate methods are `#[inline]` so the engines, which sit in
//! other modules and so other codegen units, can inline them: the search
//! inner loop measurably slows when they are out-of-line calls.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

use baton_arch::PackageConfig;
use baton_mapping::{
    mapping_geometry, Dim, LoopLevel, Mapping, MappingError, MappingGeometry, NestScratch, Volumes,
};
use baton_model::ConvSpec;
use baton_telemetry::{count, Counter};

use crate::evaluate::AccessCounts;
use crate::walk::c3p_penalty_multiplier;

/// One candidate's nest and base volumes, ready to resolve its five
/// capacity-dependent paths at any capacity.
pub(crate) struct Paths<'a> {
    nest: &'a NestScratch,
    /// Package-wide base volumes under the candidate's rotation mode.
    pub(crate) v: Volumes,
    rotate_inputs: bool,
    rotate_weights: bool,
    n_p: u64,
    /// First nest position above the rotation loop (0 without one).
    cut: usize,
}

impl<'a> Paths<'a> {
    /// Builds `mapping`'s nest into `nest` and derives its volumes.
    #[inline]
    pub(crate) fn build(
        nest: &'a mut NestScratch,
        layer: &ConvSpec,
        mapping: &Mapping,
        geom: &MappingGeometry,
    ) -> Self {
        let (v, rotate_inputs, rotate_weights) = geom.volumes_for(mapping.rotation);
        geom.build_nest_into(layer, mapping, rotate_inputs, rotate_weights, nest);
        let cut = nest
            .loops
            .iter()
            .position(|l| l.level == LoopLevel::Rotation)
            .map_or(0, |p| p + 1);
        Self {
            nest,
            v,
            rotate_inputs,
            rotate_weights,
            n_p: u64::from(geom.n_p()).max(1),
            cut,
        }
    }

    /// DRAM and ring traffic of one operand at `cap` bits. Above the
    /// rotation loop only the home slice (`1/N_P`) of a rotated working set
    /// must stay resident to avoid DRAM reloads; the rest re-arrives over
    /// the ring, which the ring path prices against the full footprint.
    #[inline]
    fn dram_and_ring(
        &self,
        fp: &[u64],
        rotated: bool,
        relevant: impl Fn(Dim) -> bool + Copy,
        cap: u64,
        (dram_base, ring_base): (u64, u64),
    ) -> (u64, u64) {
        let loops = &self.nest.loops;
        let home = |i: usize| {
            if rotated && i >= self.cut {
                fp[i] / self.n_p
            } else {
                fp[i]
            }
        };
        let dram = c3p_penalty_multiplier(loops, home, relevant, cap);
        let ring = c3p_penalty_multiplier(loops, |i| fp[i], relevant, cap);
        (
            dram_base.saturating_mul(dram),
            ring_base.saturating_mul(ring),
        )
    }

    /// DRAM and ring input traffic at an A-L2 capacity of `a_l2_bits`.
    #[inline]
    pub(crate) fn inputs(&self, a_l2_bits: u64) -> (u64, u64) {
        let v = &self.v;
        let bases = (v.dram_input_base, v.d2d_input_base);
        let fp = &self.nest.chiplet_input;
        self.dram_and_ring(
            fp,
            self.rotate_inputs,
            Dim::input_relevant,
            a_l2_bits,
            bases,
        )
    }

    /// A-L2 reads toward the cores at an A-L1 capacity of `a_l1_bits`.
    #[inline]
    pub(crate) fn a_l2_read(&self, a_l1_bits: u64) -> u64 {
        let fp = &self.nest.core_input;
        let m = c3p_penalty_multiplier(&self.nest.loops, |i| fp[i], Dim::input_relevant, a_l1_bits);
        self.v.a_l2_read_base.saturating_mul(m)
    }

    /// DRAM and ring weight traffic at an effective (pool-share) W-L1
    /// capacity of `w_eff_bits`.
    #[inline]
    pub(crate) fn weights(&self, w_eff_bits: u64) -> (u64, u64) {
        let v = &self.v;
        let bases = (v.dram_weight_base, v.d2d_weight_base);
        let fp = &self.nest.stream_weight;
        self.dram_and_ring(
            fp,
            self.rotate_weights,
            Dim::weight_relevant,
            w_eff_bits,
            bases,
        )
    }

    /// All five paths at one `(A-L1, A-L2, effective W-L1)` capacity triple
    /// in bits.
    #[inline]
    pub(crate) fn resolve(&self, a_l1_bits: u64, a_l2_bits: u64, w_eff_bits: u64) -> Resolved {
        Resolved {
            inputs: self.inputs(a_l2_bits),
            a_l2_read: self.a_l2_read(a_l1_bits),
            weights: self.weights(w_eff_bits),
        }
    }
}

/// The five capacity-dependent paths of one candidate at one capacity
/// triple, in bits: `(DRAM, ring)` inputs, A-L2 reads, `(DRAM, ring)`
/// weights.
pub(crate) struct Resolved {
    pub(crate) inputs: (u64, u64),
    pub(crate) a_l2_read: u64,
    pub(crate) weights: (u64, u64),
}

impl Resolved {
    /// Assembles the access counts around the capacity-independent volumes
    /// `v`; `fill_streams` cores receive each A-L2 multicast. Fires the
    /// penalty counters under the same conditions as
    /// [`resolve_at_capacities`](crate::evaluate::resolve_at_capacities).
    #[inline]
    pub(crate) fn access_counts(&self, v: &Volumes, fill_streams: u64) -> AccessCounts {
        let ((dram_input, d2d_input), a_l2_read) = (self.inputs, self.a_l2_read);
        let (dram_weight, d2d_weight) = self.weights;
        if baton_telemetry::enabled() {
            if dram_input > v.dram_input_base {
                count(Counter::PenaltyAL2);
            }
            if a_l2_read > v.a_l2_read_base {
                count(Counter::PenaltyAL1);
            }
            if dram_weight > v.dram_weight_base {
                count(Counter::PenaltyWL1);
            }
        }
        AccessCounts {
            dram_input_bits: dram_input,
            dram_weight_bits: dram_weight,
            dram_output_bits: v.dram_output,
            d2d_bits: d2d_input + d2d_weight,
            a_l2_bits: dram_input + d2d_input + a_l2_read,
            o_l2_bits: v.o_l2_write + v.o_l2_read,
            a_l1_bits: a_l2_read * fill_streams + v.a_l1_read,
            w_l1_bits: dram_weight + d2d_weight + v.w_l1_read,
            o_l1_rmw_bits: v.o_l1_rmw,
            mac_ops: v.mac_ops,
        }
    }
}

/// Geometry memo indexed by the enumerator's dense `geom_id`: one entry
/// serves all order/rotation siblings of a distinct geometry. Grows on
/// demand; [`clear`](Self::clear) keeps the capacity.
#[derive(Debug, Default)]
pub(crate) struct GeomMemo(Vec<Option<Result<MappingGeometry, MappingError>>>);

impl GeomMemo {
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Memo lookup with per-candidate counter replay: bumps
    /// `DecomposeCalls` always and the specific reject counter on `Err`,
    /// exactly like one [`baton_mapping::decompose`] call would.
    #[inline]
    pub(crate) fn get(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        geom_id: u32,
    ) -> Result<MappingGeometry, MappingError> {
        count(Counter::DecomposeCalls);
        let idx = geom_id as usize;
        if idx >= self.0.len() {
            self.0.resize(idx + 1, None);
        }
        let res = *self.0[idx].get_or_insert_with(|| mapping_geometry(layer, arch, mapping));
        if baton_telemetry::enabled() {
            if let Err(e) = res {
                count(e.counter());
            }
        }
        res
    }

    /// The geometry an earlier [`get`](Self::get) resolved for `geom_id`.
    #[inline]
    pub(crate) fn resolved(&self, geom_id: u32) -> MappingGeometry {
        self.0[geom_id as usize]
            .expect("resolved by an earlier lookup")
            .expect("only called for legal geometries")
    }
}

/// A scratch value checked out of a thread-local pool; returns itself to
/// that pool on drop, so repeated work on one thread reuses its buffers.
#[derive(Debug)]
pub struct Pooled<T: 'static> {
    pool: &'static LocalKey<RefCell<Vec<T>>>,
    inner: Option<T>,
}

impl<T: Default> Pooled<T> {
    /// Pops a value from `pool`, or makes a fresh one if the pool is empty.
    pub(crate) fn take(pool: &'static LocalKey<RefCell<Vec<T>>>) -> Self {
        let inner = pool
            .try_with(|p| p.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        Self {
            pool,
            inner: Some(inner),
        }
    }
}

impl<T> Deref for Pooled<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("present until drop")
    }
}

impl<T> DerefMut for Pooled<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("present until drop")
    }
}

impl<T> Drop for Pooled<T> {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            // `try_with`: the pool may already be gone during thread
            // teardown, in which case the value is simply freed.
            let _ = self.pool.try_with(|p| p.borrow_mut().push(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{batch, sweep};

    #[test]
    fn pooled_scratch_round_trips_keep_capacity() {
        // Both pooled types come back from their pool with the geometry
        // memo cleared and its capacity kept.
        let mut a = batch::scratch_for();
        a.geoms.0.resize(16, None);
        drop(a);
        let b = batch::scratch_for();
        assert!(b.geoms.0.is_empty());
        assert!(b.geoms.0.capacity() >= 16, "batch pool must keep capacity");

        let mut a = sweep::sweep_lanes_for(&[1024], &[2048], &[4096], 64);
        a.geoms.0.resize(16, None);
        drop(a);
        let b = sweep::sweep_lanes_for(&[1024], &[2048], &[4096], 64);
        assert!(b.geoms.0.is_empty());
        assert!(b.geoms.0.capacity() >= 16, "sweep pool must keep capacity");
    }
}
