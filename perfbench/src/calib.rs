//! Host-speed calibration for the closed-loop workloads.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants slow
//! the program's cores by up to 1.8x, in spells that last from seconds to
//! minutes, so a raw wall time tells as much about the neighbours as about
//! the program. A fixed kernel (independent xorshift lanes with table
//! lookups and data-dependent branches over a table that fits in L2) slows
//! down with them as the mapping search does, and its speed is sampled
//! right before and right after every timed call. A call's time is reported as the time it would have taken
//! with the kernel at [`REFERENCE_MS`], its time on a quiet host:
//! `elapsed * REFERENCE_MS / kernel`, with `kernel` the mean of the two
//! samples that bracket the call. A change to the program moves the call's
//! time and leaves the kernel alone, so it shows in full.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference machine (2-vCPU KVM guest, Intel
/// Xeon, 2.1 GHz) with no other load on its cores.
pub const REFERENCE_MS: f64 = 0.275;

/// Lookups per lane in one timed pass.
const PASSES: usize = 25_000;

/// The kernel's table: 1 MiB of u64, resident in L2 once warm.
const TABLE_LEN: usize = 1 << 17;

pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let table = (0..TABLE_LEN as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Calibrator { table }
    }
}

impl Calibrator {
    /// One pass of the kernel, in ms.
    fn pass(&self) -> f64 {
        let t = Instant::now();
        let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut acc = 0u64;
        let mask = self.table.len() - 1;
        for _ in 0..PASSES {
            for v in &mut lanes {
                *v ^= *v << 13;
                *v ^= *v >> 7;
                *v ^= *v << 17;
                let e = self.table[(*v as usize) & mask];
                if e & 1 == 0 {
                    acc = acc.wrapping_add(e);
                } else {
                    acc ^= e.rotate_left(7);
                }
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The kernel's current time on this thread's core, in ms: the median
    /// of three passes. An untimed pass first brings the table back into
    /// cache after the program's own working set evicted it.
    pub fn sample_ms(&self) -> f64 {
        self.pass();
        let mut passes = [self.pass(), self.pass(), self.pass()];
        passes.sort_by(f64::total_cmp);
        passes[1]
    }

    /// The mean kernel time over `threads` cores at once, for work that
    /// runs on that many worker threads.
    pub fn sample_ms_on(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.sample_ms();
        }
        std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(|| self.sample_ms())).collect();
            let own = self.sample_ms();
            let total: f64 = own
                + others
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread"))
                    .sum::<f64>();
            total / threads as f64
        })
    }
}

/// `ms` as it would read with the kernel at [`REFERENCE_MS`], given the
/// kernel samples taken before and after.
pub fn normalize(ms: f64, before: f64, after: f64) -> f64 {
    ms * REFERENCE_MS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizing_scales_by_the_bracketing_kernel() {
        assert_eq!(normalize(10.0, REFERENCE_MS, REFERENCE_MS), 10.0);
        // A host running at half speed doubles both the call and the kernel.
        let slow = normalize(20.0, 2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS);
        assert!((slow - 10.0).abs() < 1e-12);
        // A call that got slower on an unchanged host reads slower.
        assert!(normalize(12.0, REFERENCE_MS, REFERENCE_MS) > 10.0);
    }

    #[test]
    fn kernel_samples_are_positive_and_finite() {
        let c = Calibrator::default();
        for k in [c.sample_ms(), c.sample_ms_on(2)] {
            assert!(k.is_finite() && k > 0.0, "{k}");
        }
    }
}
