//! Deterministic fault-schedule sampling for availability studies.
//!
//! Production recommendation fleets treat node loss as routine, so the
//! serving layer's fault-injection experiments need *schedules* of faults —
//! which replica fails, when, and how — that are reproducible run to run
//! exactly like the arrival schedules from [`crate::arrival`]. This module
//! samples those schedules; the serving crate turns them into its own
//! fault-plan type and injects them into replica workers.
//!
//! Offsets are drawn from the middle band of the replay window (15 %–85 %)
//! so a sampled fault lands *mid-replay*: early enough that recovery still
//! has load to absorb, late enough that the pool is warmed up and serving —
//! the regime where crash recovery is actually measurable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fraction of the replay window before which no fault is scheduled.
pub const FAULT_WINDOW_LO: f64 = 0.15;
/// Fraction of the replay window after which no fault is scheduled.
pub const FAULT_WINDOW_HI: f64 = 0.85;

/// Seeded sampler for fault schedules: event time offsets within a replay
/// window and victim-replica choices. Deterministic given its seed.
#[derive(Debug)]
pub struct FaultScheduleSampler {
    rng: StdRng,
}

impl FaultScheduleSampler {
    /// Creates a sampler from a seed. The seed is mixed so fault schedules
    /// decorrelate from arrival/request streams built from the same
    /// experiment seed.
    pub fn new(seed: u64) -> Self {
        FaultScheduleSampler {
            rng: StdRng::seed_from_u64(seed ^ 0xFA_17_5C_ED),
        }
    }

    /// Samples one fault offset in seconds, uniform over the mid-replay
    /// band ([`FAULT_WINDOW_LO`], [`FAULT_WINDOW_HI`]) of a replay lasting
    /// `window_s` seconds.
    pub fn offset_s(&mut self, window_s: f64) -> f64 {
        let span = window_s.max(0.0);
        self.rng.gen_range(FAULT_WINDOW_LO..FAULT_WINDOW_HI) * span
    }

    /// Samples `count` *repeating* fault offsets: the mid-replay band is
    /// split into `count` equal slots and one offset is jittered uniformly
    /// inside each, so the events recur at a roughly even cadence (an
    /// intermittently stalling replica) instead of clustering the way
    /// independent uniform draws can. Sorted ascending by construction.
    pub fn repeating_offsets_s(&mut self, count: usize, window_s: f64) -> Vec<f64> {
        if count == 0 {
            return Vec::new();
        }
        let span = window_s.max(0.0);
        let band_lo = FAULT_WINDOW_LO * span;
        let band = (FAULT_WINDOW_HI - FAULT_WINDOW_LO) * span;
        let slot = band / count as f64;
        (0..count)
            .map(|i| band_lo + slot * i as f64 + self.rng.gen_range(0.0..1.0) * slot)
            .collect()
    }

    /// Picks a victim replica uniformly from `0..replicas` (`0` when the
    /// pool is empty).
    pub fn replica(&mut self, replicas: usize) -> usize {
        if replicas <= 1 {
            return 0;
        }
        self.rng.gen_range(0..replicas as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `count` independent fault offsets over `window_s`, sorted ascending.
    fn offsets_s(sampler: &mut FaultScheduleSampler, count: usize, window_s: f64) -> Vec<f64> {
        let mut offsets: Vec<f64> = (0..count).map(|_| sampler.offset_s(window_s)).collect();
        offsets.sort_by(|a, b| a.partial_cmp(b).expect("offsets are finite"));
        offsets
    }

    #[test]
    fn same_seed_reproduces_the_schedule() {
        let mut a = FaultScheduleSampler::new(7);
        let mut b = FaultScheduleSampler::new(7);
        let offsets_a = offsets_s(&mut a, 8, 2.0);
        let offsets_b = offsets_s(&mut b, 8, 2.0);
        assert_eq!(offsets_a, offsets_b, "schedules are deterministic");
        let picks_a: Vec<usize> = (0..8).map(|_| a.replica(4)).collect();
        let picks_b: Vec<usize> = (0..8).map(|_| b.replica(4)).collect();
        assert_eq!(picks_a, picks_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultScheduleSampler::new(1);
        let mut b = FaultScheduleSampler::new(2);
        assert_ne!(offsets_s(&mut a, 8, 2.0), offsets_s(&mut b, 8, 2.0));
    }

    #[test]
    fn offsets_land_mid_replay_sorted() {
        let mut sampler = FaultScheduleSampler::new(11);
        let window_s = 4.0;
        let offsets = offsets_s(&mut sampler, 64, window_s);
        for pair in offsets.windows(2) {
            assert!(pair[0] <= pair[1], "offsets are sorted");
        }
        for &t in &offsets {
            assert!(
                t >= FAULT_WINDOW_LO * window_s && t <= FAULT_WINDOW_HI * window_s,
                "offset {t} outside the mid-replay band"
            );
        }
    }

    #[test]
    fn replica_choice_covers_the_pool_and_handles_degenerate_sizes() {
        let mut sampler = FaultScheduleSampler::new(3);
        assert_eq!(sampler.replica(0), 0);
        assert_eq!(sampler.replica(1), 0);
        let mut seen = [false; 3];
        for _ in 0..64 {
            let r = sampler.replica(3);
            assert!(r < 3);
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 draws cover a 3-replica pool");
    }

    #[test]
    fn repeating_offsets_space_evenly_across_the_band() {
        let mut sampler = FaultScheduleSampler::new(17);
        let window_s = 2.0;
        let count = 8;
        let offsets = sampler.repeating_offsets_s(count, window_s);
        assert_eq!(offsets.len(), count);
        let band_lo = FAULT_WINDOW_LO * window_s;
        let slot = (FAULT_WINDOW_HI - FAULT_WINDOW_LO) * window_s / count as f64;
        for (i, &t) in offsets.iter().enumerate() {
            let lo = band_lo + slot * i as f64;
            assert!(
                t >= lo && t < lo + slot,
                "offset {t} escaped its slot [{lo}, {})",
                lo + slot
            );
        }
        for pair in offsets.windows(2) {
            assert!(pair[0] <= pair[1], "slotted offsets are sorted");
        }
        let mut again = FaultScheduleSampler::new(17);
        assert_eq!(
            again.repeating_offsets_s(count, window_s),
            offsets,
            "repeating schedules are deterministic"
        );
        assert!(sampler.repeating_offsets_s(0, window_s).is_empty());
    }

    #[test]
    fn zero_window_pins_offsets_to_zero() {
        let mut sampler = FaultScheduleSampler::new(5);
        assert_eq!(sampler.offset_s(0.0), 0.0);
    }
}
