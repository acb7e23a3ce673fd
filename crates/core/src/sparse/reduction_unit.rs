//! The embedding reduction unit (EB-RU): a row of scalar ALUs that reduce
//! gathered embedding vectors on the fly as they stream in from the link
//! (Figure 10). The unit models throughput and counts reductions; the
//! functional sum is the embedding bag's.

use serde::{Deserialize, Serialize};

/// The EB-RU: `num_alus` scalar adders running at the FPGA clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingReductionUnit {
    num_alus: usize,
    clock_mhz: f64,
    vectors_reduced: u64,
}

impl EmbeddingReductionUnit {
    /// Creates a reduction unit with `num_alus` scalar ALUs at `clock_mhz`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(num_alus: usize, clock_mhz: f64) -> Self {
        assert!(
            num_alus > 0 && clock_mhz > 0.0,
            "EB-RU needs ALUs and a clock"
        );
        EmbeddingReductionUnit {
            num_alus,
            clock_mhz,
            vectors_reduced: 0,
        }
    }

    /// The paper's configuration: one ALU per embedding element of a
    /// 32-wide vector, clocked at 200 MHz.
    pub fn harpv2_sized() -> Self {
        EmbeddingReductionUnit::new(32, 200.0)
    }

    /// Number of scalar ALUs.
    pub fn num_alus(&self) -> usize {
        self.num_alus
    }

    /// Vectors reduced so far.
    pub fn vectors_reduced(&self) -> u64 {
        self.vectors_reduced
    }

    /// Records `vectors` embedding vectors reduced by the streamer.
    pub fn record_reductions(&mut self, vectors: u64) {
        self.vectors_reduced += vectors;
    }

    /// Peak reduction throughput in elements per nanosecond.
    pub fn elements_per_ns(&self) -> f64 {
        self.num_alus as f64 * self.clock_mhz / 1000.0
    }

    /// Time to reduce `vectors` embedding vectors of width `dim`, in ns.
    pub fn reduction_time_ns(&self, vectors: u64, dim: usize) -> f64 {
        (vectors * dim as u64) as f64 / self.elements_per_ns()
    }

    /// Peak reduction bandwidth in GB/s of incoming embedding data —
    /// used to verify the EB-RU is never the streamer's bottleneck.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.elements_per_ns() * 4.0
    }
}

impl Default for EmbeddingReductionUnit {
    fn default() -> Self {
        EmbeddingReductionUnit::harpv2_sized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_reductions_counts_vectors() {
        let mut ru = EmbeddingReductionUnit::harpv2_sized();
        ru.record_reductions(3);
        ru.record_reductions(0);
        assert_eq!(ru.vectors_reduced(), 3);
    }

    #[test]
    fn reduction_is_never_the_link_bottleneck() {
        // 32 ALUs at 200 MHz consume 25.6 GB/s of embedding data — more than
        // the HARPv2 link can deliver (~12 GB/s for gathers).
        let ru = EmbeddingReductionUnit::harpv2_sized();
        assert!(ru.peak_bandwidth_gbs() > 20.0);
        let link_limited_ns = (1_000_000u64 * 128) as f64 / 12.0;
        assert!(ru.reduction_time_ns(1_000_000, 32) < link_limited_ns);
    }

    #[test]
    #[should_panic(expected = "ALUs and a clock")]
    fn zero_alus_panics() {
        EmbeddingReductionUnit::new(0, 200.0);
    }
}
