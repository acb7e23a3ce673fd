//! The on-FPGA SRAM array holding sparse index IDs awaiting gather
//! (`SRAM_sparseID` in Figure 9/10).
//!
//! A large index SRAM is what lets the gather unit keep many embedding
//! reads in flight: the paper's design spends over half of the sparse
//! complex's block memory on it (Table III). When a batch carries more
//! indices than fit, the streamer processes the index array in chunks,
//! double-buffering the SRAM. The model holds the capacity and counts the
//! fills; the indices themselves stay in the request.

use serde::{Deserialize, Serialize};

/// The sparse-index SRAM buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseIndexSram {
    capacity_indices: usize,
    loads: u64,
}

impl SparseIndexSram {
    /// Bytes per stored index (32-bit row IDs).
    pub const INDEX_BYTES: usize = 4;

    /// Creates an SRAM able to hold `capacity_indices` row IDs.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_indices: usize) -> Self {
        assert!(capacity_indices > 0, "index SRAM needs non-zero capacity");
        SparseIndexSram {
            capacity_indices,
            loads: 0,
        }
    }

    /// The paper's configuration: ~12.2 Mbit of block RAM dedicated to
    /// sparse indices (Table III), i.e. roughly 380 K 32-bit indices.
    pub fn harpv2_sized() -> Self {
        let bits = 12_200_000u64;
        SparseIndexSram::new((bits / 8 / Self::INDEX_BYTES as u64) as usize)
    }

    /// Maximum number of indices the SRAM holds at once.
    pub fn capacity_indices(&self) -> usize {
        self.capacity_indices
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_indices * Self::INDEX_BYTES
    }

    /// How many CPU→FPGA fill operations have occurred.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Number of chunked fills needed to stream `total_indices` through
    /// this SRAM.
    pub fn chunks_needed(&self, total_indices: usize) -> usize {
        total_indices.div_ceil(self.capacity_indices)
    }

    /// Records `fills` CPU→FPGA fill operations.
    pub fn record_loads(&mut self, fills: u64) {
        self.loads += fills;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harpv2_capacity_is_hundreds_of_thousands() {
        let sram = SparseIndexSram::harpv2_sized();
        assert!(sram.capacity_indices() > 300_000);
        assert!(sram.capacity_bytes() < 2 * 1024 * 1024);
    }

    #[test]
    fn record_loads_accumulates_fills() {
        let mut sram = SparseIndexSram::new(8);
        sram.record_loads(sram.chunks_needed(20) as u64);
        sram.record_loads(1);
        assert_eq!(sram.loads(), 4);
    }

    #[test]
    fn chunks_needed_rounds_up() {
        let sram = SparseIndexSram::new(100);
        assert_eq!(sram.chunks_needed(0), 0);
        assert_eq!(sram.chunks_needed(1), 1);
        assert_eq!(sram.chunks_needed(100), 1);
        assert_eq!(sram.chunks_needed(101), 2);
        assert_eq!(sram.chunks_needed(1000), 10);
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_panics() {
        SparseIndexSram::new(0);
    }
}
