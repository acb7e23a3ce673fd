//! On-chip SRAM buffers of the dense accelerator complex: the MLP weight
//! store (`SRAM_MLPmodel`), the dense-feature buffer (`SRAM_DenseFeature`)
//! and the top-MLP input buffer (`SRAM_MLPinput`) from Figure 9.

use crate::error::CentaurError;
use serde::{Deserialize, Serialize};

/// A capacity-checked on-chip buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramBuffer {
    name: &'static str,
    capacity_bytes: u64,
    used_bytes: u64,
    writes: u64,
}

impl SramBuffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(name: &'static str, capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "SRAM buffer needs non-zero capacity");
        SramBuffer {
            name,
            capacity_bytes,
            used_bytes: 0,
            writes: 0,
        }
    }

    /// The MLP weight store: ~5.2 Mbit of block RAM (Table III), enough for
    /// every Table I model's MLP parameters.
    pub fn mlp_weights_harpv2() -> Self {
        SramBuffer::new("SRAM_MLPmodel", 5_200_000 / 8)
    }

    /// The dense-feature input buffer (part of the dense complex's SRAM
    /// arrays in Table III).
    pub fn dense_features_harpv2() -> Self {
        SramBuffer::new("SRAM_DenseFeature", 800_000 / 8)
    }

    /// The top-MLP input buffer holding the feature-interaction output.
    pub fn mlp_inputs_harpv2() -> Self {
        SramBuffer::new("SRAM_MLPinput", 800_000 / 8)
    }

    /// Buffer name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of successful allocations/stores performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Allocates `bytes` in the buffer (e.g. uploading weights at boot).
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::CapacityExceeded`] when the buffer cannot
    /// hold the additional bytes.
    pub fn store(&mut self, bytes: u64) -> Result<(), CentaurError> {
        if self.used_bytes + bytes > self.capacity_bytes {
            return Err(CentaurError::CapacityExceeded {
                resource: self.name,
                required: self.used_bytes + bytes,
                available: self.capacity_bytes,
            });
        }
        self.used_bytes += bytes;
        self.writes += 1;
        Ok(())
    }

    /// Clears the buffer (e.g. between requests for the per-request
    /// buffers; weights persist and are never cleared in deployment).
    pub fn clear(&mut self) {
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::PaperModel;

    #[test]
    fn weight_sram_holds_every_paper_model() {
        let sram = SramBuffer::mlp_weights_harpv2();
        for model in PaperModel::all() {
            let mut s = sram.clone();
            assert!(
                s.store(model.config().mlp_bytes()).is_ok(),
                "{model} MLP ({} B) should fit in {} B",
                model.config().mlp_bytes(),
                s.capacity_bytes()
            );
        }
    }

    #[test]
    fn store_and_occupancy_accounting() {
        let mut sram = SramBuffer::new("test", 1000);
        sram.store(250).unwrap();
        sram.store(250).unwrap();
        assert_eq!(sram.used_bytes(), 500);
        assert_eq!(sram.writes(), 2);
        sram.clear();
        assert_eq!(sram.used_bytes(), 0);
    }

    #[test]
    fn overflow_rejected_with_details() {
        let mut sram = SramBuffer::new("tiny", 100);
        let err = sram.store(101).unwrap_err();
        match err {
            CentaurError::CapacityExceeded {
                resource,
                required,
                available,
            } => {
                assert_eq!(resource, "tiny");
                assert_eq!(required, 101);
                assert_eq!(available, 100);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn named_buffers_have_expected_names() {
        assert_eq!(SramBuffer::mlp_weights_harpv2().name(), "SRAM_MLPmodel");
        assert_eq!(
            SramBuffer::dense_features_harpv2().name(),
            "SRAM_DenseFeature"
        );
        assert_eq!(SramBuffer::mlp_inputs_harpv2().name(), "SRAM_MLPinput");
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_panics() {
        SramBuffer::new("zero", 0);
    }
}
