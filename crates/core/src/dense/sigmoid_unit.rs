//! The sigmoid unit that converts the top-MLP output into an event
//! probability (Figure 9). A handful of pipeline stages of fixed-function
//! logic — never a performance factor. Only its latency is modelled here;
//! the functional sigmoid is the reference model's.

use serde::{Deserialize, Serialize};

/// The sigmoid unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SigmoidUnit {
    pipeline_cycles: u32,
    clock_mhz: f64,
}

impl SigmoidUnit {
    /// Creates a sigmoid unit with the given pipeline depth and clock.
    pub fn new(pipeline_cycles: u32, clock_mhz: f64) -> Self {
        SigmoidUnit {
            pipeline_cycles,
            clock_mhz,
        }
    }

    /// The paper's configuration (a short pipeline at the 200 MHz fabric
    /// clock).
    pub fn harpv2() -> Self {
        SigmoidUnit::new(8, 200.0)
    }

    /// Latency to produce `batch` probabilities, in nanoseconds (fully
    /// pipelined: fill + one value per cycle).
    pub fn latency_ns(&self, batch: usize) -> f64 {
        (self.pipeline_cycles as f64 + batch.max(1) as f64) * 1000.0 / self.clock_mhz
    }
}

impl Default for SigmoidUnit {
    fn default() -> Self {
        SigmoidUnit::harpv2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_nanoseconds_scale() {
        let unit = SigmoidUnit::harpv2();
        assert!(unit.latency_ns(1) < 100.0);
        assert!(unit.latency_ns(128) > unit.latency_ns(1));
    }
}
