//! Small shared measurement helpers (throughput accounting).

use serde::{Deserialize, Serialize};

/// Bytes moved over a time window, with convenience conversions.
///
/// The paper's *effective throughput* metric is exactly this: useful bytes
/// gathered divided by the latency of the embedding stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Throughput {
    /// Useful bytes transferred.
    pub bytes: u64,
    /// Elapsed time in nanoseconds.
    pub elapsed_ns: f64,
}

impl Throughput {
    /// Creates a throughput measurement.
    pub fn new(bytes: u64, elapsed_ns: f64) -> Self {
        Throughput { bytes, elapsed_ns }
    }

    /// Throughput in gigabytes per second (returns 0 for a zero-length
    /// window).
    pub fn gigabytes_per_second(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.elapsed_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbs_conversion() {
        // 77 bytes in 1 ns = 77 GB/s.
        let t = Throughput::new(77, 1.0);
        assert!((t.gigabytes_per_second() - 77.0).abs() < 1e-9);
        // 1 GiB-ish in 1 s.
        let t = Throughput::new(1_000_000_000, 1e9);
        assert!((t.gigabytes_per_second() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_is_zero_throughput() {
        assert_eq!(Throughput::new(100, 0.0).gigabytes_per_second(), 0.0);
    }
}
