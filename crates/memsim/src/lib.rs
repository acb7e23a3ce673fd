//! # centaur-memsim
//!
//! A cycle-approximate memory-subsystem simulator used to reproduce the
//! CPU-side characterization of the Centaur paper (Figures 5–7): a
//! set-associative cache hierarchy (L1/L2/LLC) with LRU replacement and a
//! DDR4 DRAM model with channels, ranks, banks, open-row tracking and
//! per-channel data-bus bandwidth. Memory-level parallelism is not modelled
//! here: the CPU model bounds it with its own per-core gather window.
//!
//! The simulator is trace-driven: callers replay a stream of physical
//! addresses (e.g. embedding gathers produced by `centaur-workload`) and
//! read back hit/miss statistics plus service timing. Nothing here knows
//! about recommendation models — it is a reusable substrate.
//!
//! ```
//! use centaur_memsim::{CacheHierarchy, HierarchyConfig, MemoryLevel};
//!
//! let mut hierarchy = CacheHierarchy::new(&HierarchyConfig::broadwell_like());
//! // First touch of an address misses all the way to memory...
//! assert_eq!(hierarchy.access_read(0x1000), MemoryLevel::Memory);
//! // ...and the second touch hits in L1.
//! assert_eq!(hierarchy.access_read(0x1000), MemoryLevel::L1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod address;
pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod stats;

pub use address::{AddressMapping, DramLocation};
pub use cache::{AccessKind, CacheConfig, CacheStats, SetAssociativeCache};
pub use dram::{DramConfig, DramModel, DramStats};
pub use hierarchy::{CacheHierarchy, HierarchyConfig, HierarchyStats, MemoryLevel};
pub use stats::Throughput;

/// Cache-line size assumed throughout the simulator (bytes).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Returns the cache-line-aligned address containing `addr`.
pub fn line_address(addr: u64) -> u64 {
    addr & !(CACHE_LINE_BYTES - 1)
}

/// Returns every distinct cache line touched by a `[addr, addr + bytes)`
/// access.
pub fn lines_spanned(addr: u64, bytes: u64) -> Vec<u64> {
    if bytes == 0 {
        return Vec::new();
    }
    let first = line_address(addr);
    let last = line_address(addr + bytes - 1);
    (0..=(last - first) / CACHE_LINE_BYTES)
        .map(|i| first + i * CACHE_LINE_BYTES)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_address_masks_low_bits() {
        assert_eq!(line_address(0), 0);
        assert_eq!(line_address(63), 0);
        assert_eq!(line_address(64), 64);
        assert_eq!(line_address(130), 128);
    }

    #[test]
    fn lines_spanned_handles_alignment() {
        assert_eq!(lines_spanned(0, 0), Vec::<u64>::new());
        assert_eq!(lines_spanned(0, 1), vec![0]);
        assert_eq!(lines_spanned(0, 64), vec![0]);
        assert_eq!(lines_spanned(0, 65), vec![0, 64]);
        // A 128-byte embedding row starting mid-line touches 3 lines.
        assert_eq!(lines_spanned(32, 128), vec![0, 64, 128]);
        // Aligned 128-byte row touches exactly 2 lines.
        assert_eq!(lines_spanned(128, 128), vec![128, 192]);
    }
}
