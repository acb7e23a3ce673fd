//! The EB-Streamer's hot-row cache model: an SRAM-budgeted,
//! frequency-guarded map of which embedding rows are resident on chip.
//!
//! The paper's characterization assumes embedding gathers have almost no
//! locality, but production recommendation traffic is heavily skewed —
//! RecNMP and MicroRec both show that caching the hot entries of a Zipfian
//! popularity curve is where real gather throughput comes from. This module
//! models that on-chip reuse: a direct-mapped cache of full embedding rows,
//! sized against the same block-RAM budget Table III gives the sparse
//! complex. A gather that hits never crosses the CPU-memory link, so the
//! timing model charges link transfers only for *cold* rows — on skewed
//! traffic the effective gather throughput rises above the raw link
//! bandwidth, exactly the win the paper's block RAM buys.
//!
//! **The model belongs to the timing path alone.** On the FPGA the cache
//! physically serves hits out of block RAM. In this functional simulator
//! the row values are identical wherever they are read from, and the host
//! CPU's own cache hierarchy already holds the hot rows — an explicit
//! software row store was measured strictly slower than the pure
//! register-tiled gather kernel at *every* hit rate (all it adds on a CPU
//! is per-row probe overhead). So the functional engine gathers every row
//! from the table and runs no cache model, and the tags see only the
//! traces [`HotRowCache::replay`] is given: one exact pass per request, by
//! [`EbStreamer::execute_timing`](crate::sparse::EbStreamer::execute_timing).
//!
//! Replacement is frequency-guarded (CLOCK-like): a hit bumps the slot's
//! frequency, a conflicting miss decays it, and the resident row is only
//! evicted once its frequency reaches zero — so a hot row survives bursts
//! of conflicting cold traffic. Everything is deterministic given the
//! access sequence.

use crate::sparse::index_sram::SparseIndexSram;
use centaur_dlrm::trace::InferenceTrace;

/// Frequency ceiling per slot (saturating).
const FREQ_MAX: u8 = 15;
/// The Fibonacci multiplier of a key's home slot.
const HOME_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Outcome of one tag access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The row is resident in `slot`.
    Hit(usize),
    /// The row missed and was admitted into `slot`.
    MissInsert(usize),
    /// The row missed and was not admitted (resident row still hot).
    MissBypass,
}

/// The tag/replacement state of a direct-mapped row cache.
#[derive(Debug, Clone, PartialEq)]
pub struct RowCacheTags {
    /// Power-of-two slot count.
    slots: usize,
    /// `key + 1` per slot; 0 marks an empty slot.
    tags: Vec<u64>,
    /// Per-slot frequency counter guarding replacement.
    freq: Vec<u8>,
    hits: u64,
    misses: u64,
}

impl RowCacheTags {
    /// Creates tags with `slots` rounded down to a power of two (≥ 1).
    pub fn with_slots(slots: usize) -> Self {
        let slots = slots.max(1);
        let slots = if slots.is_power_of_two() {
            slots
        } else {
            slots.next_power_of_two() / 2
        };
        RowCacheTags {
            slots,
            tags: vec![0; slots],
            freq: vec![0; slots],
            hits: 0,
            misses: 0,
        }
    }

    /// Slot count (power of two).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Accesses that hit since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Accesses that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction over all accesses (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The canonical cache key for a `(table, row)` pair.
    #[inline]
    pub fn key(table: u32, row: u64) -> u64 {
        ((table as u64) << 40) ^ (row & 0xFF_FFFF_FFFF)
    }

    /// One access to `key`: looks up its Fibonacci-hashed home slot,
    /// applies frequency-guarded replacement and updates the hit/miss
    /// counters.
    pub fn access(&mut self, key: u64) -> CacheAccess {
        let slot = (key.wrapping_mul(HOME_HASH) >> 32) as usize & (self.slots - 1);
        if self.tags[slot] == key + 1 {
            self.freq[slot] = (self.freq[slot] + 1).min(FREQ_MAX);
            self.hits += 1;
            CacheAccess::Hit(slot)
        } else if self.tags[slot] == 0 || self.freq[slot] == 0 {
            self.tags[slot] = key + 1;
            self.freq[slot] = 1;
            self.misses += 1;
            CacheAccess::MissInsert(slot)
        } else {
            self.freq[slot] -= 1;
            self.misses += 1;
            CacheAccess::MissBypass
        }
    }
}

/// The EB-Streamer's hot-row cache model: the block-RAM budget and the
/// tags for the row width it last replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct HotRowCache {
    capacity_bytes: usize,
    /// Row width the tags are shaped for (0 before the first replay).
    row_bytes: usize,
    tags: RowCacheTags,
}

impl HotRowCache {
    /// Creates a cache model with a block-RAM budget of `capacity_bytes`;
    /// the slot count is derived once the row width is known.
    pub fn new(capacity_bytes: usize) -> Self {
        HotRowCache {
            capacity_bytes,
            row_bytes: 0,
            tags: RowCacheTags::with_slots(1),
        }
    }

    /// The paper's budget: the same ~12.2 Mbit of block RAM Table III
    /// dedicates to the sparse complex's index SRAM, repurposed as row
    /// storage (≈ 11.9 K 128-byte rows at the default 32-wide embeddings).
    pub fn harpv2_sized() -> Self {
        HotRowCache::new(SparseIndexSram::harpv2_sized().capacity_bytes())
    }

    /// The block-RAM budget in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Row slots of the modelled cache at the current row width (0 before
    /// the first replay).
    pub fn slots(&self) -> usize {
        if self.row_bytes == 0 {
            0
        } else {
            self.tags.slots()
        }
    }

    /// Rows of `row_bytes` this budget holds; the tags round it down to a
    /// power of two.
    pub fn slots_for_row_bytes(&self, row_bytes: usize) -> usize {
        (self.capacity_bytes / row_bytes.max(1)).max(1)
    }

    /// Replayed gathers that hit since the tags were last shaped.
    pub fn hits(&self) -> u64 {
        self.tags.hits()
    }

    /// Replayed gathers that missed since the tags were last shaped.
    pub fn misses(&self) -> u64 {
        self.tags.misses()
    }

    /// Hit fraction of the replayed gathers (0 before the first replay).
    pub fn hit_rate(&self) -> f64 {
        self.tags.hit_rate()
    }

    /// Replays every gather of `trace` through the tags, in batch and table
    /// order, and returns the trace's `(hits, misses)`. Residency carries
    /// across calls, so a stream of small skewed requests sees warm-cache
    /// hit rates instead of restarting from compulsory misses every call; a
    /// trace with a different row width reshapes the tags, which empties
    /// them — one streamer serves one model, so that happens once.
    pub fn replay(&mut self, trace: &InferenceTrace) -> (u64, u64) {
        let row_bytes = trace.config.row_bytes().max(1);
        if self.row_bytes != row_bytes {
            self.row_bytes = row_bytes;
            self.tags = RowCacheTags::with_slots(self.slots_for_row_bytes(row_bytes));
        }
        let (hits, misses) = (self.hits(), self.misses());
        for sample in &trace.gather.samples {
            for (t, rows) in sample.rows_per_table.iter().enumerate() {
                for &row in rows {
                    self.tags.access(RowCacheTags::key(t as u32, row));
                }
            }
        }
        (self.hits() - hits, self.misses() - misses)
    }
}

impl Default for HotRowCache {
    fn default() -> Self {
        HotRowCache::harpv2_sized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::ModelConfig;
    use centaur_dlrm::trace::{GatherTrace, SampleTrace};

    #[test]
    fn tags_round_slots_down_to_power_of_two() {
        assert_eq!(RowCacheTags::with_slots(1).slots(), 1);
        assert_eq!(RowCacheTags::with_slots(2).slots(), 2);
        assert_eq!(RowCacheTags::with_slots(3).slots(), 2);
        assert_eq!(RowCacheTags::with_slots(8).slots(), 8);
        assert_eq!(RowCacheTags::with_slots(11_900).slots(), 8192);
    }

    #[test]
    fn repeated_key_hits_after_first_access() {
        let mut tags = RowCacheTags::with_slots(64);
        let key = RowCacheTags::key(3, 17);
        assert!(matches!(tags.access(key), CacheAccess::MissInsert(_)));
        for _ in 0..5 {
            assert!(matches!(tags.access(key), CacheAccess::Hit(_)));
        }
        assert_eq!(tags.hits(), 5);
        assert_eq!(tags.misses(), 1);
        assert!(tags.hit_rate() > 0.8);
    }

    #[test]
    fn hot_slot_survives_conflicting_cold_traffic() {
        let mut tags = RowCacheTags::with_slots(1); // everything conflicts
        let hot = RowCacheTags::key(0, 1);
        tags.access(hot);
        for _ in 0..10 {
            tags.access(hot); // frequency climbs
        }
        // A burst of cold keys decays but does not immediately evict.
        let mut evicted = false;
        for cold in 100..105u64 {
            if matches!(
                tags.access(RowCacheTags::key(0, cold)),
                CacheAccess::MissInsert(_)
            ) {
                evicted = true;
            }
        }
        assert!(!evicted, "hot row evicted by a short cold burst");
        assert!(matches!(tags.access(hot), CacheAccess::Hit(_)));
    }

    #[test]
    fn distinct_tables_use_distinct_keys() {
        assert_ne!(RowCacheTags::key(0, 5), RowCacheTags::key(1, 5));
        assert_ne!(RowCacheTags::key(2, 0), RowCacheTags::key(0, 2));
    }

    #[test]
    fn tags_reshape_on_dim_change() {
        // One table, one sample gathering row 1 sixteen times.
        let trace = |dim: usize| {
            let config = ModelConfig::builder()
                .num_tables(1)
                .rows_per_table(16)
                .embedding_dim(dim)
                .lookups_per_table(16)
                .build()
                .unwrap();
            let sample = SampleTrace {
                rows_per_table: vec![vec![1; 16]],
            };
            InferenceTrace::new(config, GatherTrace::new(dim, vec![sample]))
        };
        let mut cache = HotRowCache::new(1024);
        assert_eq!(cache.slots(), 0);
        assert_eq!(cache.replay(&trace(8)), (15, 1));
        assert_eq!(cache.slots(), 32);
        assert_eq!(cache.replay(&trace(8)), (16, 0));
        // Half-width rows: twice the slots, and the row is cold again.
        assert_eq!(cache.replay(&trace(4)), (15, 1));
        assert_eq!(cache.slots(), 64);
        assert_eq!((cache.hits(), cache.misses()), (15, 1));
    }

    #[test]
    fn harpv2_budget_matches_index_sram() {
        let cache = HotRowCache::harpv2_sized();
        assert_eq!(
            cache.capacity_bytes(),
            SparseIndexSram::harpv2_sized().capacity_bytes()
        );
        // ~11.9K 128-byte rows, 8192 usable direct-mapped slots.
        assert_eq!(cache.slots_for_row_bytes(128), 11_914);
    }
}
