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
//! **Why the functional path does not copy row data.** On the FPGA the
//! cache physically serves hits out of block RAM. In this functional
//! simulator the row values are identical wherever they are read from, and
//! the host CPU's own cache hierarchy already holds the hot rows — an
//! explicit software row store was measured strictly slower than the pure
//! register-tiled gather kernel at *every* hit rate (all it adds on a CPU
//! is per-row probe overhead). So the functional engine always gathers
//! from the table with [`centaur_dlrm::kernel::gather_rows_sum`], and the
//! cache is a **tag model**: it observes a deterministic 1-in-N sample of
//! the index stream to estimate hit rates cheaply, while the timing path
//! replays full traces through the same tag machinery for exact hit/miss
//! accounting.
//!
//! Replacement is frequency-guarded (CLOCK-like): a hit bumps the slot's
//! frequency, a conflicting miss decays it, and the resident row is only
//! evicted once its frequency reaches zero — so a hot row survives bursts
//! of conflicting cold traffic. Everything is deterministic given the
//! access sequence.

use crate::sparse::index_sram::SparseIndexSram;

/// Frequency ceiling per slot (saturating).
const FREQ_MAX: u8 = 15;
/// The functional path set-samples the tag model: only accesses whose home
/// slot falls in the first `1 / 2^OBSERVE_SET_SHIFT` of the full cache
/// geometry are probed. Set sampling (not access sampling) is the textbook
/// way to estimate cache behaviour cheaply *without bias*: every sampled
/// set still feels the full conflict pressure of its own traffic, whereas
/// probing a thinned access stream would understate capacity pressure and
/// inflate hit rates. The timing path replays traces unsampled.
const OBSERVE_SET_SHIFT: u32 = 3;
/// Indices per filter-then-probe block of [`HotRowCache::observe_rows`]:
/// 1 KB of stack.
const OBSERVE_BLOCK: usize = 256;
/// The Fibonacci multiplier of [`RowCacheTags::home_slot`].
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
    /// Largest power of two ≤ `slots` (≥ 1) — the geometry every tag array
    /// and the set-sampling observer share.
    pub fn rounded_slots(slots: usize) -> usize {
        let slots = slots.max(1);
        if slots.is_power_of_two() {
            slots
        } else {
            slots.next_power_of_two() / 2
        }
    }

    /// Creates tags with `slots` rounded down to a power of two (≥ 1).
    pub fn with_slots(slots: usize) -> Self {
        let slots = Self::rounded_slots(slots);
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

    /// Probed accesses that hit since construction/reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probed accesses that missed since construction/reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction over all probed accesses (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Clears hit/miss counters (contents stay resident).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// The canonical cache key for a `(table, row)` pair.
    #[inline]
    pub fn key(table: u32, row: u64) -> u64 {
        ((table as u64) << 40) ^ (row & 0xFF_FFFF_FFFF)
    }

    /// Fibonacci-hashed home slot for `key` in a power-of-two geometry of
    /// `slots` — shared by the in-array lookup and the set-sampling
    /// observer (which hashes against the *full* modelled geometry).
    #[inline]
    pub fn home_slot(key: u64, slots: usize) -> usize {
        (key.wrapping_mul(HOME_HASH) >> 32) as usize & (slots - 1)
    }

    /// Home slot within this tag array.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        Self::home_slot(key, self.slots)
    }

    /// One probed access to `key`: looks the slot up, applies
    /// frequency-guarded replacement and updates the hit/miss counters.
    pub fn access(&mut self, key: u64) -> CacheAccess {
        let slot = self.slot_of(key);
        self.access_at(slot, key)
    }

    /// [`RowCacheTags::access`] with the home slot already computed — the
    /// set-sampling observer hashes against the *full* cache geometry and
    /// probes only the slots this (smaller) tag array covers.
    fn access_at(&mut self, slot: usize, key: u64) -> CacheAccess {
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

    /// [`RowCacheTags::access_at`] over a run of `(slot, key)` probes for a
    /// caller that needs no outcomes: the same transitions of tag,
    /// frequency and counters in the same order, each computed with masks
    /// so that which of hit / insert / bypass it was is not a branch.
    fn probe_each(&mut self, probes: impl Iterator<Item = (usize, u64)>) {
        let (tags, freqs) = (&mut self.tags[..], &mut self.freq[..]);
        let (mut hits, mut misses) = (0, 0);
        for (slot, key) in probes {
            let (tag, freq) = (tags[slot], freqs[slot]);
            let hit = tag == key + 1;
            // All-ones when the slot is free for the taking. A hit on such
            // a slot rewrites the tag it already holds.
            let free = (tag == 0) | (freq == 0);
            let (free_u8, hit_u8) = (u8::from(free).wrapping_neg(), u8::from(hit).wrapping_neg());
            tags[slot] = tag ^ ((tag ^ (key + 1)) & u64::from(free).wrapping_neg());
            let up = (freq + 1).min(FREQ_MAX);
            let down = (freq.wrapping_sub(1) & !free_u8) | (1 & free_u8);
            freqs[slot] = (up & hit_u8) | (down & !hit_u8);
            hits += u64::from(hit);
            misses += u64::from(!hit);
        }
        self.hits += hits;
        self.misses += misses;
    }
}

/// The EB-Streamer's hot-row cache model: budget, full cache geometry and
/// the set-sampled tag state for the functional path.
#[derive(Debug, Clone, PartialEq)]
pub struct HotRowCache {
    capacity_bytes: usize,
    /// Row width the tags are currently shaped for (0 until first use).
    dim: usize,
    /// Full cache geometry (power of two) the budget buys at `dim`.
    full_slots: usize,
    /// Tags for the sampled first `full_slots >> OBSERVE_SET_SHIFT` sets.
    tags: RowCacheTags,
}

impl HotRowCache {
    /// Creates a cache model with a block-RAM budget of `capacity_bytes`;
    /// the slot count is derived once the row width is known.
    pub fn new(capacity_bytes: usize) -> Self {
        HotRowCache {
            capacity_bytes,
            dim: 0,
            full_slots: 1,
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

    /// Row slots of the full modelled cache at the current row width
    /// (0 before first use).
    pub fn slots(&self) -> usize {
        if self.dim == 0 {
            0
        } else {
            self.full_slots
        }
    }

    /// Slot count this budget yields for `row_bytes`-wide rows (shared with
    /// the timing model so trace-driven hit predictions use the same
    /// geometry as the functional observation).
    pub fn slots_for_row_bytes(&self, row_bytes: usize) -> usize {
        (self.capacity_bytes / row_bytes.max(1)).max(1)
    }

    /// Probed gathers that hit so far (the deterministic set-sampled
    /// subset of the stream).
    pub fn hits(&self) -> u64 {
        self.tags.hits()
    }

    /// Probed gathers that missed so far.
    pub fn misses(&self) -> u64 {
        self.tags.misses()
    }

    /// Estimated hit fraction of the gather stream (unbiased: the sampled
    /// sets experience exactly the conflict pressure the full cache's sets
    /// would, and row hashing spreads traffic evenly across sets).
    pub fn hit_rate(&self) -> f64 {
        self.tags.hit_rate()
    }

    /// Clears hit/miss counters (tag contents stay resident).
    pub fn reset_counters(&mut self) {
        self.tags.reset_counters();
    }

    /// (Re)shapes the tags for rows of width `dim`. Serving a bag with a
    /// different embedding width flushes the model — one streamer serves
    /// one model, so this happens at registration time, not per request.
    fn ensure_dim(&mut self, dim: usize) {
        if self.dim == dim {
            return;
        }
        self.dim = dim;
        self.full_slots =
            RowCacheTags::rounded_slots(self.slots_for_row_bytes(dim * std::mem::size_of::<f32>()));
        self.tags = RowCacheTags::with_slots((self.full_slots >> OBSERVE_SET_SHIFT).max(1));
    }

    /// Observes one chunk of the gather stream for table `table`, probing
    /// the accesses whose home slot (hashed against the **full** cache
    /// geometry) lands in the sampled sets, in stream order. Called by the
    /// streamer alongside the vectorized gather kernel.
    ///
    /// Every index is hashed — that is the floor — and about one in eight
    /// is probed. Two passes per [`OBSERVE_BLOCK`] indices: a filter writes
    /// the sampled indices, in order, to the head of a stack buffer, then
    /// [`RowCacheTags::probe_each`] walks the survivors. Probing inside the
    /// hashing loop instead costs a mispredicted branch per sampled index
    /// ("sampled?" is taken one time in eight, and hit / insert / bypass
    /// is a coin flip at the ~0.5 hit rate of Zipf traffic). The filter
    /// runs 16 indices a step under AVX-512F ([`SetFilter::filter`]),
    /// else as a branch-free scalar loop; either way the same keys are
    /// probed in the same order, so the counts and tags are the same. Over
    /// one 5 120-index DLRM(3) Zipf fill (`sparse_gather`'s
    /// `hot_row_observe_dlrm3_zipf_5120`) on the AVX-512 reference host
    /// the call takes 0.7–1.4 ns per index against 1.5–3.2 with the scalar
    /// filter, 1.7–2.5× less in each of eleven alternating runs (the
    /// spread is the shared host's load). Most of what remains is the
    /// probes: the filter alone reads 0.25–0.45 ns per index.
    pub fn observe_rows(&mut self, table: u32, dim: usize, indices: &[u32]) {
        if dim == 0 || indices.is_empty() {
            return;
        }
        self.ensure_dim(dim);
        let filter = SetFilter {
            table,
            full: self.full_slots,
            sampled: self.tags.slots(),
        };
        let mut survivors = [0u32; OBSERVE_BLOCK];
        for block in indices.chunks(OBSERVE_BLOCK) {
            let kept = filter.filter(block, &mut survivors);
            self.tags
                .probe_each(survivors[..kept].iter().map(|&idx| filter.home(idx)));
        }
    }
}

/// The set-sampling test of one table's indices: is an index's home slot,
/// hashed against the `full` geometry, one of the first `sampled` (both
/// powers of two)?
#[derive(Clone, Copy)]
struct SetFilter {
    table: u32,
    full: usize,
    sampled: usize,
}

impl SetFilter {
    /// `(home slot in the full geometry, key)` of row `idx`.
    #[inline]
    fn home(self, idx: u32) -> (usize, u64) {
        let key = RowCacheTags::key(self.table, idx as u64);
        (RowCacheTags::home_slot(key, self.full), key)
    }

    /// Writes the sampled indices of `block` (at most [`OBSERVE_BLOCK`]) to
    /// the head of `out` in order and returns how many there are.
    fn filter(self, block: &[u32], out: &mut [u32; OBSERVE_BLOCK]) -> usize {
        assert!(block.len() <= OBSERVE_BLOCK);
        #[cfg(target_arch = "x86_64")]
        if centaur_dlrm::kernel::avx512_available() {
            // SAFETY: guarded by the cached runtime AVX-512F check above;
            // `block` fits `out`, asserted above.
            return unsafe { filter_avx512(self, block, out) };
        }
        self.filter_scalar(block, out, 0)
    }

    /// The scalar filter, appending after the first `kept` entries of
    /// `out`: every index is written to the next free place, which moves
    /// on only when the index is sampled, so nothing branches on the hash.
    /// It is the whole filter without AVX-512F and the remainder after the
    /// 16-wide steps with it.
    fn filter_scalar(self, block: &[u32], out: &mut [u32], mut kept: usize) -> usize {
        for &idx in block {
            out[kept] = idx;
            kept += usize::from(self.home(idx).0 < self.sampled);
        }
        kept
    }
}

/// [`SetFilter::filter`] at 16 indices a step, the tail on
/// [`SetFilter::filter_scalar`].
///
/// The home slot needs the high half of the 64-bit product `key · C`
/// (`C` = [`HOME_HASH`], `key = (table << 40) | idx`), which AVX-512F
/// cannot form in one instruction (`vpmullq` is AVX-512DQ). It need not:
/// `(table << 40) · C` has 40 trailing zero bits and `idx · C_hi · 2^32`
/// has 32, so no carry crosses bit 32 and, mod 2^32,
/// `hi32(key · C) = hi32((table << 40) · C) + hi32(idx · C_lo) + idx · C_hi`.
/// The first term is one constant per call, the second two `vpmuludq`
/// (even and odd lanes), the third one `vpmulld`. An index is sampled when
/// its home slot is below `sampled`: when the hash has none of the bits
/// from `log2(sampled)` up to `log2(full)` set (`vptestnmd`). Survivors
/// are compress-stored in lane order.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: unsafe because of `#[target_feature(enable = "avx512f")]` and
// two raw-pointer intrinsics. The load reads exactly the 16 `u32` of a
// `&[u32; 16]` step of `block`. The compress-store writes `count_ones` of
// the lane mask ≤ 16 consecutive `u32` at `out[kept..]`; before step `s`,
// `kept ≤ 16 s`, so the write ends at or before `16 (s + 1) ≤ block.len()
// ≤ OBSERVE_BLOCK = out.len()` (`block.len()` asserted by the one caller,
// `SetFilter::filter`, which also checks `avx512_available()` first).
unsafe fn filter_avx512(filter: SetFilter, block: &[u32], out: &mut [u32; OBSERVE_BLOCK]) -> usize {
    use std::arch::x86_64::*;
    let table_hi = (((filter.table as u64) << 40).wrapping_mul(HOME_HASH) >> 32) as u32;
    let c_lo = _mm512_set1_epi64(HOME_HASH as u32 as i64);
    let c_hi = _mm512_set1_epi32((HOME_HASH >> 32) as u32 as i32);
    let base = _mm512_set1_epi32(table_hi as i32);
    let above = ((filter.full - 1) & !(filter.sampled - 1)) as u32;
    let above = _mm512_set1_epi32(above as i32);
    let (steps, rest) = block.as_chunks::<16>();
    let mut kept = 0;
    for step in steps {
        let idx = _mm512_loadu_si512(step.as_ptr().cast());
        let even = _mm512_srli_epi64::<32>(_mm512_mul_epu32(idx, c_lo));
        let odd = _mm512_mul_epu32(_mm512_srli_epi64::<32>(idx), c_lo);
        let low = _mm512_mask_blend_epi32(0xAAAA, even, odd);
        let hash = _mm512_add_epi32(_mm512_add_epi32(low, _mm512_mullo_epi32(idx, c_hi)), base);
        let sampled = _mm512_testn_epi32_mask(hash, above);
        _mm512_mask_compressstoreu_epi32(out.as_mut_ptr().add(kept).cast(), sampled, idx);
        kept += sampled.count_ones() as usize;
    }
    filter.filter_scalar(rest, out, kept)
}

impl Default for HotRowCache {
    fn default() -> Self {
        HotRowCache::harpv2_sized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn skewed_observation_reports_high_hit_rate() {
        let mut cache = HotRowCache::new(512 * 128);
        // 256 hot rows replayed heavily over a 512-slot cache: the ~32 of
        // them homed in the sampled sets must hit on nearly every probe
        // after warm-up.
        for round in 0..100u32 {
            let indices: Vec<u32> = (0..512).map(|i| (i * 7 + round) % 256).collect();
            cache.observe_rows(0, 32, &indices);
        }
        assert!(cache.hit_rate() > 0.8, "rate {}", cache.hit_rate());
        assert!(cache.hits() > 0);
    }

    #[test]
    fn uniform_observation_reports_low_hit_rate() {
        let mut cache = HotRowCache::new(64 * 128); // 16 slots at dim 32
        let mut next = 0u32;
        for _ in 0..200 {
            let indices: Vec<u32> = (0..64)
                .map(|_| {
                    next = next.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    next % 100_000
                })
                .collect();
            cache.observe_rows(0, 32, &indices);
        }
        assert!(cache.hit_rate() < 0.05, "rate {}", cache.hit_rate());
    }

    #[test]
    fn observation_probes_roughly_one_set_in_eight() {
        let mut cache = HotRowCache::new(1024 * 128);
        let indices: Vec<u32> = (0..1024).collect();
        cache.observe_rows(0, 32, &indices);
        let probed = cache.hits() + cache.misses();
        // 1024 distinct keys spread over 1024 slots; the 128 sampled sets
        // should see ~1/8 of them (hash variance allowed).
        assert!((64..=192).contains(&probed), "probed {probed}");
    }

    #[test]
    fn observation_is_the_branchy_probe_loop_on_any_stream() {
        use centaur_dlrm::config::PaperModel;
        use centaur_workload::{IndexDistribution, RequestGenerator};
        let hot_set = IndexDistribution::HotSet {
            hot_rows: 64,
            hot_fraction: 0.9,
        };
        let streams = [
            IndexDistribution::production_skew(),
            IndexDistribution::Uniform,
            hot_set,
        ];
        // Around one 16-index step of the AVX-512 filter, and around a block.
        let lengths = [
            0,
            1,
            15,
            16,
            17,
            OBSERVE_BLOCK - 1,
            OBSERVE_BLOCK,
            OBSERVE_BLOCK + 1,
            5_120,
        ];
        // 200 000-row tables, 20 lookups per list.
        let config = PaperModel::Dlrm1.config();
        for (seed, stream) in streams.into_iter().enumerate() {
            let mut generator = RequestGenerator::new(&config, stream, seed as u64);
            let mut cache = HotRowCache::harpv2_sized();
            let mut reference = cache.clone();
            // Three rounds, so later calls probe warm tags: hits, inserts
            // and bypasses all occur (at 0.5 hit rates on the Zipf stream).
            for round in 0..3u32 {
                for (call, &len) in lengths.iter().enumerate() {
                    let table = (round + call as u32) % 5;
                    let batch = generator.functional_batch(len.div_ceil(20));
                    let indices: Vec<u32> = batch
                        .sparse
                        .iter()
                        .flat_map(|sample| sample[table as usize].iter().copied())
                        .take(len)
                        .collect();
                    assert_eq!(indices.len(), len);
                    cache.observe_rows(table, 32, &indices);
                    if !indices.is_empty() {
                        reference.ensure_dim(32);
                    }
                    for &idx in &indices {
                        let key = RowCacheTags::key(table, idx as u64);
                        let slot = RowCacheTags::home_slot(key, reference.full_slots);
                        if slot < reference.tags.slots() {
                            reference.tags.access_at(slot, key);
                        }
                    }
                    assert_eq!(cache.hits(), reference.hits(), "{stream:?} len {len}");
                    assert_eq!(cache.misses(), reference.misses(), "{stream:?} len {len}");
                    assert!(
                        cache == reference,
                        "{stream:?} len {len}: tag state diverged"
                    );
                }
            }
            assert!(cache.misses() > 0, "{stream:?}");
            assert!(cache.hits() > 0 || stream == IndexDistribution::Uniform);
        }
    }

    #[test]
    fn the_set_filter_keeps_what_the_scalar_loop_keeps_in_order() {
        // A 32-bit LCG stream with both ends of the index range mixed in.
        let mut next = 0x2545_F491u32;
        let indices: Vec<u32> = (0..OBSERVE_BLOCK)
            .map(|i| match i % 29 {
                0 => 0,
                1 => u32::MAX,
                _ => {
                    next = next.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    next
                }
            })
            .collect();
        for table in [0, 1, 31, (1 << 24) - 1] {
            for full in [1, 2, 8192, 1 << 18] {
                let filter = SetFilter {
                    table,
                    full,
                    sampled: RowCacheTags::rounded_slots(full >> OBSERVE_SET_SHIFT),
                };
                for len in 0..=OBSERVE_BLOCK {
                    let block = &indices[..len];
                    let mut expected = [0u32; OBSERVE_BLOCK];
                    let kept = filter.filter_scalar(block, &mut expected, 0);
                    // `filter` runs the AVX-512F wrapper where the CPU has it.
                    let mut survivors = [u32::MAX; OBSERVE_BLOCK];
                    assert_eq!(
                        filter.filter(block, &mut survivors),
                        kept,
                        "table {table} full {full} len {len}"
                    );
                    assert_eq!(
                        survivors[..kept],
                        expected[..kept],
                        "table {table} full {full} len {len}"
                    );
                }
                // All, about half, or about an eighth of a block survives.
                let kept = filter.filter(&indices, &mut [0; OBSERVE_BLOCK]);
                let expected = match full {
                    1 => OBSERVE_BLOCK..OBSERVE_BLOCK + 1,
                    2 => OBSERVE_BLOCK / 4..OBSERVE_BLOCK * 3 / 4,
                    _ => 1..OBSERVE_BLOCK / 4,
                };
                assert!(
                    expected.contains(&kept),
                    "table {table} full {full}: {kept}"
                );
            }
        }
    }

    #[test]
    fn tags_reshape_on_dim_change() {
        let mut cache = HotRowCache::new(1024);
        cache.observe_rows(0, 8, &[1; 16]);
        assert_eq!(cache.slots(), 32);
        cache.observe_rows(0, 4, &[1; 16]);
        assert_eq!(cache.slots(), 64);
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
