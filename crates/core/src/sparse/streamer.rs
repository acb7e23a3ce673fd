//! The EB-Streamer: the complete sparse accelerator pipeline that fetches
//! sparse indices, streams embedding rows out of CPU memory over the
//! chiplet links, and reduces them on the fly (Section IV-C).
//!
//! The streamer is a timing model with checks and counters. Its functional
//! entry point runs the embedding bag's own batch gather
//! ([`EmbeddingBag::reduce_batch_into_with`], a `SparseLengthsSum`: the one
//! reduction the bag has, and the one the EB-RU computes as rows stream off
//! the link), then works out the index-SRAM fills and EB-RU reductions that
//! gather costs; the bag's `Scalar` backend is the one sparse oracle. The
//! hot-row cache model belongs to the timing path, which replays each
//! request's trace through it ([`EbStreamer::execute_timing`]).
//!
//! The paper's streamer keeps many embedding reads in flight; on a CPU host
//! one core's outstanding misses bound a gather instead. So the functional
//! path has **gather lanes**: the first wave of at least 4096 lookups
//! (`SPLIT_MIN_LOOKUPS`) spawns one persistent helper thread per CPU the
//! calling thread may use beyond its own, shared out among the runtime's
//! replicas, and from then on every such wave is cut into contiguous
//! sample ranges of about equal lookups, the caller reducing the first and
//! each helper one other through the same bag gather. Each sample is still
//! summed by one lane in index order, so bits, errors and counters are
//! those of one lane. Small waves (batch-1 serving, DLRM(6)'s 160 lookups)
//! lose more to the hand-off than a second core gains and never split; nor
//! does a caller pinned to one CPU, or one of two replicas on two CPUs.

use crate::chiplet::ChipletLinkConfig;
use crate::error::CentaurError;
use crate::sparse::gather_unit::EmbeddingGatherUnit;
use crate::sparse::hot_row_cache::HotRowCache;
use crate::sparse::index_sram::SparseIndexSram;
use crate::sparse::lanes::{GatherLanes, MAX_LANES};
use crate::sparse::reduction_unit::EmbeddingReductionUnit;
use centaur_dlrm::kernel::{global_sparse_backend, SparseBackend};
use centaur_dlrm::trace::InferenceTrace;
use centaur_dlrm::{DlrmError, EmbeddingBag};
use centaur_memsim::Throughput;
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, PoisonError};

/// Timing of the sparse stage of one batched request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparseStageTiming {
    /// CPU→FPGA sparse-index fetch time (the `IDX` component of Figure 14),
    /// in ns.
    pub index_fetch_ns: f64,
    /// Embedding gather + on-the-fly reduction time (the `EMB` component),
    /// in ns.
    pub gather_reduce_ns: f64,
    /// Useful embedding bytes gathered.
    pub gathered_bytes: u64,
    /// Number of embedding-row read requests issued over the link.
    pub gather_requests: u64,
    /// Number of index-SRAM refills needed (chunked streaming).
    pub index_chunks: usize,
    /// Gathers served from the hot-row cache (no link transfer needed).
    pub cache_hits: u64,
    /// Gathers that had to stream a row over the link.
    pub cache_misses: u64,
}

impl SparseStageTiming {
    /// Total sparse-stage latency (index fetch + gathers), in ns.
    pub fn total_ns(&self) -> f64 {
        self.index_fetch_ns + self.gather_reduce_ns
    }

    /// Hot-row cache hit fraction for the request (0 when it gathers
    /// nothing).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The paper's effective memory throughput for embedding gathers:
    /// useful bytes over the gather/reduce latency. Cache hits deliver
    /// useful bytes without link transfers, so effective throughput can
    /// exceed the raw link bandwidth on skewed traffic — exactly the
    /// on-chip-reuse win the paper's block-RAM budget buys.
    pub fn effective_throughput(&self) -> Throughput {
        Throughput::new(self.gathered_bytes, self.gather_reduce_ns)
    }
}

/// The sparse accelerator complex.
#[derive(Debug, Clone)]
pub struct EbStreamer {
    link: ChipletLinkConfig,
    index_sram: SparseIndexSram,
    gather_unit: EmbeddingGatherUnit,
    reduction_unit: EmbeddingReductionUnit,
    /// The embedding bag's backend the functional path runs on. `Scalar`
    /// is the oracle (per-row accumulate); `Vectorized` runs the
    /// register-tiled prefetching kernels. Simulated time and counters are
    /// the same on both.
    backend: SparseBackend,
    /// The hot-row cache model the timing path replays every trace
    /// through; its residency carries across requests.
    hot_cache: HotRowCache,
    /// The threads large functional waves are split over.
    lanes: GatherLanes,
}

impl EbStreamer {
    /// Creates a streamer over the given link with the paper's SRAM/ALU
    /// sizing and the production sparse backend.
    pub fn new(link: ChipletLinkConfig) -> Self {
        EbStreamer {
            link,
            index_sram: SparseIndexSram::harpv2_sized(),
            gather_unit: EmbeddingGatherUnit::new(),
            reduction_unit: EmbeddingReductionUnit::harpv2_sized(),
            backend: global_sparse_backend(),
            hot_cache: HotRowCache::harpv2_sized(),
            lanes: GatherLanes::new(1),
        }
    }

    /// Creates a streamer with explicit components (for ablations).
    pub fn with_components(
        link: ChipletLinkConfig,
        index_sram: SparseIndexSram,
        reduction_unit: EmbeddingReductionUnit,
    ) -> Self {
        EbStreamer {
            link,
            index_sram,
            gather_unit: EmbeddingGatherUnit::new(),
            reduction_unit,
            backend: global_sparse_backend(),
            hot_cache: HotRowCache::harpv2_sized(),
            lanes: GatherLanes::new(1),
        }
    }

    /// The link configuration in use.
    pub fn link(&self) -> &ChipletLinkConfig {
        &self.link
    }

    /// The gather unit (exposes issue counters).
    pub fn gather_unit(&self) -> &EmbeddingGatherUnit {
        &self.gather_unit
    }

    /// The reduction unit (exposes reduction counters).
    pub fn reduction_unit(&self) -> &EmbeddingReductionUnit {
        &self.reduction_unit
    }

    /// The index SRAM (exposes chunking behaviour).
    pub fn index_sram(&self) -> &SparseIndexSram {
        &self.index_sram
    }

    /// The hot-row cache model (exposes the cumulative hit/miss counts of
    /// the timing replay).
    pub fn hot_row_cache(&self) -> &HotRowCache {
        &self.hot_cache
    }

    /// The sparse backend executing the functional gather-reduce path.
    pub fn sparse_backend(&self) -> SparseBackend {
        self.backend
    }

    /// Selects the sparse backend for subsequent requests.
    pub fn set_sparse_backend(&mut self, backend: SparseBackend) {
        self.backend = backend;
    }

    /// Lanes this streamer's large waves run on, its caller's included: 1
    /// until the first wave of 4096 lookups or more, and on a caller with
    /// no second CPU to use.
    pub fn gather_lanes(&self) -> usize {
        self.lanes.spawned()
    }

    /// Shares the caller's CPUs with `replicas` runtime replicas when the
    /// lanes are spawned: each gets `cpus / replicas` lanes.
    pub(crate) fn share_cpus_with(&mut self, replicas: usize) {
        self.lanes.share_with(replicas);
    }

    /// Splits every wave over exactly `lanes` lanes.
    #[cfg(test)]
    pub(crate) fn force_lanes(&mut self, lanes: usize) {
        self.lanes = GatherLanes::forced(lanes);
    }

    /// The helper threads of this streamer's lanes.
    #[cfg(test)]
    pub(crate) fn lane_threads(&self) -> Vec<std::thread::ThreadId> {
        self.lanes.helper_threads()
    }

    /// Swaps in a differently-budgeted hot-row cache (for ablations); the
    /// next [`EbStreamer::execute_timing`] replays through it.
    pub fn set_hot_row_cache(&mut self, cache: HotRowCache) {
        self.hot_cache = cache;
    }

    // ------------------------------------------------------------------
    // Functional path
    // ------------------------------------------------------------------

    /// Batch-major gather/reduce: reduces every sample's bags into its row
    /// of a caller-owned `[batch, row_stride]` buffer at column
    /// `row_offset` — exactly the layout of the model's staged feature rows,
    /// so gathered rows land where the interaction reads them.
    /// `batch_indices[s]` is sample `s`'s per-table index lists, so one
    /// request is `&[indices_per_table]`.
    ///
    /// Two steps: the bag's own [`EmbeddingBag::reduce_batch_into_with`] on
    /// this streamer's backend, then the counters. A wave of 4096 lookups
    /// or more runs that gather on the streamer's lanes (see the module
    /// doc), each lane over its own samples and rows of `out`; the caller
    /// returns once every lane has, with the error of the first failing
    /// sample in sample order, as one lane would. Every lookup is one EB-RU reduction, and the batch's
    /// `Σₜ nₜ` indices stream through the index SRAM in chunks, as the
    /// timing model charges them: `⌈Σₜ nₜ / capacity⌉` fills. The counters
    /// are worked out once, on the caller; a failed request counts nothing.
    ///
    /// # Errors
    ///
    /// Propagates index-out-of-bounds, table-count and shape errors from the
    /// bag.
    pub fn gather_reduce_batch_into<S: AsRef<[Vec<u32>]> + Sync>(
        &mut self,
        bag: &EmbeddingBag,
        batch_indices: &[S],
        out: &mut [f32],
        row_stride: usize,
        row_offset: usize,
    ) -> Result<(), CentaurError> {
        let lookups: usize = batch_indices
            .iter()
            .map(|s| EmbeddingBag::lookups_in_request(s.as_ref()))
            .sum();
        // A mis-sized `out` cannot be cut into lanes' rows; one lane reports
        // it.
        let lanes = if out.len() == batch_indices.len() * row_stride {
            self.lanes.lanes_for(lookups)
        } else {
            1
        };
        let wave = Wave {
            bag,
            batch_indices,
            row_stride,
            row_offset,
            backend: self.backend,
        };
        if lanes == 1 {
            wave.reduce(0..batch_indices.len(), out)?;
        } else {
            wave.reduce_on(&self.lanes, lanes, lookups, out)?;
        }
        self.reduction_unit.record_reductions(lookups as u64);
        self.index_sram
            .record_loads(self.index_sram.chunks_needed(lookups) as u64);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Timing path
    // ------------------------------------------------------------------

    /// Predicts the sparse-stage timing for one batched request.
    ///
    /// The hot-row cache model is replayed over the trace's row stream,
    /// whatever the functional backend: hits never cross the link, so only
    /// cold rows pay CPU-memory transfers — on skewed traffic the effective
    /// gather throughput rises above the raw link bandwidth.
    pub fn execute_timing(&mut self, trace: &InferenceTrace) -> SparseStageTiming {
        let total_lookups = trace.gather.total_lookups() as u64;
        let gathered_bytes = trace.gathered_bytes();
        let index_bytes = trace.index_bytes();
        let row_bytes = trace.config.row_bytes() as u64;

        // One EB-GU read request per lookup.
        self.gather_unit.record_requests(total_lookups, row_bytes);

        // Replay the hot-row cache over the trace (tags only — the timing
        // path never touches row data).
        let (cache_hits, cache_misses) = self.hot_cache.replay(trace);
        self.gather_unit.record_suppressed(cache_hits);

        // 1. Fetch the sparse index array into the index SRAM (possibly in
        //    chunks; chunk fills overlap with gathers after the first, so
        //    only the first fill is exposed plus a small per-chunk
        //    resynchronisation cost).
        let index_chunks = self.index_sram.chunks_needed(total_lookups as usize);
        let chunk_bytes = index_bytes / index_chunks.max(1) as u64;
        let index_fetch_ns = self.link.bulk_transfer_ns(chunk_bytes)
            + (index_chunks.saturating_sub(1)) as f64 * self.link.request_latency_ns;

        // 2. Stream the cold embedding rows over the link, reducing on the
        //    fly (cache hits reduce straight out of block RAM). The link is
        //    the bottleneck for misses; the EB-RU must still keep up with
        //    the full reduction stream.
        let link_ns = self
            .link
            .gather_stream_ns(cache_misses * row_bytes, cache_misses);
        let reduce_ns = self
            .reduction_unit
            .reduction_time_ns(total_lookups, trace.config.embedding_dim);
        let gather_reduce_ns = link_ns.max(reduce_ns);

        SparseStageTiming {
            index_fetch_ns,
            gather_reduce_ns,
            gathered_bytes,
            gather_requests: total_lookups,
            index_chunks,
            cache_hits,
            cache_misses,
        }
    }
}

/// One functional wave's gather: the bag, the batch and where its reduced
/// rows go.
struct Wave<'a, S> {
    bag: &'a EmbeddingBag,
    batch_indices: &'a [S],
    row_stride: usize,
    row_offset: usize,
    backend: SparseBackend,
}

/// A lane's rows of the output, and what its gather returned.
struct LaneSlot<'a> {
    out: &'a mut [f32],
    result: Result<(), DlrmError>,
}

impl<S: AsRef<[Vec<u32>]> + Sync> Wave<'_, S> {
    /// The bag's gather over the samples in `samples`, into `out`, their
    /// rows.
    fn reduce(&self, samples: std::ops::Range<usize>, out: &mut [f32]) -> Result<(), DlrmError> {
        self.bag.reduce_batch_into_with(
            &self.batch_indices[samples],
            out,
            self.row_stride,
            self.row_offset,
            self.backend,
        )
    }

    /// [`Wave::reduce`] over the whole wave, cut over `count` lanes into
    /// contiguous sample ranges of about `lookups / count` lookups each;
    /// returns the error of the first lane, in sample order, that failed.
    fn reduce_on(
        &self,
        lanes: &GatherLanes,
        count: usize,
        lookups: usize,
        out: &mut [f32],
    ) -> Result<(), DlrmError> {
        let batch = self.batch_indices.len();
        // Lane k starts at the first sample with k/count of the lookups
        // before it.
        let mut starts = [batch; MAX_LANES + 1];
        starts[0] = 0;
        let (mut lane, mut before) = (1, 0);
        for (sample, per_table) in self.batch_indices.iter().enumerate() {
            while lane < count && before * count >= lane * lookups {
                starts[lane] = sample;
                lane += 1;
            }
            before += EmbeddingBag::lookups_in_request(per_table.as_ref());
        }
        // Lanes past `count` start and end at `batch`: their slots are
        // empty.
        let mut rest = out;
        let slots: [Mutex<LaneSlot<'_>>; MAX_LANES] = std::array::from_fn(|k| {
            let rows = (starts[k + 1] - starts[k]) * self.row_stride;
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(rows);
            rest = tail;
            Mutex::new(LaneSlot {
                out,
                result: Ok(()),
            })
        });
        lanes.run(&|k| {
            let mut slot = slots[k].lock().unwrap_or_else(PoisonError::into_inner);
            slot.result = self.reduce(starts[k]..starts[k + 1], std::mem::take(&mut slot.out));
        });
        for slot in slots.into_iter().take(count) {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .result?;
        }
        Ok(())
    }
}

impl Default for EbStreamer {
    fn default() -> Self {
        EbStreamer::new(ChipletLinkConfig::harpv2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::PaperModel;
    use centaur_workload::{IndexDistribution, RequestGenerator};

    /// One request's `[num_tables * dim]` reduced embeddings through the
    /// bag alone: the reference a streamer's gather must equal.
    fn reference(bag: &EmbeddingBag, request: &[Vec<u32>]) -> Vec<f32> {
        let width = bag.num_tables() * bag.dim();
        let mut out = vec![f32::NAN; width];
        bag.reduce_batch_into(&[request], &mut out, width, 0)
            .unwrap();
        out
    }

    #[test]
    fn functional_gather_reduce_matches_reference() {
        let bag = EmbeddingBag::random(4, 256, 32, 7);
        let indices: Vec<Vec<u32>> = (0..4)
            .map(|t| (0..10u32).map(|i| (t as u32 * 37 + i * 11) % 256).collect())
            .collect();
        let mut streamer = EbStreamer::default();
        let mut ours = vec![f32::NAN; 4 * 32];
        streamer
            .gather_reduce_batch_into(&bag, &[&indices], &mut ours, 4 * 32, 0)
            .unwrap();
        // Same rows added in the same order by the same kernel: bitwise.
        assert_eq!(ours, reference(&bag, &indices));
        assert_eq!(streamer.reduction_unit().vectors_reduced(), 40);
    }

    #[test]
    fn functional_gather_reduce_chunks_when_sram_small() {
        let bag = EmbeddingBag::random(1, 128, 8, 3);
        let indices = vec![(0..100u32).map(|i| i % 128).collect::<Vec<_>>()];
        let tiny_sram = SparseIndexSram::new(16);
        let mut streamer = EbStreamer::with_components(
            ChipletLinkConfig::harpv2(),
            tiny_sram,
            EmbeddingReductionUnit::harpv2_sized(),
        );
        let mut ours = vec![f32::NAN; 8];
        streamer
            .gather_reduce_batch_into(&bag, &[&indices], &mut ours, 8, 0)
            .unwrap();
        // Chunk boundaries do not reorder the accumulation: bitwise.
        assert_eq!(ours, reference(&bag, &indices));
        assert_eq!(streamer.index_sram().loads(), 7);
    }

    #[test]
    fn lists_spanning_fills_match_the_scalar_streamer_bitwise() {
        // A 16-index SRAM against lists of 0, 1, 15–17 and 40 indices: a
        // fill holds a few whole lists, the tail of one and the head of the
        // next, so the prefetch window restarts per fill, mid-list, and a
        // list folds into its block across two or three fills.
        let lens = [5usize, 0, 17, 1, 40, 16, 3, 15, 0, 22];
        for dim in [8usize, 32] {
            let bag = EmbeddingBag::random(3, 512, dim, 17);
            let batch_indices: Vec<Vec<Vec<u32>>> = (0..lens.len())
                .map(|s| {
                    (0..3usize)
                        .map(|t| {
                            (0..lens[(s + t) % lens.len()])
                                .map(|i| ((s * 131 + t * 71 + i * 37) % 512) as u32)
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let stride = 3 * dim + 5;
            let run = |backend| {
                let mut streamer = EbStreamer::with_components(
                    ChipletLinkConfig::harpv2(),
                    SparseIndexSram::new(16),
                    EmbeddingReductionUnit::harpv2_sized(),
                );
                streamer.set_sparse_backend(backend);
                let mut out = vec![f32::NAN; lens.len() * stride];
                streamer
                    .gather_reduce_batch_into(&bag, &batch_indices, &mut out, stride, 5)
                    .unwrap();
                (out, streamer.index_sram().loads())
            };
            let (oracle, _) = run(SparseBackend::Scalar);
            let (out, fills) = run(SparseBackend::Vectorized);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&oracle), "dim {dim}");
            // 3 × 119 indices through 16 at a time.
            assert_eq!(fills, 23, "dim {dim}");
        }
    }

    #[test]
    fn batched_gather_reduce_matches_reference_with_offset_layout() {
        let bag = EmbeddingBag::random(3, 128, 8, 5);
        let batch_indices: Vec<Vec<Vec<u32>>> = (0..4)
            .map(|s| {
                (0..3)
                    .map(|t| {
                        (0..6u32)
                            .map(|i| (s as u32 * 41 + t * 13 + i * 7) % 128)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Feature-matrix layout: stride = (tables + 1) * dim, reduced block
        // at column `dim` — row 0 of each sample is left for the bottom MLP.
        let stride = 4 * 8;
        let mut out = vec![f32::NAN; 4 * stride];
        let mut streamer = EbStreamer::default();
        streamer
            .gather_reduce_batch_into(&bag, &batch_indices, &mut out, stride, 8)
            .unwrap();
        for (s, indices) in batch_indices.iter().enumerate() {
            let block = &out[s * stride + 8..s * stride + 8 + 24];
            assert_eq!(block, reference(&bag, indices));
            // The bottom-MLP slot must be untouched.
            assert!(out[s * stride..s * stride + 8].iter().all(|x| x.is_nan()));
        }
        assert_eq!(streamer.reduction_unit().vectors_reduced(), 4 * 3 * 6);
    }

    #[test]
    fn batched_gather_reduce_rejects_bad_layout() {
        let bag = EmbeddingBag::random(2, 64, 8, 1);
        let batch_indices = vec![vec![vec![0u32], vec![1]]];
        let mut streamer = EbStreamer::default();
        // Reduced block (16) does not fit the row past the offset.
        let mut out = vec![0.0f32; 20];
        assert!(streamer
            .gather_reduce_batch_into(&bag, &batch_indices, &mut out, 20, 8)
            .is_err());
        // Wrong total length.
        let mut out = vec![0.0f32; 16];
        assert!(streamer
            .gather_reduce_batch_into(&bag, &batch_indices, &mut out, 24, 0)
            .is_err());
    }

    #[test]
    fn table_count_mismatch_errors() {
        let bag = EmbeddingBag::random(2, 64, 8, 1);
        let mut streamer = EbStreamer::default();
        let mut out = vec![0.0f32; 16];
        let request = [vec![1]];
        assert!(streamer
            .gather_reduce_batch_into(&bag, &[&request], &mut out, 16, 0)
            .is_err());
    }

    fn timing(model: PaperModel, batch: usize) -> SparseStageTiming {
        let config = model.config();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 9);
        let trace = generator.inference_trace(batch);
        EbStreamer::default().execute_timing(&trace)
    }

    #[test]
    fn effective_throughput_saturates_near_streamer_bandwidth() {
        // Large batch, lookup-heavy model: throughput approaches the
        // streamer's sustainable link bandwidth (~12 GB/s on HARPv2).
        let t = timing(PaperModel::Dlrm4, 128);
        let gbs = t.effective_throughput().gigabytes_per_second();
        let target = ChipletLinkConfig::harpv2().streamer_bandwidth_gbs();
        assert!(
            (gbs - target).abs() / target < 0.1,
            "effective {gbs:.1} GB/s should be near {target:.1}"
        );
    }

    #[test]
    fn small_batches_are_latency_bound() {
        let t = timing(PaperModel::Dlrm1, 1);
        let gbs = t.effective_throughput().gigabytes_per_second();
        let target = ChipletLinkConfig::harpv2().streamer_bandwidth_gbs();
        assert!(gbs < 0.95 * target);
        assert!(t.index_fetch_ns > 0.0);
        assert!(t.total_ns() > t.gather_reduce_ns);
    }

    #[test]
    fn throughput_grows_with_batch() {
        let small = timing(PaperModel::Dlrm3, 1)
            .effective_throughput()
            .gigabytes_per_second();
        let large = timing(PaperModel::Dlrm3, 64)
            .effective_throughput()
            .gigabytes_per_second();
        assert!(large > small);
    }

    #[test]
    fn every_sparse_backend_is_bitwise_identical_through_the_streamer() {
        let bag = EmbeddingBag::random(3, 256, 32, 13);
        let batch_indices: Vec<Vec<Vec<u32>>> = (0..6)
            .map(|s| {
                (0..3)
                    .map(|t| {
                        (0..20u32)
                            .map(|i| (s as u32 * 37 + t * 11 + i * 3) % 64) // skewed head
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let stride = 3 * 32;
        let mut oracle = vec![0.0f32; 6 * stride];
        let mut streamer = EbStreamer::default();
        streamer.set_sparse_backend(SparseBackend::Scalar);
        streamer
            .gather_reduce_batch_into(&bag, &batch_indices, &mut oracle, stride, 0)
            .unwrap();
        assert_eq!(streamer.reduction_unit().vectors_reduced(), 6 * 3 * 20);
        let mut streamer = EbStreamer::default();
        assert_eq!(streamer.sparse_backend(), SparseBackend::Vectorized);
        let mut out = vec![0.0f32; 6 * stride];
        streamer
            .gather_reduce_batch_into(&bag, &batch_indices, &mut out, stride, 0)
            .unwrap();
        assert_eq!(oracle, out, "vectorized diverged from scalar streamer");
        // Per-backend counters still advance identically.
        assert_eq!(streamer.reduction_unit().vectors_reduced(), 6 * 3 * 20);
    }

    #[test]
    fn counters_do_not_depend_on_the_backend() {
        // 6 samples x 3 tables x 20 indices at HARPv2 size: the batch's 360
        // indices are one fill whichever engine gathers them.
        let bag = EmbeddingBag::random(3, 256, 32, 13);
        let batch_indices: Vec<Vec<Vec<u32>>> = (0..6)
            .map(|s| {
                (0..3)
                    .map(|t| {
                        (0..20u32)
                            .map(|i| (s * 37 + t * 11 + i * 3) % 256)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let counts = |backend| {
            let mut streamer = EbStreamer::default();
            streamer.set_sparse_backend(backend);
            let mut out = vec![0.0f32; 6 * 3 * 32];
            streamer
                .gather_reduce_batch_into(&bag, &batch_indices, &mut out, 3 * 32, 0)
                .unwrap();
            (
                streamer.reduction_unit().vectors_reduced(),
                streamer.index_sram().loads(),
            )
        };
        assert_eq!(counts(SparseBackend::Scalar), (6 * 3 * 20, 1));
        assert_eq!(counts(SparseBackend::Vectorized), (6 * 3 * 20, 1));
    }

    #[test]
    fn functional_fills_follow_the_timing_models_chunk_rule() {
        // DLRM(1) tables at batch 64 (5 × 1280 indices), through a 4096-index
        // SRAM: the timing model streams the batch's 6400 indices in two
        // chunks, and the functional gather must count the same two fills —
        // not one per table.
        let config = PaperModel::Dlrm1.config().with_rows_per_table(1024);
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 3);
        let batch = generator.functional_batch(64);
        let trace = generator.inference_trace(64);
        let bag = EmbeddingBag::random(config.num_tables, 1024, config.embedding_dim, 3);
        let stride = bag.num_tables() * bag.dim();
        let streamer = || {
            EbStreamer::with_components(
                ChipletLinkConfig::harpv2(),
                SparseIndexSram::new(4096),
                EmbeddingReductionUnit::harpv2_sized(),
            )
        };
        let mut functional = streamer();
        let mut out = vec![0.0f32; 64 * stride];
        functional
            .gather_reduce_batch_into(&bag, &batch.sparse, &mut out, stride, 0)
            .unwrap();
        let timing = streamer().execute_timing(&trace);
        assert_eq!(timing.index_chunks, 2);
        assert_eq!(functional.index_sram().loads(), 2);
    }

    /// Per-table lists of uneven lengths, empty ones among them, over
    /// `tables` tables of 512 rows.
    fn uneven_batch(samples: usize, tables: usize) -> Vec<Vec<Vec<u32>>> {
        let lens = [5usize, 0, 17, 1, 40, 16, 3, 15, 0, 22, 90];
        (0..samples)
            .map(|s| {
                (0..tables)
                    .map(|t| {
                        (0..lens[(s * 7 + t) % lens.len()])
                            .map(|i| ((s * 131 + t * 71 + i * 37) % 512) as u32)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn forced_lanes_are_bitwise_equal_to_the_scalar_oracle() {
        let bag = EmbeddingBag::random(3, 512, 16, 29);
        let stride = 3 * 16 + 4;
        let run = |streamer: &mut EbStreamer, batch: &[Vec<Vec<u32>>]| {
            let mut out = vec![f32::NAN; batch.len() * stride];
            streamer
                .gather_reduce_batch_into(&bag, batch, &mut out, stride, 4)
                .unwrap();
            let counters = (
                streamer.reduction_unit().vectors_reduced(),
                streamer.index_sram().loads(),
            );
            (
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                counters,
            )
        };
        // Batches smaller than the lane count, one sample of empty lists,
        // and uneven lists.
        let mut batches = vec![uneven_batch(0, 3), vec![vec![vec![]; 3]]];
        batches.extend([1, 2, 3, 9, 64].map(|samples| uneven_batch(samples, 3)));
        for batch in &batches {
            let mut oracle = EbStreamer::default();
            oracle.set_sparse_backend(SparseBackend::Scalar);
            let want = run(&mut oracle, batch);
            for lanes in 1..=4 {
                for backend in [SparseBackend::Scalar, SparseBackend::Vectorized] {
                    let mut streamer = EbStreamer::default();
                    streamer.force_lanes(lanes);
                    streamer.set_sparse_backend(backend);
                    // Twice: the lanes spawn at the first wave and are
                    // reused by the second.
                    assert_eq!(
                        run(&mut streamer, batch),
                        want,
                        "{lanes} lanes, {backend:?}"
                    );
                    let (bits, (reduced, fills)) = run(&mut streamer, batch);
                    assert_eq!(bits, want.0);
                    assert_eq!((reduced, fills), (2 * want.1 .0, 2 * want.1 .1));
                    assert_eq!(streamer.gather_lanes(), lanes);
                }
            }
        }
    }

    #[test]
    fn an_invalid_index_in_the_last_lane_fails_as_on_one_lane_and_counts_nothing() {
        let bag = EmbeddingBag::random(3, 512, 8, 31);
        let stride = 3 * 8;
        let mut batch = uneven_batch(12, 3);
        // Sample 10 is in the last of four lanes; its table 2 reads row 600
        // of 512 after a valid row, and sample 11's table 0 reads 700.
        batch[10][2] = vec![3, 600];
        batch[11][0] = vec![700];
        let fail = |lanes: Option<usize>| {
            let mut streamer = EbStreamer::default();
            if let Some(lanes) = lanes {
                streamer.force_lanes(lanes);
            }
            let mut out = vec![0.0f32; batch.len() * stride];
            let err = streamer
                .gather_reduce_batch_into(&bag, &batch, &mut out, stride, 0)
                .unwrap_err();
            assert_eq!(streamer.reduction_unit().vectors_reduced(), 0);
            assert_eq!(streamer.index_sram().loads(), 0);
            err
        };
        let one = fail(None);
        assert!(matches!(
            one,
            CentaurError::Model(DlrmError::IndexOutOfBounds {
                index: 600,
                rows: 512,
                table: 2
            })
        ));
        for lanes in 2..=4 {
            assert_eq!(
                fail(Some(lanes)).to_string(),
                one.to_string(),
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn functional_gathers_leave_the_cache_model_alone_and_timing_counts_accumulate() {
        let config = PaperModel::Dlrm1.config().with_rows_per_table(4096);
        let hot = IndexDistribution::HotSet {
            hot_rows: 64,
            hot_fraction: 0.9,
        };
        let mut generator = RequestGenerator::new(&config, hot, 5);
        let bag = EmbeddingBag::random(config.num_tables, 4096, config.embedding_dim, 3);
        let stride = bag.num_tables() * bag.dim();
        let batch = generator.functional_batch(16);
        let mut out = vec![0.0f32; 16 * stride];
        let mut streamer = EbStreamer::default();
        streamer
            .gather_reduce_batch_into(&bag, &batch.sparse, &mut out, stride, 0)
            .unwrap();
        let cache = streamer.hot_row_cache();
        assert_eq!(cache.hits() + cache.misses(), 0, "a gather probed the tags");
        // The model's counts are the replay's, summed over requests.
        let first = streamer.execute_timing(&generator.inference_trace(16));
        let second = streamer.execute_timing(&generator.inference_trace(16));
        let cache = streamer.hot_row_cache();
        assert!(second.cache_hits > 0, "a warm hot set must hit");
        assert_eq!(cache.hits(), first.cache_hits + second.cache_hits);
        assert_eq!(cache.misses(), first.cache_misses + second.cache_misses);
    }

    #[test]
    fn swapping_the_cache_rebuilds_the_timing_tags() {
        let config = PaperModel::Dlrm1.config();
        // 64 hot rows in each of 5 tables: they all fit the HARPv2-sized
        // cache, and a one-row budget keeps one of them at a time.
        let hot = IndexDistribution::HotSet {
            hot_rows: 64,
            hot_fraction: 0.9,
        };
        let trace = RequestGenerator::new(&config, hot, 21).inference_trace(32);
        let mut streamer = EbStreamer::default();
        let roomy = streamer.execute_timing(&trace);
        assert!(
            roomy.cache_hit_rate() > 0.5,
            "rate {}",
            roomy.cache_hit_rate()
        );
        assert_eq!(roomy.cache_hits + roomy.cache_misses, roomy.gather_requests);
        assert_eq!(
            streamer.gather_unit().requests_suppressed(),
            roomy.cache_hits
        );
        streamer.set_hot_row_cache(HotRowCache::new(config.row_bytes()));
        let cramped = streamer.execute_timing(&trace);
        assert_eq!(streamer.hot_row_cache().slots(), 1);
        // Tags kept from the first call would be warm and 8192 slots wide,
        // and would hit more often than the cold first call did.
        assert!(
            cramped.cache_hits < roomy.cache_hits,
            "one slot hit {} times, the HARPv2 budget {}",
            cramped.cache_hits,
            roomy.cache_hits
        );
        assert_eq!(
            streamer.gather_unit().requests_suppressed(),
            roomy.cache_hits + cramped.cache_hits
        );
        // Hits never cross the link: the roomy cache shortens the modelled
        // gather stream, and its effective throughput is the higher.
        assert!(cramped.gather_reduce_ns > roomy.gather_reduce_ns);
        assert!(
            cramped.effective_throughput().gigabytes_per_second()
                < roomy.effective_throughput().gigabytes_per_second()
        );
    }

    #[test]
    fn uniform_traces_on_paper_tables_barely_hit() {
        // 200 K-row tables under uniform draws: the cache model must report
        // (near) no reuse, keeping the paper's worst-case behaviour intact.
        let t = timing(PaperModel::Dlrm1, 16);
        assert!(
            t.cache_hit_rate() < 0.1,
            "uniform hit rate {}",
            t.cache_hit_rate()
        );
    }

    #[test]
    fn index_chunks_used_for_very_large_batches() {
        // DLRM(4) at batch 128 needs 512K indices, more than the index SRAM
        // holds — the streamer must chunk.
        let t = timing(PaperModel::Dlrm4, 128);
        assert!(t.index_chunks > 1);
        assert_eq!(t.gather_requests, 128 * 50 * 80);
    }
}
