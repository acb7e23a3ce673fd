//! Property-based tests (proptest) on the core data structures and
//! invariants of the workspace: gather/reduce semantics, cache accounting,
//! trace accounting and timing-model monotonicity.

use centaur::sparse::EbStreamer;
use centaur_dlrm::{EmbeddingBag, EmbeddingTable, SparseBackend};
use centaur_memsim::{AccessKind, CacheConfig, SetAssociativeCache, CACHE_LINE_BYTES};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gather_reduce_into` equals the naive per-column sum of the gathered
    /// rows, for arbitrary index multisets.
    #[test]
    fn gather_reduce_matches_naive_sum(
        rows in 1usize..64,
        dim in 1usize..16,
        indices in proptest::collection::vec(0u32..64, 0..32),
    ) {
        let table = EmbeddingTable::random(rows, dim, 42);
        let indices: Vec<u32> = indices.into_iter().map(|i| i % rows as u32).collect();
        let mut reduced = vec![f32::NAN; dim];
        table.gather_reduce_into(&indices, &mut reduced, SparseBackend::Vectorized).unwrap();
        let mut expected = vec![0.0f32; dim];
        for &i in &indices {
            for (e, &v) in expected.iter_mut().zip(table.row(i).unwrap()) {
                *e += v;
            }
        }
        for (a, b) in reduced.iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// The EB-Streamer's functional gather/reduce equals the reference
    /// `EmbeddingBag` operator for arbitrary per-table index lists.
    #[test]
    fn streamer_matches_reference_bag(
        tables in 1usize..5,
        dim in 1usize..12,
        seed in 0u64..1000,
        lens in proptest::collection::vec(0usize..20, 1..5),
    ) {
        let rows = 128u32;
        let bag = EmbeddingBag::random(tables, rows as usize, dim, seed);
        let indices: Vec<Vec<u32>> = (0..tables)
            .map(|t| {
                let len = lens[t % lens.len()];
                (0..len).map(|i| ((seed as u32).wrapping_mul(31).wrapping_add((t * 17 + i * 7) as u32)) % rows).collect()
            })
            .collect();
        let width = tables * dim;
        let (mut reference, mut ours) = (vec![f32::NAN; width], vec![f32::NAN; width]);
        bag.reduce_batch_into(&[&indices], &mut reference, width, 0).unwrap();
        let mut streamer = EbStreamer::default();
        streamer.gather_reduce_batch_into(&bag, &[&indices], &mut ours, width, 0).unwrap();
        // Same rows added in the same order by the same kernel: bitwise.
        prop_assert_eq!(ours, reference);
    }

    /// Cache accounting is self-consistent: hits + misses == accesses, and
    /// occupancy never exceeds capacity.
    #[test]
    fn cache_stats_are_consistent(
        addrs in proptest::collection::vec(0u64..(1 << 16), 1..400),
        ways in 1usize..8,
        sets in 1u64..32,
    ) {
        let mut cache = SetAssociativeCache::new(CacheConfig::new(
            sets * ways as u64 * CACHE_LINE_BYTES,
            ways,
            1.0,
        ));
        for &a in &addrs {
            cache.access(a, AccessKind::Read);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, stats.accesses);
        prop_assert_eq!(stats.accesses, addrs.len() as u64);
        prop_assert!(cache.occupancy() <= (sets as usize) * ways);
        // Re-touching the most recent address must hit.
        let last = *addrs.last().unwrap();
        prop_assert!(cache.probe(last));
    }

    /// Reduction over a permuted index list gives the same result (sum is
    /// order-independent up to float tolerance).
    #[test]
    fn reduction_is_permutation_invariant(
        mut indices in proptest::collection::vec(0u32..50, 1..24),
    ) {
        let table = EmbeddingTable::random(50, 8, 7);
        let (mut forward, mut backward) = ([f32::NAN; 8], [f32::NAN; 8]);
        table.gather_reduce_into(&indices, &mut forward, SparseBackend::Vectorized).unwrap();
        indices.reverse();
        table.gather_reduce_into(&indices, &mut backward, SparseBackend::Vectorized).unwrap();
        prop_assert!(forward.iter().zip(&backward).all(|(a, b)| (a - b).abs() < 1e-4));
    }
}

mod timing_properties {
    use super::*;
    use centaur::CentaurSystem;
    use centaur_cpusim::CpuSystem;
    use centaur_dlrm::PaperModel;
    use centaur_workload::{IndexDistribution, RequestGenerator};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Simulated CPU latency grows when the batch grows (holding the
        /// model fixed), and every latency component is non-negative.
        #[test]
        fn cpu_latency_monotonic_in_batch(batch in 1usize..24, seed in 0u64..50) {
            let config = PaperModel::Dlrm1.config();
            let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, seed);
            let small = generator.inference_trace(batch);
            let large = generator.inference_trace(batch * 4);
            let mut system = CpuSystem::broadwell();
            let r_small = system.simulate(&small);
            let mut system = CpuSystem::broadwell();
            let r_large = system.simulate(&large);
            prop_assert!(r_small.total_ns() > 0.0);
            prop_assert!(r_large.total_ns() > r_small.total_ns());
            prop_assert!(r_small.breakdown.embedding_ns >= 0.0);
            prop_assert!(r_small.breakdown.mlp_ns >= 0.0);
        }

        /// The link-side gather stream never exceeds the link's streamer
        /// bandwidth, for any batch size: only *cold* rows (hot-row cache
        /// misses) cross the link, and effective throughput may exceed the
        /// raw link bandwidth **only** by exactly the cache-hit bytes the
        /// on-chip reuse keeps off the wire.
        #[test]
        fn centaur_link_stream_bounded_by_link(batch in 1usize..40, seed in 0u64..50) {
            let config = PaperModel::Dlrm3.config();
            let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, seed);
            let trace = generator.inference_trace(batch);
            let mut system = CentaurSystem::harpv2();
            let result = system.simulate(&trace);
            let limit = system.config().link.streamer_bandwidth_gbs();
            let sparse = &result.sparse;
            // Cold rows stream at no more than the link bandwidth.
            let miss_bytes = sparse.cache_misses * config.row_bytes() as u64;
            let link_gbs = centaur_memsim::Throughput::new(miss_bytes, sparse.gather_reduce_ns)
                .gigabytes_per_second();
            prop_assert!(link_gbs <= limit + 1e-6, "{} > {}", link_gbs, limit);
            // Cache accounting must cover every gather exactly once.
            prop_assert_eq!(sparse.cache_hits + sparse.cache_misses, sparse.gather_requests);
            // Without cache hits the PR 2 bound still holds exactly: the
            // effective (useful-bytes) throughput cannot exceed the link.
            let gbs = result.effective_embedding_throughput().gigabytes_per_second();
            if sparse.cache_hits == 0 {
                prop_assert!(gbs <= limit + 1e-6, "{} > {}", gbs, limit);
            }
        }
    }
}
