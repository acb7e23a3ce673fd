//! Property tests pinning the vectorized sparse gather-reduce backend to
//! the `Scalar` correctness oracle — **bitwise**, not within tolerance:
//! the production kernels accumulate every output element in index order
//! with plain IEEE adds (there is no multiply to fuse), so any difference
//! at all is a bug.

use centaur_dlrm::kernel::{gather_lists_sum, SparseBackend};
use centaur_dlrm::{DlrmError, EmbeddingBag, EmbeddingTable};
use proptest::prelude::*;

/// Deterministic pseudo-random table values for a given seed.
fn table_for(rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
    EmbeddingTable::from_fn(rows, dim, |r, c| {
        let x = ((r * 131 + c * 17) as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(seed);
        ((x >> 33) % 255) as f32 * 0.03125 - 4.0
    })
}

/// Deterministic index list with controllable skew: even seeds draw from
/// the whole table, odd seeds hammer a small hot set (repeated rows are
/// exactly what the streamer's cache model sees in production).
fn indices_for(rows: usize, len: usize, seed: u64) -> Vec<u32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(2862933555777941757)
                .wrapping_add(seed);
            let span = if seed % 2 == 1 {
                rows.div_ceil(8)
            } else {
                rows
            };
            ((x >> 32) % span.max(1) as u64) as u32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table-level gather-reduce: the production backend is bitwise equal
    /// to the scalar oracle across dims that
    /// exercise the 32-wide tile, the 8-wide tile and the scalar tail.
    #[test]
    fn table_gather_reduce_matches_oracle_bitwise(
        rows in 1usize..300,
        dim in 0usize..70,
        len in 0usize..120,
        seed in 0u64..10_000,
    ) {
        let table = table_for(rows, dim, seed);
        let indices = indices_for(rows, len, seed);
        let mut oracle = vec![f32::NAN; dim];
        table
            .gather_reduce_into(&indices, &mut oracle, SparseBackend::Scalar)
            .unwrap();
        let mut out = vec![f32::NAN; dim];
        table
            .gather_reduce_into(&indices, &mut out, SparseBackend::Vectorized)
            .unwrap();
        prop_assert_eq!(
            &oracle,
            &out,
            "diverges from scalar oracle (rows {}, dim {}, len {})",
            rows, dim, len
        );
    }

    /// The sequence kernel itself, under one rolling prefetch window:
    /// every block is bitwise what a row-at-a-time loop leaves in it,
    /// whatever the mix of empty, one-row and longer-than-any-window lists,
    /// for sequences shorter than any window too, with the table's last row
    /// as the final index (the prefetch cursor has nothing beyond it to
    /// point at), across widths on and off the 32-wide register tile.
    #[test]
    fn list_sequence_sum_matches_row_at_a_time_bitwise(
        rows in 1usize..300,
        dim_choice in 0usize..6,
        num_lists in 0usize..12,
        seed in 0u64..10_000,
    ) {
        let dim = [0, 4, 8, 32, 33, 64][dim_choice];
        let table = table_for(rows, dim, seed);
        let mut lists: Vec<Vec<u32>> = (0..num_lists)
            .map(|l| {
                let len = [0, 1, 2, 7, 20, 80, 150, 260][(seed as usize + l * 5) % 8];
                indices_for(rows, len, seed ^ (l as u64 * 977))
            })
            .collect();
        if let Some(last) = lists.last_mut() {
            last.push(rows as u32 - 1);
        }
        let stride = dim + 2;
        let mut out = vec![0.625f32; num_lists * stride];
        let mut expected = out.clone();
        for (l, list) in lists.iter().enumerate() {
            for &idx in list {
                let row = table.row(idx).unwrap();
                for (acc, x) in expected[l * stride + 1..][..dim].iter_mut().zip(row) {
                    *acc += x;
                }
            }
        }
        let sequence = lists
            .iter()
            .enumerate()
            .map(|(l, list)| (list.as_slice(), l * stride + 1));
        gather_lists_sum(table.as_slice(), dim, sequence, &mut out);
        // Accumulated into, not overwritten; the gaps between blocks keep
        // their fill.
        prop_assert_eq!(&out, &expected, "rows {}, dim {}, lists {:?}", rows, dim, lists);
    }

    /// Batched bag-level gather-reduce with the feature-matrix layout
    /// (row stride + offset): the table-major vectorized sweep lands
    /// bitwise-identical blocks and never touches bytes outside them.
    #[test]
    fn bag_batched_reduce_matches_oracle_bitwise(
        num_tables in 1usize..5,
        dim in 1usize..40,
        batch in 0usize..12,
        seed in 0u64..10_000,
    ) {
        let rows = 64;
        let tables: Vec<EmbeddingTable> = (0..num_tables)
            .map(|t| table_for(rows, dim, seed.wrapping_add(t as u64)))
            .collect();
        let bag = EmbeddingBag::new(tables).unwrap();
        let batch_indices: Vec<Vec<Vec<u32>>> = (0..batch)
            .map(|s| {
                (0..num_tables)
                    .map(|t| {
                        let len = (s + t + seed as usize) % 7; // incl. empty bags
                        indices_for(rows, len, seed ^ ((s * 31 + t) as u64))
                    })
                    .collect()
            })
            .collect();
        let width = num_tables * dim;
        let offset = dim / 2;
        let stride = width + offset + 3;
        let mut oracle = vec![f32::NAN; batch * stride];
        bag.reduce_batch_into_with(
            &batch_indices, &mut oracle, stride, offset, SparseBackend::Scalar,
        )
        .unwrap();
        let mut out = vec![f32::NAN; batch * stride];
        bag.reduce_batch_into_with(
            &batch_indices, &mut out, stride, offset, SparseBackend::Vectorized,
        )
        .unwrap();
        for (i, (a, b)) in oracle.iter().zip(&out).enumerate() {
            let col = i % stride;
            if (offset..offset + width).contains(&col) {
                prop_assert_eq!(a, b, "diverges at element {}", i);
            } else {
                // Outside the reduced block both paths must leave
                // the buffer untouched.
                prop_assert!(b.is_nan(), "wrote outside its block at {}", i);
            }
        }
    }

    /// Error equivalence: the production backend reports the same
    /// out-of-bounds index and table annotation the scalar loop discovers
    /// first.
    #[test]
    fn error_selection_matches_oracle(
        bad_sample in 0usize..4,
        bad_table in 0usize..3,
        seed in 0u64..1000,
    ) {
        let bag = EmbeddingBag::new(
            (0..3).map(|t| table_for(32, 8, seed + t)).collect(),
        )
        .unwrap();
        let mut batch_indices: Vec<Vec<Vec<u32>>> = (0..4)
            .map(|s| (0..3).map(|t| indices_for(32, 4, seed ^ (s * 7 + t) as u64)).collect())
            .collect();
        batch_indices[bad_sample][bad_table].push(32 + bad_table as u32); // out of bounds
        let stride = 3 * 8;
        let mut out = vec![0.0f32; 4 * stride];
        let oracle_err = bag
            .reduce_batch_into_with(&batch_indices, &mut out, stride, 0, SparseBackend::Scalar)
            .unwrap_err();
        let err = bag
            .reduce_batch_into_with(&batch_indices, &mut out, stride, 0, SparseBackend::Vectorized)
            .unwrap_err();
        prop_assert!(
            matches!(oracle_err, DlrmError::IndexOutOfBounds { .. }),
            "{:?}",
            oracle_err
        );
        prop_assert_eq!(oracle_err, err);
    }
}

/// A bag whose tables disagree on `dim` used to panic inside the production
/// kernel's width assert and return `ShapeMismatch` from the oracle — one
/// hostile input, two answers. It is now rejected where it is built, so no
/// reduce path can be handed one.
#[test]
fn mixed_width_bag_is_rejected_at_construction() {
    let tables = vec![table_for(16, 8, 1), table_for(16, 16, 2)];
    let err = EmbeddingBag::new(tables).unwrap_err();
    assert!(
        matches!(&err, DlrmError::InvalidConfig(msg) if msg.contains("table 1 is 16 wide")),
        "{err:?}"
    );
    assert!(EmbeddingBag::new(Vec::new()).is_ok());
}

/// A single request is a batch of one: the production entry point agrees
/// bitwise with the oracle backend.
#[test]
fn single_request_slice_path_matches_across_backends() {
    let bag = EmbeddingBag::new((0..4).map(|t| table_for(128, 32, 1000 + t)).collect()).unwrap();
    let request: Vec<Vec<u32>> = (0..4).map(|t| indices_for(128, 20, t as u64)).collect();
    let mut oracle = vec![0.0f32; 4 * 32];
    bag.reduce_batch_into_with(&[&request], &mut oracle, 4 * 32, 0, SparseBackend::Scalar)
        .unwrap();
    let mut production = vec![f32::NAN; 4 * 32];
    bag.reduce_batch_into(&[&request], &mut production, 4 * 32, 0)
        .unwrap();
    assert_eq!(oracle, production);
}
