//! Embedding tables and the `SparseLengthsSum` gather/reduce operator.
//!
//! An embedding table stores millions of low-dimensional vectors
//! contiguously; a *gather* reads a set of rows selected by sparse indices
//! and a *reduction* sums them element-wise, exactly as Caffe2's
//! `SparseLengthsSum` in Figure 2 of the paper. Sum is the one reduction:
//! it is the operator Centaur's EB-RU computes as rows stream off the link.

use crate::error::DlrmError;
use crate::fill::fill_centred_uniform;
use crate::kernel::{
    add_assign, gather_lists_sum, gather_rows_sum, global_sparse_backend, SparseBackend,
};
use crate::row_store::RowStore;
use crate::tensor::Matrix;
use crate::EMBEDDING_ELEM_BYTES;
use std::sync::Arc;

/// A single embedding lookup table: `rows` vectors of `dim` `f32` elements.
///
/// The rows live in one shared, immutable store (huge-page-backed for
/// tables of 2 MB and more on Linux): a clone is another handle on the same
/// physical rows, so every replica and restart template of a model reads
/// one copy, as the paper's EB-Streamer reads one copy out of host DRAM.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    dim: usize,
    rows: usize,
    data: Arc<RowStore>,
}

impl PartialEq for EmbeddingTable {
    /// Handles on the same store are equal without walking it.
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.rows == other.rows
            && (Arc::ptr_eq(&self.data, &other.data) || self.data[..] == other.data[..])
    }
}

impl EmbeddingTable {
    /// Creates a table of zeros.
    ///
    /// # Panics
    ///
    /// Panics when `rows * dim` elements overflow the address space.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self::filled(rows, dim, |_| {})
    }

    /// Creates a table with uniform random values in `[-0.5, 0.5)`, seeded
    /// deterministically: row-major, element `i` is the `i`-th draw of
    /// `StdRng::seed_from_u64(seed).gen::<f32>() - 0.5` (the vendored
    /// xoshiro256** stream), bit for bit.
    ///
    /// The fill is lane-parallel where the CPU has AVX-512F: eight runs of
    /// the same stream, each started with xoshiro's jump-ahead, advance side
    /// by side. It writes the same bits as the one-draw-at-a-time loop (the
    /// tail, and the whole fill elsewhere) in 40 % of its time: 2.5 vs
    /// 6.1–6.3 ms for a 200 000 × 32 table, mapping and first touch
    /// included. Table fills are most of a paper-size model's cold start.
    ///
    /// # Panics
    ///
    /// Panics when `rows * dim` elements overflow the address space.
    pub fn random(rows: usize, dim: usize, seed: u64) -> Self {
        Self::filled(rows, dim, |data| fill_centred_uniform(data, seed))
    }

    /// Creates a table from a generator function `f(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when `rows * dim` elements overflow the address space.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, dim: usize, mut f: F) -> Self {
        Self::filled(rows, dim, |data| {
            // `chunks_exact_mut(0)` panics; a zero-width table has nothing
            // to generate.
            for (r, row) in data.chunks_exact_mut(dim.max(1)).enumerate() {
                for (c, x) in row.iter_mut().enumerate() {
                    *x = f(r, c);
                }
            }
        })
    }

    /// Allocates the zeroed `[rows, dim]` store, lets `fill` write the rows
    /// in place (so a huge-page-backed store is first touched after it was
    /// advised), then freezes it behind the shared handle.
    fn filled(rows: usize, dim: usize, fill: impl FnOnce(&mut [f32])) -> Self {
        let len = rows.checked_mul(dim).unwrap_or_else(|| {
            panic!("embedding table of {rows} rows x {dim} f32 elements overflows usize")
        });
        let mut data = RowStore::zeroed(len);
        fill(data.as_mut_slice());
        EmbeddingTable {
            dim,
            rows,
            data: Arc::new(data),
        }
    }

    /// Embedding (vector) dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows (distinct categorical values) in the table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Size of one embedding row in bytes.
    pub fn row_bytes(&self) -> usize {
        self.dim * EMBEDDING_ELEM_BYTES
    }

    /// Total size of the table in bytes.
    pub fn size_bytes(&self) -> usize {
        self.rows * self.row_bytes()
    }

    /// Borrows row `index`.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::IndexOutOfBounds`] when the index exceeds the
    /// number of rows.
    pub fn row(&self, index: u32) -> Result<&[f32], DlrmError> {
        let idx = index as usize;
        if idx >= self.rows {
            return Err(DlrmError::IndexOutOfBounds {
                index: index as u64,
                rows: self.rows as u64,
                table: 0,
            });
        }
        Ok(&self.data[idx * self.dim..(idx + 1) * self.dim])
    }

    /// Borrows the whole table as a flat row-major `[rows, dim]` slice —
    /// the raw storage the vectorized gather kernels and the EB-Streamer's
    /// hot-row cache stream rows out of.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Checks every index against the table bounds, returning the same
    /// error [`EmbeddingTable::row`] would for the first invalid one — the
    /// validation pre-pass of the vectorized gather paths, which separate
    /// error discovery from the branch-free inner loop.
    ///
    /// Valid lists, the common case, cost one branch-free or-fold of
    /// `idx >= rows`, which vectorizes; only a list that fails it is walked
    /// again to find its first invalid index.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::IndexOutOfBounds`] for the first invalid index.
    pub fn validate_indices(&self, indices: &[u32]) -> Result<(), DlrmError> {
        // Past `u32::MAX` rows every `u32` index is in bounds.
        let Ok(rows) = u32::try_from(self.rows) else {
            return Ok(());
        };
        if !indices.iter().fold(false, |bad, &idx| bad | (idx >= rows)) {
            return Ok(());
        }
        match indices.iter().find(|&&idx| idx >= rows) {
            Some(&idx) => Err(DlrmError::IndexOutOfBounds {
                index: idx as u64,
                rows: self.rows as u64,
                table: 0,
            }),
            None => Ok(()),
        }
    }

    /// Gathers the requested rows and sums them into `out` (width `dim`) on
    /// an explicit [`SparseBackend`] — steps 1 and 2 of Figure 3, Figure 2's
    /// `SparseLengthsSum` for a single output. An empty index list reduces
    /// to the zero vector, as `SparseLengthsSum` does an empty segment. The
    /// production backend validates the whole index list up front, then
    /// runs the register-tiled, prefetching, AVX2-dispatched kernels from
    /// [`crate::kernel`] — bitwise identical to the scalar oracle, with
    /// identical error selection (the first invalid index in list order).
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::IndexOutOfBounds`] when any index is invalid and
    /// [`DlrmError::ShapeMismatch`] when `out` is not `dim` wide.
    pub fn gather_reduce_into(
        &self,
        indices: &[u32],
        out: &mut [f32],
        backend: SparseBackend,
    ) -> Result<(), DlrmError> {
        if out.len() != self.dim {
            return Err(DlrmError::ShapeMismatch {
                op: "gather_reduce_into",
                lhs: (1, self.dim),
                rhs: (1, out.len()),
            });
        }
        if backend != SparseBackend::Scalar {
            self.validate_indices(indices)?;
            out.fill(0.0);
            gather_rows_sum(&self.data, self.dim, indices, out);
            return Ok(());
        }
        out.fill(0.0);
        for &idx in indices {
            add_assign(out, self.row(idx)?);
        }
        Ok(())
    }
}

/// A bag of embedding tables plus the batched `SparseLengthsSum` operator
/// over all of them — the full "sparse frontend" of a DLRM model.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingBag {
    tables: Vec<EmbeddingTable>,
}

impl EmbeddingBag {
    /// Creates a bag from individual tables.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidConfig`] naming the first table whose
    /// `dim` differs from table 0's: every reduce path writes `dim`-wide
    /// blocks at a fixed stride.
    pub fn new(tables: Vec<EmbeddingTable>) -> Result<Self, DlrmError> {
        let dim = tables.first().map_or(0, EmbeddingTable::dim);
        if let Some(t) = tables.iter().position(|table| table.dim() != dim) {
            return Err(DlrmError::InvalidConfig(format!(
                "embedding bag tables must share one dim: table {t} is {} wide, table 0 is {dim}",
                tables[t].dim()
            )));
        }
        Ok(EmbeddingBag { tables })
    }

    /// Creates `num_tables` random tables of identical shape, table `t`
    /// seeded with `seed + t` (wrapping).
    pub fn random(num_tables: usize, rows: usize, dim: usize, seed: u64) -> Self {
        let tables = (0..num_tables)
            .map(|t| EmbeddingTable::random(rows, dim, seed.wrapping_add(t as u64)))
            .collect();
        EmbeddingBag { tables }
    }

    /// Number of tables in the bag.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Embedding dimension (0 when the bag is empty).
    pub fn dim(&self) -> usize {
        self.tables.first().map_or(0, EmbeddingTable::dim)
    }

    /// Borrows table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn table(&self, t: usize) -> &EmbeddingTable {
        &self.tables[t]
    }

    /// Iterates over the tables.
    pub fn iter(&self) -> impl Iterator<Item = &EmbeddingTable> + '_ {
        self.tables.iter()
    }

    /// Total memory footprint of all tables in bytes.
    pub fn size_bytes(&self) -> usize {
        self.tables.iter().map(EmbeddingTable::size_bytes).sum()
    }

    /// Batch-major gather/reduce: reduces every sample's bags directly into
    /// a caller-owned `[batch, row_stride]` row-major buffer, writing each
    /// sample's `num_tables * dim` reduced block at column `row_offset` of
    /// its row. `batch_indices[s]` is sample `s`'s per-table index lists, so
    /// one request is `&[indices_per_table]`.
    ///
    /// This is the sparse frontend of the batch-major forward path: the
    /// model passes its `[batch, num_features * dim]` interaction-feature
    /// matrix with `row_offset = dim`, so reduced embeddings land in
    /// feature rows `1..=num_tables` of every sample with no intermediate
    /// per-sample matrices and no copies.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::TableCountMismatch`] when a sample's outer length
    /// differs from the number of tables, [`DlrmError::IndexOutOfBounds`]
    /// for an invalid row index (annotated with the offending table), and
    /// [`DlrmError::ShapeMismatch`] when `out` is not
    /// `batch_indices.len() * row_stride` long or the reduced block does
    /// not fit a row (`row_offset + num_tables * dim > row_stride`).
    pub fn reduce_batch_into<S: AsRef<[Vec<u32>]>>(
        &self,
        batch_indices: &[S],
        out: &mut [f32],
        row_stride: usize,
        row_offset: usize,
    ) -> Result<(), DlrmError> {
        self.reduce_batch_into_with(
            batch_indices,
            out,
            row_stride,
            row_offset,
            global_sparse_backend(),
        )
    }

    /// [`EmbeddingBag::reduce_batch_into`] on an explicit [`SparseBackend`].
    ///
    /// The production backend validates the whole batch up front (identical
    /// error selection to the scalar loop), then executes **table-major**:
    /// all samples' gathers for table `t` run back to back before moving to
    /// table `t + 1`, so one table's rows stay cache-resident across the
    /// batch instead of every sample cycling the whole bag through L2, and
    /// the table's lists are one sequence under the rolling prefetch window
    /// of [`gather_lists_sum`].
    ///
    /// # Errors
    ///
    /// Same as [`EmbeddingBag::reduce_batch_into`].
    pub fn reduce_batch_into_with<S: AsRef<[Vec<u32>]>>(
        &self,
        batch_indices: &[S],
        out: &mut [f32],
        row_stride: usize,
        row_offset: usize,
        backend: SparseBackend,
    ) -> Result<(), DlrmError> {
        let dim = self.dim();
        let width = self.num_tables() * dim;
        if row_offset + width > row_stride {
            return Err(DlrmError::ShapeMismatch {
                op: "reduce_batch_into row layout",
                lhs: (1, row_stride),
                rhs: (1, row_offset + width),
            });
        }
        if out.len() != batch_indices.len() * row_stride {
            return Err(DlrmError::ShapeMismatch {
                op: "reduce_batch_into",
                lhs: (batch_indices.len(), row_stride),
                rhs: (out.len(), 1),
            });
        }
        if backend == SparseBackend::Scalar {
            // The oracle: sample-major, one checked row at a time.
            for (sample, per_table) in batch_indices.iter().enumerate() {
                let per_table = per_table.as_ref();
                self.check_table_count(per_table)?;
                let base = sample * row_stride + row_offset;
                for (t, (table, indices)) in self.tables.iter().zip(per_table).enumerate() {
                    // Explicit slicing (not chunks_exact_mut) so dim == 0
                    // tables still validate their indices.
                    let block = &mut out[base + t * dim..base + (t + 1) * dim];
                    table
                        .gather_reduce_into(indices, block, backend)
                        .map_err(|e| annotate_table(e, t))?;
                }
            }
            return Ok(());
        }
        // Production path: one validation pre-pass in the scalar loop's
        // discovery order, then branch-free table-major kernels.
        for per_table in batch_indices {
            self.validate_request(per_table.as_ref())?;
        }
        if row_stride == 0 {
            // Zero-width layout (dim 0): nothing to write, and
            // `chunks_mut(0)` would panic.
            return Ok(());
        }
        for (t, table) in self.tables.iter().enumerate() {
            let base = row_offset + t * dim;
            // The table's lists across the whole batch are one sequence
            // under one rolling prefetch window.
            for row in out.chunks_mut(row_stride) {
                row[base..base + dim].fill(0.0);
            }
            let lists = batch_indices
                .iter()
                .enumerate()
                .map(|(s, per_table)| (per_table.as_ref()[t].as_slice(), s * row_stride + base));
            gather_lists_sum(table.as_slice(), dim, lists, out);
        }
        Ok(())
    }

    fn check_table_count(&self, indices_per_table: &[Vec<u32>]) -> Result<(), DlrmError> {
        if indices_per_table.len() != self.tables.len() {
            return Err(DlrmError::TableCountMismatch {
                provided: indices_per_table.len(),
                expected: self.tables.len(),
            });
        }
        Ok(())
    }

    /// Validates one sample's request exactly as the scalar loop would
    /// discover problems: table count first, then each table's indices in
    /// order, with out-of-bounds errors annotated with their table. The
    /// production batch path (and the EB-Streamer) run this pre-pass so
    /// their branch-free kernels never see an invalid index.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::TableCountMismatch`] or the first
    /// [`DlrmError::IndexOutOfBounds`] in scalar discovery order.
    pub fn validate_request(&self, indices_per_table: &[Vec<u32>]) -> Result<(), DlrmError> {
        self.check_table_count(indices_per_table)?;
        for (t, (table, indices)) in self.tables.iter().zip(indices_per_table).enumerate() {
            table
                .validate_indices(indices)
                .map_err(|e| annotate_table(e, t))?;
        }
        Ok(())
    }

    /// Total number of embedding rows gathered for one request.
    pub fn lookups_in_request(indices_per_table: &[Vec<u32>]) -> usize {
        indices_per_table.iter().map(Vec::len).sum()
    }

    /// Total bytes read from embedding tables for one request, the quantity
    /// the paper uses to define *effective* memory throughput.
    pub fn gathered_bytes(&self, indices_per_table: &[Vec<u32>]) -> usize {
        Self::lookups_in_request(indices_per_table) * self.dim() * EMBEDDING_ELEM_BYTES
    }
}

fn annotate_table(err: DlrmError, table: usize) -> DlrmError {
    match err {
        DlrmError::IndexOutOfBounds { index, rows, .. } => {
            DlrmError::IndexOutOfBounds { index, rows, table }
        }
        other => other,
    }
}

/// Reference implementation of Caffe2's `SparseLengthsSum` exactly as given
/// in Figure 2 of the paper: a flat index array plus an offsets array
/// producing `offsets.len()` reduced vectors from a single table.
///
/// `offsets[a]` is the position in `indices` where output `a` begins; output
/// `a` reduces `indices[offsets[a] .. offsets[a + 1]]` (the last segment runs
/// to the end of the index array).
///
/// # Errors
///
/// Returns [`DlrmError::InvalidConfig`] if the offsets are not monotonically
/// non-decreasing or exceed the index array length, and
/// [`DlrmError::IndexOutOfBounds`] for invalid row indices.
// lint: allow(dead-pub) — the paper's Fig. 2 operator, the flat request shape to build on
pub fn sparse_lengths_sum(
    table: &EmbeddingTable,
    indices: &[u32],
    offsets: &[usize],
) -> Result<Matrix, DlrmError> {
    let mut out = Matrix::zeros(offsets.len(), table.dim());
    for a in 0..offsets.len() {
        let start = offsets[a];
        let end = if a + 1 < offsets.len() {
            offsets[a + 1]
        } else {
            indices.len()
        };
        if start > end || end > indices.len() {
            return Err(DlrmError::InvalidConfig(format!(
                "invalid offsets: segment {a} spans {start}..{end} over {} indices",
                indices.len()
            )));
        }
        table.gather_reduce_into(
            &indices[start..end],
            out.row_mut(a),
            global_sparse_backend(),
        )?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::CHUNK;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_table() -> EmbeddingTable {
        // Row r is [r, r+0.5, r+1.0, r+1.5]
        EmbeddingTable::from_fn(8, 4, |r, c| r as f32 + c as f32 * 0.5)
    }

    #[test]
    fn table_shape_and_bytes() {
        let t = small_table();
        assert_eq!(t.rows(), 8);
        assert_eq!(t.dim(), 4);
        assert_eq!(t.row_bytes(), 16);
        assert_eq!(t.size_bytes(), 128);
    }

    #[test]
    fn row_out_of_bounds() {
        let t = small_table();
        assert!(t.row(7).is_ok());
        assert!(matches!(
            t.row(8),
            Err(DlrmError::IndexOutOfBounds {
                index: 8,
                rows: 8,
                ..
            })
        ));
    }

    #[test]
    fn validation_reports_the_first_invalid_index_in_list_order() {
        let first_invalid = |t: &EmbeddingTable, indices: &[u32]| match t.validate_indices(indices)
        {
            Ok(()) => None,
            Err(DlrmError::IndexOutOfBounds { index, rows, .. }) => {
                assert_eq!(rows, t.rows() as u64);
                Some(index)
            }
            Err(e) => panic!("unexpected error {e:?}"),
        };
        let t = small_table();
        let rows = t.rows() as u32;
        assert_eq!(first_invalid(&t, &[3, rows + 7, rows, 2]), Some(8 + 7));
        assert_eq!(first_invalid(&t, &[3, rows, rows + 7, 2]), Some(8));
        assert_eq!(first_invalid(&t, &[0, 7, 7, 1]), None);
        assert_eq!(first_invalid(&t, &[]), None);
        // A long valid run ahead of the invalid one, and one past it.
        let mut long: Vec<u32> = (0..1000).map(|i| i % rows).collect();
        long.insert(997, u32::MAX);
        long.push(rows);
        assert_eq!(first_invalid(&t, &long), Some(u64::from(u32::MAX)));
        // Zero-width tables hold no rows, so any row count is free.
        let widest = EmbeddingTable::zeros(u32::MAX as usize, 0);
        assert_eq!(first_invalid(&widest, &[0, u32::MAX - 1]), None);
        assert_eq!(
            first_invalid(&widest, &[u32::MAX - 1, u32::MAX, 5]),
            Some(u64::from(u32::MAX))
        );
        assert_eq!(first_invalid(&widest, &[]), None);
        let wider = EmbeddingTable::zeros(u32::MAX as usize + 1, 0);
        assert_eq!(first_invalid(&wider, &[u32::MAX, 0]), None);
    }

    #[test]
    fn gather_reduce_sum_matches_manual() {
        let t = small_table();
        let mut r = [f32::NAN; 4];
        t.gather_reduce_into(&[0, 2, 5], &mut r, SparseBackend::Scalar)
            .unwrap();
        // col 0: 0 + 2 + 5 = 7 ; col 1: 0.5*3 + 7 = 8.5 ...
        assert!((r[0] - 7.0).abs() < 1e-6);
        assert!((r[1] - 8.5).abs() < 1e-6);
    }

    #[test]
    fn gather_reduce_empty_is_zero() {
        let t = small_table();
        for backend in SparseBackend::all() {
            let mut r = [f32::NAN; 4];
            t.gather_reduce_into(&[], &mut r, backend).unwrap();
            assert_eq!(r, [0.0; 4], "{backend:?}");
        }
    }

    #[test]
    fn bag_reduce_shapes_and_errors() {
        let bag = EmbeddingBag::random(3, 16, 4, 7);
        let mut out = vec![f32::NAN; 12];
        let mut reduce = |req: &[Vec<u32>]| bag.reduce_batch_into(&[req], &mut out, 12, 0);
        reduce(&[vec![0, 1], vec![2], vec![3, 4, 5]]).unwrap();

        assert!(matches!(
            reduce(&[vec![0u32], vec![0]]),
            Err(DlrmError::TableCountMismatch {
                provided: 2,
                expected: 3
            })
        ));

        assert!(matches!(
            reduce(&[vec![0], vec![99], vec![0]]),
            Err(DlrmError::IndexOutOfBounds { table: 1, .. })
        ));
    }

    #[test]
    fn zero_dim_bag_still_validates_indices() {
        // dim == 0 tables must still reject out-of-bounds rows, on the
        // oracle's per-row path and the production pre-pass alike.
        let tables = (0..2).map(|s| EmbeddingTable::random(8, 0, s)).collect();
        let bag = EmbeddingBag::new(tables).unwrap();
        for backend in SparseBackend::all() {
            assert!(matches!(
                bag.reduce_batch_into_with(&[[vec![0], vec![99]]], &mut [], 0, 0, backend),
                Err(DlrmError::IndexOutOfBounds { table: 1, .. })
            ));
            assert!(bag
                .reduce_batch_into_with(&[[vec![0], vec![7]]], &mut [], 0, 0, backend)
                .is_ok());
        }
    }

    #[test]
    fn bag_batch_matches_single() {
        let bag = EmbeddingBag::random(2, 32, 8, 11);
        let req1 = vec![vec![1, 2, 3], vec![4, 5]];
        let req2 = vec![vec![0], vec![31]];
        let mut batch = vec![f32::NAN; 2 * 16];
        bag.reduce_batch_into(&[req1.clone(), req2.clone()], &mut batch, 16, 0)
            .unwrap();
        let single = |req| {
            let mut one = vec![f32::NAN; 16];
            bag.reduce_batch_into(&[req], &mut one, 16, 0).unwrap();
            one
        };
        assert_eq!(batch[..16], single(&req1));
        assert_eq!(batch[16..], single(&req2));
    }

    #[test]
    fn bag_accounting() {
        let bag = EmbeddingBag::random(2, 32, 32, 1);
        let req = vec![vec![1, 2, 3], vec![4, 5]];
        assert_eq!(EmbeddingBag::lookups_in_request(&req), 5);
        assert_eq!(bag.gathered_bytes(&req), 5 * 32 * 4);
        assert_eq!(bag.size_bytes(), 2 * 32 * 32 * 4);
    }

    #[test]
    fn sparse_lengths_sum_matches_figure2_pseudocode() {
        let t = small_table();
        // Two outputs: rows {0,1,2} and rows {3,4}.
        let indices = [0, 1, 2, 3, 4];
        let offsets = [0, 3];
        let out = sparse_lengths_sum(&t, &indices, &offsets).unwrap();
        assert_eq!(out.shape(), (2, 4));
        assert!((out.get(0, 0) - 3.0).abs() < 1e-6);
        assert!((out.get(1, 0) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn sparse_lengths_sum_rejects_bad_offsets() {
        let t = small_table();
        assert!(sparse_lengths_sum(&t, &[0, 1], &[0, 5]).is_err());
        assert!(sparse_lengths_sum(&t, &[0, 1], &[1, 0]).is_err());
    }

    /// `(rows, dim)` shapes whose lengths sit at 0, 1, one element either
    /// side of one and two huge pages (where the mapped backing starts and
    /// where its advised prefix grows), and a tail that is a multiple of
    /// neither a huge page nor a small one; and, for the lane fill of
    /// [`EmbeddingTable::random`], one element either side of one and two
    /// of its chunks (the seams between chunks and the scalar tail; a chunk
    /// is 2 MB today, so these coincide with the huge-page lengths) and the
    /// paper's 200 000 × 32 table. Miri runs the heap backing only, at sizes
    /// it can walk, and one chunk exactly.
    fn row_store_shapes() -> Vec<(usize, usize)> {
        if cfg!(miri) {
            return vec![(0, 32), (1, 1), (7, 3), (33, 32), (CHUNK / 32, 32)];
        }
        let huge = (2 << 20) / EMBEDDING_ELEM_BYTES;
        let mut shapes = vec![(0, 32), (1, 1), (20_001, 32), (200_000, 32)];
        for len in [huge, 2 * huge, CHUNK, 2 * CHUNK] {
            shapes.extend([(len - 1, 1), (len, 1), (len + 1, 1)]);
        }
        shapes.sort_unstable();
        shapes.dedup();
        shapes
    }

    #[test]
    fn row_store_tables_equal_a_vec_from_the_same_generator() {
        let cell = |r: usize, c: usize| (r % 1021) as f32 - c as f32 * 0.25;
        for (rows, dim) in row_store_shapes() {
            let len = rows * dim;
            assert_eq!(EmbeddingTable::zeros(rows, dim).as_slice(), vec![0.0; len]);

            let mut rng = StdRng::seed_from_u64(9);
            let expected: Vec<f32> = (0..len).map(|_| rng.gen::<f32>() - 0.5).collect();
            assert_eq!(EmbeddingTable::random(rows, dim, 9).as_slice(), expected);

            let mut expected = Vec::with_capacity(len);
            for r in 0..rows {
                for c in 0..dim {
                    expected.push(cell(r, c));
                }
            }
            let table = EmbeddingTable::from_fn(rows, dim, cell);
            assert_eq!((table.rows(), table.dim()), (rows, dim));
            assert_eq!(table.as_slice(), expected, "{rows}x{dim}");
        }
    }

    #[test]
    fn row_store_gathers_match_the_scalar_oracle_bitwise() {
        for (rows, dim) in row_store_shapes() {
            let table = EmbeddingTable::random(rows, dim, 5);
            // First row, last row, both sides of every huge-page boundary
            // the table has, and a stride through the middle.
            let mut indices: Vec<u32> = Vec::new();
            if rows > 0 {
                indices.push(0);
                let per_huge_page = (2 << 20) / (dim * EMBEDDING_ELEM_BYTES);
                for boundary in (per_huge_page..rows).step_by(per_huge_page) {
                    indices.extend([boundary as u32 - 1, boundary as u32]);
                }
                indices.extend((0..40).map(|i| (i * 7919 % rows) as u32));
                indices.push(rows as u32 - 1);
            }
            let mut oracle = vec![f32::NAN; dim];
            let mut fast = vec![f32::NAN; dim];
            table
                .gather_reduce_into(&indices, &mut oracle, SparseBackend::Scalar)
                .unwrap();
            table
                .gather_reduce_into(&indices, &mut fast, SparseBackend::Vectorized)
                .unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&oracle), "{rows}x{dim}");
        }
    }

    #[test]
    fn row_store_clones_share_one_copy_and_compare_by_pointer() {
        let table = EmbeddingTable::random(64, 8, 3);
        let clone = table.clone();
        assert_eq!(clone.as_slice().as_ptr(), table.as_slice().as_ptr());
        assert_eq!(clone, table);
        // Distinct stores still compare by content.
        assert_eq!(EmbeddingTable::random(64, 8, 3), table);
        assert_ne!(EmbeddingTable::random(64, 8, 4), table);
        assert_ne!(EmbeddingTable::random(8, 64, 3), table);
    }

    #[test]
    #[should_panic(expected = "rows x 2 f32 elements overflows")]
    fn row_store_constructor_panics_when_rows_times_dim_overflows() {
        let _ = EmbeddingTable::zeros(usize::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "f32 elements overflows isize::MAX bytes")]
    fn row_store_constructor_panics_when_the_byte_size_overflows() {
        // rows * dim fits usize; * 4 bytes does not (the store's own check).
        let _ = EmbeddingTable::from_fn(usize::MAX / 2, 1, |_, _| 0.0);
    }

    #[test]
    fn random_tables_are_deterministic_per_seed() {
        let a = EmbeddingTable::random(16, 8, 99);
        let b = EmbeddingTable::random(16, 8, 99);
        let c = EmbeddingTable::random(16, 8, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
