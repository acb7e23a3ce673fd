//! Access-trace types shared by every timing simulator in the workspace.
//!
//! The timing models (CPU-only, CPU-GPU, Centaur) never need embedding
//! *values* — only which rows of which tables a request touches and how many
//! bytes move. A [`GatherTrace`] captures exactly that, so Table-I-sized
//! models (hundreds of GB of embeddings in production) can be simulated
//! without allocating the tables.

use crate::config::ModelConfig;
use crate::EMBEDDING_ELEM_BYTES;
use serde::{Deserialize, Serialize};

/// A single embedding gather: one row of one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EmbeddingAccess {
    /// Which embedding table is read.
    pub table: usize,
    /// Which row of that table is read.
    pub row: u64,
}

/// All embedding gathers of one inference request (one sample), grouped per
/// table in lookup order.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SampleTrace {
    /// `rows_per_table[t]` lists the rows gathered from table `t`.
    pub rows_per_table: Vec<Vec<u64>>,
}

impl SampleTrace {
    /// Total gathers in this sample.
    pub fn num_lookups(&self) -> usize {
        self.rows_per_table.iter().map(Vec::len).sum()
    }

    /// Iterates over the individual accesses in table order.
    pub fn iter_accesses(&self) -> impl Iterator<Item = EmbeddingAccess> + '_ {
        self.rows_per_table
            .iter()
            .enumerate()
            .flat_map(|(table, rows)| rows.iter().map(move |&row| EmbeddingAccess { table, row }))
    }

    /// Converts the per-table `u64` rows into the `u32` index lists the
    /// functional [`crate::EmbeddingBag`] API expects.
    pub fn as_u32_indices(&self) -> Vec<Vec<u32>> {
        self.rows_per_table
            .iter()
            .map(|rows| rows.iter().map(|&r| r as u32).collect())
            .collect()
    }
}

/// The embedding gathers of a whole batch of requests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatherTrace {
    /// Embedding dimension (row width in elements).
    pub embedding_dim: usize,
    /// One entry per sample in the batch.
    pub samples: Vec<SampleTrace>,
}

impl GatherTrace {
    /// Creates a trace from per-sample tables of rows.
    pub fn new(embedding_dim: usize, samples: Vec<SampleTrace>) -> Self {
        GatherTrace {
            embedding_dim,
            samples,
        }
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.samples.len()
    }

    /// Bytes of one embedding row.
    pub fn row_bytes(&self) -> usize {
        self.embedding_dim * EMBEDDING_ELEM_BYTES
    }

    /// Total number of embedding gathers in the batch.
    pub fn total_lookups(&self) -> usize {
        self.samples.iter().map(SampleTrace::num_lookups).sum()
    }

    /// Total *useful* bytes gathered — the numerator of the paper's
    /// effective-throughput metric.
    pub fn gathered_bytes(&self) -> u64 {
        self.total_lookups() as u64 * self.row_bytes() as u64
    }

    /// Total bytes of sparse indices (4 bytes per index) the host must ship
    /// to whichever engine performs the gathers.
    pub fn index_bytes(&self) -> u64 {
        self.total_lookups() as u64 * 4
    }

    /// Iterates over every access of every sample, in batch order.
    pub fn iter_accesses(&self) -> impl Iterator<Item = EmbeddingAccess> + '_ {
        self.samples.iter().flat_map(SampleTrace::iter_accesses)
    }
}

/// Layout of the embedding tables in the (simulated) host physical address
/// space: each table occupies a contiguous region starting at `base`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableLayout {
    base: u64,
    row_bytes: u64,
    rows_per_table: u64,
    num_tables: usize,
    table_stride: u64,
}

impl TableLayout {
    /// Default base physical address for embedding tables in the simulated
    /// address space (1 GiB, clear of the model/code region).
    pub const DEFAULT_BASE: u64 = 1 << 30;

    /// Creates a layout for `num_tables` tables of `rows_per_table` rows of
    /// `row_bytes` bytes, packed contiguously from `base` with each table
    /// aligned up to a 4 KiB page boundary.
    pub fn new(base: u64, num_tables: usize, rows_per_table: u64, row_bytes: u64) -> Self {
        let raw = rows_per_table * row_bytes;
        let table_stride = raw.div_ceil(4096) * 4096;
        TableLayout {
            base,
            row_bytes,
            rows_per_table,
            num_tables,
            table_stride,
        }
    }

    /// Creates the layout implied by a model configuration, based at
    /// [`TableLayout::DEFAULT_BASE`].
    pub fn for_config(config: &ModelConfig) -> Self {
        TableLayout::new(
            Self::DEFAULT_BASE,
            config.num_tables,
            config.rows_per_table,
            config.row_bytes() as u64,
        )
    }

    /// Number of tables covered by the layout.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Bytes per embedding row.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Physical address of the first byte of `access`.
    ///
    /// # Panics
    ///
    /// Panics if the access is outside the layout (tables or rows out of
    /// range) — traces are generated against the same config, so this is a
    /// programming error rather than a runtime condition.
    pub fn address_of(&self, access: EmbeddingAccess) -> u64 {
        assert!(
            access.table < self.num_tables,
            "table {} out of range ({})",
            access.table,
            self.num_tables
        );
        assert!(
            access.row < self.rows_per_table,
            "row {} out of range ({})",
            access.row,
            self.rows_per_table
        );
        self.base + access.table as u64 * self.table_stride + access.row * self.row_bytes
    }
}

/// Everything a timing simulator needs to know about one batched inference
/// request: the model, the batch size and the gather trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceTrace {
    /// The model configuration the request targets.
    pub config: ModelConfig,
    /// Embedding gathers of every sample in the batch.
    pub gather: GatherTrace,
}

impl InferenceTrace {
    /// Creates an inference trace, checking that the gather trace is
    /// consistent with the configuration (same table count per sample).
    ///
    /// # Panics
    ///
    /// Panics if any sample references a different number of tables than the
    /// configuration declares.
    pub fn new(config: ModelConfig, gather: GatherTrace) -> Self {
        for sample in &gather.samples {
            assert_eq!(
                sample.rows_per_table.len(),
                config.num_tables,
                "sample trace table count does not match config"
            );
        }
        InferenceTrace { config, gather }
    }

    /// Batch size of the request.
    pub fn batch_size(&self) -> usize {
        self.gather.batch_size()
    }

    /// Bytes of dense features the host supplies for the whole batch.
    pub fn dense_bytes(&self) -> u64 {
        self.config.dense_bytes_per_sample() * self.batch_size() as u64
    }

    /// Bytes of sparse indices for the whole batch.
    pub fn index_bytes(&self) -> u64 {
        self.gather.index_bytes()
    }

    /// Useful embedding bytes gathered for the whole batch.
    pub fn gathered_bytes(&self) -> u64 {
        self.gather.gathered_bytes()
    }

    /// The table layout implied by the configuration.
    pub fn layout(&self) -> TableLayout {
        TableLayout::for_config(&self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperModel;

    fn sample(rows: &[&[u64]]) -> SampleTrace {
        SampleTrace {
            rows_per_table: rows.iter().map(|r| r.to_vec()).collect(),
        }
    }

    #[test]
    fn sample_trace_counts_and_iteration() {
        let s = sample(&[&[1, 2, 3], &[7]]);
        assert_eq!(s.num_lookups(), 4);
        let accesses: Vec<_> = s.iter_accesses().collect();
        assert_eq!(accesses.len(), 4);
        assert_eq!(accesses[0], EmbeddingAccess { table: 0, row: 1 });
        assert_eq!(accesses[3], EmbeddingAccess { table: 1, row: 7 });
        assert_eq!(s.as_u32_indices(), vec![vec![1, 2, 3], vec![7]]);
    }

    #[test]
    fn gather_trace_accounting() {
        let trace = GatherTrace::new(
            32,
            vec![sample(&[&[0, 1], &[2]]), sample(&[&[3], &[4, 5, 6]])],
        );
        assert_eq!(trace.batch_size(), 2);
        assert_eq!(trace.row_bytes(), 128);
        assert_eq!(trace.total_lookups(), 7);
        assert_eq!(trace.gathered_bytes(), 7 * 128);
        assert_eq!(trace.index_bytes(), 28);
        assert_eq!(trace.iter_accesses().count(), 7);
    }

    #[test]
    fn table_layout_addresses_are_disjoint_and_aligned() {
        let layout = TableLayout::new(0x1000, 3, 100, 128);
        let a00 = layout.address_of(EmbeddingAccess { table: 0, row: 0 });
        let a01 = layout.address_of(EmbeddingAccess { table: 0, row: 1 });
        let a10 = layout.address_of(EmbeddingAccess { table: 1, row: 0 });
        assert_eq!(a00, 0x1000);
        assert_eq!(a01 - a00, 128);
        assert_eq!((a10 - a00) % 4096, 0);
        assert!(a10 >= a00 + 100 * 128);
    }

    #[test]
    #[should_panic(expected = "row 100 out of range")]
    fn table_layout_panics_on_bad_row() {
        let layout = TableLayout::new(0, 1, 100, 128);
        layout.address_of(EmbeddingAccess { table: 0, row: 100 });
    }

    #[test]
    fn layout_for_paper_config_spans_table_size() {
        let c = PaperModel::Dlrm5.config();
        let layout = TableLayout::for_config(&c);
        assert_eq!(layout.num_tables(), 50);
        // Span must be at least the raw embedding bytes (3.2 GB).
        assert!(layout.num_tables as u64 * layout.table_stride >= c.embedding_bytes());
    }

    #[test]
    fn inference_trace_aggregates() {
        let c = PaperModel::Dlrm1.config().with_rows_per_table(1000);
        let per_sample: Vec<SampleTrace> = (0..4)
            .map(|s| SampleTrace {
                rows_per_table: (0..c.num_tables)
                    .map(|t| {
                        (0..c.lookups_per_table as u64)
                            .map(|i| (s + t as u64 + i) % 1000)
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        let trace = InferenceTrace::new(c.clone(), GatherTrace::new(c.embedding_dim, per_sample));
        assert_eq!(trace.batch_size(), 4);
        assert_eq!(trace.gathered_bytes(), 4 * c.gathered_bytes_per_sample());
        assert_eq!(trace.index_bytes(), 4 * c.index_bytes_per_sample());
        assert_eq!(trace.dense_bytes(), 4 * 13 * 4);
    }

    #[test]
    #[should_panic(expected = "table count")]
    fn inference_trace_validates_table_count() {
        let c = PaperModel::Dlrm1.config();
        let bad = GatherTrace::new(32, vec![sample(&[&[1]])]); // 1 table vs 5
        InferenceTrace::new(c, bad);
    }
}
