//! Model configurations, including the six recommendation models of
//! Table I in the paper.

use crate::error::DlrmError;
use crate::interaction::FeatureInteraction;
use crate::EMBEDDING_ELEM_BYTES;
use serde::{Deserialize, Serialize};

/// Full architectural description of a DLRM-style recommendation model.
///
/// A configuration is *purely structural*: it carries no weights. Use
/// [`crate::model::DlrmModel::random`] to instantiate parameters, or feed the
/// configuration directly to the timing simulators (which never need real
/// weights).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"DLRM(3)"`.
    pub name: String,
    /// Number of embedding tables.
    pub num_tables: usize,
    /// Number of rows in each embedding table.
    pub rows_per_table: u64,
    /// Embedding vector width (the paper's default is 32).
    pub embedding_dim: usize,
    /// Average number of gather operations per table per sample.
    pub lookups_per_table: usize,
    /// Number of continuous (dense) input features.
    pub dense_features: usize,
    /// Bottom-MLP layer widths *excluding* the input width (which is
    /// `dense_features`); the last entry is the bottom-MLP output width and
    /// must equal `embedding_dim` so it can join the feature interaction.
    pub bottom_mlp: Vec<usize>,
    /// Top-MLP hidden layer widths *excluding* the input width (derived from
    /// the interaction) and *excluding* the final single-unit output layer.
    pub top_mlp_hidden: Vec<usize>,
}

impl ModelConfig {
    /// Starts building a configuration.
    pub fn builder() -> ModelConfigBuilder {
        ModelConfigBuilder::default()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), DlrmError> {
        if self.num_tables == 0 {
            return Err(DlrmError::InvalidConfig("num_tables must be > 0".into()));
        }
        if self.rows_per_table == 0 {
            return Err(DlrmError::InvalidConfig(
                "rows_per_table must be > 0".into(),
            ));
        }
        if self.embedding_dim == 0 {
            return Err(DlrmError::InvalidConfig("embedding_dim must be > 0".into()));
        }
        if self.lookups_per_table == 0 {
            return Err(DlrmError::InvalidConfig(
                "lookups_per_table must be > 0".into(),
            ));
        }
        if self.dense_features == 0 {
            return Err(DlrmError::InvalidConfig(
                "dense_features must be > 0".into(),
            ));
        }
        if self.bottom_mlp.is_empty() {
            return Err(DlrmError::InvalidConfig(
                "bottom_mlp must have at least one layer".into(),
            ));
        }
        if self
            .bottom_mlp
            .iter()
            .chain(&self.top_mlp_hidden)
            .any(|&d| d == 0)
        {
            return Err(DlrmError::InvalidConfig(
                "MLP layer widths must be non-zero".into(),
            ));
        }
        // Sparse indices are `u32`, so further rows could never be read, and
        // the byte sizes below size real allocations: reject instead of
        // wrapping.
        if self.rows_per_table > u64::from(u32::MAX) {
            return Err(DlrmError::InvalidConfig(format!(
                "rows_per_table ({}) exceeds the u32 index range",
                self.rows_per_table
            )));
        }
        let table_bytes = self.checked_table_bytes().ok_or_else(|| {
            DlrmError::InvalidConfig(format!(
                "one table of {} rows x {} elements x {EMBEDDING_ELEM_BYTES} bytes overflows",
                self.rows_per_table, self.embedding_dim
            ))
        })?;
        if self.checked_embedding_bytes().is_none() {
            return Err(DlrmError::InvalidConfig(format!(
                "{} tables of {table_bytes} bytes overflow",
                self.num_tables
            )));
        }
        if *self.bottom_mlp.last().expect("non-empty") != self.embedding_dim {
            return Err(DlrmError::InvalidConfig(format!(
                "bottom MLP output ({}) must equal embedding_dim ({}) for feature interaction",
                self.bottom_mlp.last().expect("non-empty"),
                self.embedding_dim
            )));
        }
        Ok(())
    }

    /// Bytes per embedding row.
    pub fn row_bytes(&self) -> usize {
        self.embedding_dim * EMBEDDING_ELEM_BYTES
    }

    /// Bytes of one embedding table.
    ///
    /// # Panics
    ///
    /// Panics on overflow, which [`ModelConfig::validate`] rejects.
    pub fn table_bytes(&self) -> u64 {
        self.checked_table_bytes()
            .expect("table bytes overflow (ModelConfig::validate rejects this config)")
    }

    /// Total embedding-table footprint in bytes (the "Table size" column of
    /// Table I).
    ///
    /// # Panics
    ///
    /// Panics on overflow, which [`ModelConfig::validate`] rejects.
    pub fn embedding_bytes(&self) -> u64 {
        self.checked_embedding_bytes()
            .expect("embedding bytes overflow (ModelConfig::validate rejects this config)")
    }

    fn checked_table_bytes(&self) -> Option<u64> {
        u64::try_from(self.embedding_dim)
            .ok()?
            .checked_mul(EMBEDDING_ELEM_BYTES as u64)?
            .checked_mul(self.rows_per_table)
    }

    fn checked_embedding_bytes(&self) -> Option<u64> {
        self.checked_table_bytes()?
            .checked_mul(u64::try_from(self.num_tables).ok()?)
    }

    /// Number of feature vectors entering the interaction stage
    /// (`num_tables` reduced embeddings + the bottom-MLP output).
    pub fn interaction_features(&self) -> usize {
        self.num_tables + 1
    }

    /// The feature-interaction operator implied by this configuration.
    pub fn feature_interaction(&self) -> FeatureInteraction {
        FeatureInteraction::new(self.interaction_features(), self.embedding_dim)
            .expect("validated config produces a valid interaction")
    }

    /// Width of the top-MLP input (pairwise terms + bottom-MLP output).
    pub fn top_mlp_input_dim(&self) -> usize {
        self.feature_interaction().output_dim()
    }

    /// Complete bottom-MLP layer widths including the input width.
    pub fn bottom_mlp_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.bottom_mlp.len() + 1);
        dims.push(self.dense_features);
        dims.extend_from_slice(&self.bottom_mlp);
        dims
    }

    /// Complete top-MLP layer widths including the derived input width and
    /// the single-unit output.
    pub fn top_mlp_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.top_mlp_hidden.len() + 2);
        dims.push(self.top_mlp_input_dim());
        dims.extend_from_slice(&self.top_mlp_hidden);
        dims.push(1);
        dims
    }

    /// Number of MLP parameters (bottom + top, weights + biases).
    pub fn mlp_params(&self) -> u64 {
        let count =
            |dims: &[usize]| -> u64 { dims.windows(2).map(|w| (w[0] * w[1] + w[1]) as u64).sum() };
        count(&self.bottom_mlp_dims()) + count(&self.top_mlp_dims())
    }

    /// MLP parameter footprint in bytes (the "MLP size" column of Table I).
    pub fn mlp_bytes(&self) -> u64 {
        self.mlp_params() * EMBEDDING_ELEM_BYTES as u64
    }

    /// Total embedding rows gathered for one sample.
    pub fn lookups_per_sample(&self) -> usize {
        self.num_tables * self.lookups_per_table
    }

    /// Bytes of embedding data gathered for one sample (the numerator of the
    /// paper's *effective throughput* metric).
    pub fn gathered_bytes_per_sample(&self) -> u64 {
        self.lookups_per_sample() as u64 * self.row_bytes() as u64
    }

    /// Bytes of sparse indices transferred per sample (4-byte indices).
    pub fn index_bytes_per_sample(&self) -> u64 {
        self.lookups_per_sample() as u64 * 4
    }

    /// Bytes of dense features transferred per sample.
    pub fn dense_bytes_per_sample(&self) -> u64 {
        (self.dense_features * EMBEDDING_ELEM_BYTES) as u64
    }

    /// Total forward-pass FLOPs per sample for the dense (MLP + interaction)
    /// portion of the model.
    pub fn dense_flops_per_sample(&self) -> u64 {
        let gemm =
            |dims: &[usize]| -> u64 { dims.windows(2).map(|w| 2 * (w[0] * w[1]) as u64).sum() };
        gemm(&self.bottom_mlp_dims())
            + gemm(&self.top_mlp_dims())
            + self.feature_interaction().flops()
    }

    /// Returns a copy of this configuration with each table scaled down to
    /// `rows` rows — handy for functional tests that need real data without
    /// allocating the multi-GB tables of Table I.
    pub fn with_rows_per_table(&self, rows: u64) -> ModelConfig {
        ModelConfig {
            rows_per_table: rows,
            name: format!("{}[rows={rows}]", self.name),
            ..self.clone()
        }
    }

    /// Returns a copy with a different number of lookups per table (used by
    /// the Figure 7(b)/13(b) lookup sweeps).
    pub fn with_lookups_per_table(&self, lookups: usize) -> ModelConfig {
        ModelConfig {
            lookups_per_table: lookups,
            name: format!("{}[lookups={lookups}]", self.name),
            ..self.clone()
        }
    }

    /// Returns a copy with a different number of tables.
    pub fn with_num_tables(&self, num_tables: usize) -> ModelConfig {
        ModelConfig {
            num_tables,
            name: format!("{}[tables={num_tables}]", self.name),
            ..self.clone()
        }
    }
}

/// Builder for [`ModelConfig`].
#[derive(Debug, Clone, Default)]
pub struct ModelConfigBuilder {
    name: Option<String>,
    num_tables: Option<usize>,
    rows_per_table: Option<u64>,
    embedding_dim: Option<usize>,
    lookups_per_table: Option<usize>,
    dense_features: Option<usize>,
    bottom_mlp: Option<Vec<usize>>,
    top_mlp: Option<Vec<usize>>,
}

impl ModelConfigBuilder {
    /// Sets the model name (defaults to `"custom"`).
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Sets the number of embedding tables.
    pub fn num_tables(mut self, n: usize) -> Self {
        self.num_tables = Some(n);
        self
    }

    /// Sets the number of rows per table.
    pub fn rows_per_table(mut self, rows: u64) -> Self {
        self.rows_per_table = Some(rows);
        self
    }

    /// Sets the embedding dimension (defaults to 32).
    pub fn embedding_dim(mut self, dim: usize) -> Self {
        self.embedding_dim = Some(dim);
        self
    }

    /// Sets the average lookups per table per sample.
    pub fn lookups_per_table(mut self, lookups: usize) -> Self {
        self.lookups_per_table = Some(lookups);
        self
    }

    /// Sets the number of dense input features (defaults to 13, the Criteo
    /// convention used by DLRM).
    pub fn dense_features(mut self, n: usize) -> Self {
        self.dense_features = Some(n);
        self
    }

    /// Sets the bottom-MLP layer widths (excluding the input width); the
    /// last width must equal the embedding dimension.
    pub fn bottom_mlp(mut self, dims: &[usize]) -> Self {
        self.bottom_mlp = Some(dims.to_vec());
        self
    }

    /// Sets the top-MLP widths. The final `1`-unit output layer is implied
    /// and must not be included; a trailing `1` is accepted and stripped for
    /// convenience.
    pub fn top_mlp(mut self, dims: &[usize]) -> Self {
        let mut dims = dims.to_vec();
        if dims.last() == Some(&1) {
            dims.pop();
        }
        self.top_mlp = Some(dims);
        self
    }

    /// Builds and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidConfig`] if a required field is missing
    /// or the configuration is inconsistent.
    pub fn build(self) -> Result<ModelConfig, DlrmError> {
        let embedding_dim = self.embedding_dim.unwrap_or(crate::DEFAULT_EMBEDDING_DIM);
        let config = ModelConfig {
            name: self.name.unwrap_or_else(|| "custom".to_string()),
            num_tables: self
                .num_tables
                .ok_or_else(|| DlrmError::InvalidConfig("num_tables not set".into()))?,
            rows_per_table: self
                .rows_per_table
                .ok_or_else(|| DlrmError::InvalidConfig("rows_per_table not set".into()))?,
            embedding_dim,
            lookups_per_table: self
                .lookups_per_table
                .ok_or_else(|| DlrmError::InvalidConfig("lookups_per_table not set".into()))?,
            dense_features: self.dense_features.unwrap_or(13),
            bottom_mlp: self.bottom_mlp.unwrap_or_else(|| vec![64, embedding_dim]),
            top_mlp_hidden: self.top_mlp.unwrap_or_else(|| vec![64, 32]),
        };
        config.validate()?;
        Ok(config)
    }
}

/// The six recommendation models of Table I in the paper.
///
/// Table sizes follow the paper exactly (128 MB, 1.28 GB or 3.2 GB of
/// embeddings); MLP layer widths are chosen to land close to the paper's
/// reported MLP footprints (57.4 KB for DLRM(1)–(5), 557 KB for DLRM(6));
/// [`ModelConfig::mlp_bytes`] gives the exact derived size of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PaperModel {
    /// DLRM(1): 5 tables, 20 gathers/table, 128 MB of embeddings.
    Dlrm1,
    /// DLRM(2): 50 tables, 20 gathers/table, 1.28 GB of embeddings.
    Dlrm2,
    /// DLRM(3): 5 tables, 80 gathers/table, 128 MB of embeddings.
    Dlrm3,
    /// DLRM(4): 50 tables, 80 gathers/table, 1.28 GB of embeddings.
    Dlrm4,
    /// DLRM(5): 50 tables, 80 gathers/table, 3.2 GB of embeddings.
    Dlrm5,
    /// DLRM(6): 5 tables, 2 gathers/table, 128 MB of embeddings and a
    /// deliberately heavyweight MLP (the MLP-bound sensitivity study).
    Dlrm6,
}

impl PaperModel {
    /// All six models in paper order.
    pub fn all() -> [PaperModel; 6] {
        [
            PaperModel::Dlrm1,
            PaperModel::Dlrm2,
            PaperModel::Dlrm3,
            PaperModel::Dlrm4,
            PaperModel::Dlrm5,
            PaperModel::Dlrm6,
        ]
    }

    /// The paper's name for the model, e.g. `"DLRM(4)"`.
    pub fn label(self) -> &'static str {
        match self {
            PaperModel::Dlrm1 => "DLRM(1)",
            PaperModel::Dlrm2 => "DLRM(2)",
            PaperModel::Dlrm3 => "DLRM(3)",
            PaperModel::Dlrm4 => "DLRM(4)",
            PaperModel::Dlrm5 => "DLRM(5)",
            PaperModel::Dlrm6 => "DLRM(6)",
        }
    }

    /// Builds the full [`ModelConfig`] for this paper model.
    pub fn config(self) -> ModelConfig {
        // 32-dim f32 embeddings = 128 B rows. 200_000 rows/table = 25.6 MB
        // per table; 500_000 rows = 64 MB per table.
        let (num_tables, lookups, rows_per_table): (usize, usize, u64) = match self {
            PaperModel::Dlrm1 => (5, 20, 200_000),
            PaperModel::Dlrm2 => (50, 20, 200_000),
            PaperModel::Dlrm3 => (5, 80, 200_000),
            PaperModel::Dlrm4 => (50, 80, 200_000),
            PaperModel::Dlrm5 => (50, 80, 500_000),
            PaperModel::Dlrm6 => (5, 2, 200_000),
        };
        let (bottom, top): (Vec<usize>, Vec<usize>) = match self {
            // Lightweight MLP (~57 KB class).
            PaperModel::Dlrm1
            | PaperModel::Dlrm2
            | PaperModel::Dlrm3
            | PaperModel::Dlrm4
            | PaperModel::Dlrm5 => (vec![128, 64, 32], vec![64, 32]),
            // Heavyweight MLP (~557 KB class).
            PaperModel::Dlrm6 => (vec![256, 256, 128, 32], vec![256, 128, 64]),
        };
        ModelConfig {
            name: self.label().to_string(),
            num_tables,
            rows_per_table,
            embedding_dim: crate::DEFAULT_EMBEDDING_DIM,
            lookups_per_table: lookups,
            dense_features: 13,
            bottom_mlp: bottom,
            top_mlp_hidden: top,
        }
    }

    /// The batch sizes swept by every evaluation figure in the paper.
    pub fn paper_batch_sizes() -> [usize; 6] {
        [1, 4, 16, 32, 64, 128]
    }
}

impl std::fmt::Display for PaperModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let c = ModelConfig::builder()
            .name("test")
            .num_tables(4)
            .rows_per_table(100)
            .embedding_dim(16)
            .lookups_per_table(8)
            .dense_features(13)
            .bottom_mlp(&[32, 16])
            .top_mlp(&[64, 32, 1])
            .build()
            .unwrap();
        assert_eq!(c.name, "test");
        assert_eq!(c.top_mlp_hidden, vec![64, 32]);
        assert_eq!(c.bottom_mlp_dims(), vec![13, 32, 16]);
        assert_eq!(c.top_mlp_dims().last(), Some(&1));
    }

    #[test]
    fn builder_requires_fields() {
        assert!(ModelConfig::builder().build().is_err());
        assert!(ModelConfig::builder().num_tables(2).build().is_err());
    }

    #[test]
    fn validation_rejects_mismatched_bottom_output() {
        let c = ModelConfig::builder()
            .num_tables(2)
            .rows_per_table(10)
            .embedding_dim(32)
            .lookups_per_table(2)
            .bottom_mlp(&[64, 16]) // != embedding_dim
            .build();
        assert!(matches!(c, Err(DlrmError::InvalidConfig(_))));
    }

    #[test]
    fn validation_rejects_zeros() {
        for bad in [
            ModelConfig {
                num_tables: 0,
                ..PaperModel::Dlrm1.config()
            },
            ModelConfig {
                rows_per_table: 0,
                ..PaperModel::Dlrm1.config()
            },
            ModelConfig {
                lookups_per_table: 0,
                ..PaperModel::Dlrm1.config()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn validation_rejects_rows_beyond_the_u32_index_range() {
        let at_limit = ModelConfig {
            rows_per_table: u64::from(u32::MAX),
            ..PaperModel::Dlrm1.config()
        };
        assert!(at_limit.validate().is_ok());
        let beyond = ModelConfig {
            rows_per_table: u64::from(u32::MAX) + 1,
            ..PaperModel::Dlrm1.config()
        };
        assert!(
            matches!(beyond.validate(), Err(DlrmError::InvalidConfig(msg)) if msg.contains("u32"))
        );
    }

    #[test]
    fn validation_rejects_table_bytes_overflow() {
        // rows x dim x 4 wraps u64 (and would have sized a wrapped
        // allocation in a release build).
        let dim = usize::MAX / 2;
        let bad = ModelConfig {
            embedding_dim: dim,
            bottom_mlp: vec![64, dim],
            ..PaperModel::Dlrm1.config()
        };
        assert!(
            matches!(bad.validate(), Err(DlrmError::InvalidConfig(msg)) if msg.contains("overflows"))
        );
        assert!(crate::model::DlrmModel::random(&bad, 1).is_err());
    }

    #[test]
    fn validation_rejects_embedding_bytes_overflow() {
        // One table fits (2^32-1 rows x 128 B < 2^39), 2^26 of them do not.
        let bad = ModelConfig {
            rows_per_table: u64::from(u32::MAX),
            num_tables: 1 << 26,
            ..PaperModel::Dlrm1.config()
        };
        assert!(bad.checked_table_bytes().is_some());
        assert!(
            matches!(bad.validate(), Err(DlrmError::InvalidConfig(msg)) if msg.contains("tables of"))
        );
    }

    #[test]
    fn paper_table_sizes_match_table1() {
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        // 128 MB class (paper rounds 25.6 MB * 5 = 122 MiB ≈ 128 MB decimal).
        let c1 = PaperModel::Dlrm1.config();
        assert_eq!(c1.num_tables, 5);
        assert_eq!(c1.lookups_per_table, 20);
        assert!((c1.embedding_bytes() as f64 / 1e6 - 128.0).abs() < 1.0);

        let c2 = PaperModel::Dlrm2.config();
        assert_eq!(c2.num_tables, 50);
        assert!((c2.embedding_bytes() as f64 / 1e9 - 1.28).abs() < 0.01);

        let c5 = PaperModel::Dlrm5.config();
        assert!((c5.embedding_bytes() as f64 / 1e9 - 3.2).abs() < 0.05);

        let c6 = PaperModel::Dlrm6.config();
        assert_eq!(c6.lookups_per_table, 2);
        // DLRM(6) has a much larger MLP than the others.
        assert!(c6.mlp_bytes() > 5 * PaperModel::Dlrm1.config().mlp_bytes());
        assert!(mb(c6.mlp_bytes()) < 1.5, "MLP should stay cache-resident");
    }

    #[test]
    fn light_mlps_are_llc_resident() {
        for m in [PaperModel::Dlrm1, PaperModel::Dlrm2, PaperModel::Dlrm3] {
            let c = m.config();
            // well under the 35 MB Broadwell LLC
            assert!(c.mlp_bytes() < 2 * 1024 * 1024, "{}: {}", m, c.mlp_bytes());
        }
    }

    #[test]
    fn derived_quantities_consistent() {
        let c = PaperModel::Dlrm4.config();
        assert_eq!(c.row_bytes(), 128);
        assert_eq!(c.lookups_per_sample(), 50 * 80);
        assert_eq!(c.gathered_bytes_per_sample(), 50 * 80 * 128);
        assert_eq!(c.index_bytes_per_sample(), 50 * 80 * 4);
        assert_eq!(c.dense_bytes_per_sample(), 13 * 4);
        assert_eq!(c.interaction_features(), 51);
        assert_eq!(c.top_mlp_input_dim(), 51 * 50 / 2 + 32);
        assert!(c.dense_flops_per_sample() > 0);
        assert_eq!(c.bottom_mlp_dims()[0], 13);
        assert_eq!(*c.top_mlp_dims().last().unwrap(), 1);
    }

    #[test]
    fn with_helpers_rename() {
        let c = PaperModel::Dlrm1.config();
        assert_eq!(c.with_rows_per_table(64).rows_per_table, 64);
        assert_eq!(c.with_lookups_per_table(7).lookups_per_table, 7);
        assert_eq!(c.with_num_tables(3).num_tables, 3);
        assert!(c.with_rows_per_table(64).name.contains("rows=64"));
    }

    #[test]
    fn all_paper_models_validate() {
        for m in PaperModel::all() {
            m.config().validate().unwrap();
        }
        assert_eq!(PaperModel::all().len(), 6);
        assert_eq!(PaperModel::Dlrm3.to_string(), "DLRM(3)");
        assert_eq!(PaperModel::paper_batch_sizes(), [1, 4, 16, 32, 64, 128]);
    }
}
