//! The embedding gather unit (EB-GU): a base + offset address generator
//! that turns sparse index IDs into CPU→FPGA read requests (Figure 10).

use centaur_dlrm::trace::{EmbeddingAccess, TableLayout};
use serde::{Deserialize, Serialize};

/// One CPU→FPGA embedding read generated by the gather unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GatherRequest {
    /// Physical byte address of the embedding row.
    pub address: u64,
    /// Bytes to read (one embedding row).
    pub bytes: u64,
    /// Which table the row belongs to (used for reduction routing).
    pub table: usize,
}

/// The EB-GU address generator.
///
/// The unit is almost pure combinational logic in the real design (base +
/// index × row-stride); here it is a deterministic function from index IDs
/// to [`GatherRequest`]s plus issue counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingGatherUnit {
    requests_generated: u64,
    bytes_requested: u64,
    requests_suppressed: u64,
}

impl EmbeddingGatherUnit {
    /// Creates an idle gather unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total requests generated so far.
    pub fn requests_generated(&self) -> u64 {
        self.requests_generated
    }

    /// Total bytes requested so far.
    pub fn bytes_requested(&self) -> u64 {
        self.bytes_requested
    }

    /// Read requests the hot-row cache short-circuited before they reached
    /// the link (a gather that hits on chip never becomes a CPU→FPGA read).
    pub fn requests_suppressed(&self) -> u64 {
        self.requests_suppressed
    }

    /// Records `count` gathers served from the hot-row cache instead of the
    /// link.
    pub fn record_suppressed(&mut self, count: u64) {
        self.requests_suppressed += count;
    }

    /// Computes the data-fetch address for one gather (the `base + offset`
    /// calculation of Figure 10) and records the issue.
    pub fn generate(&mut self, layout: &TableLayout, table: usize, row: u64) -> GatherRequest {
        let address = layout.address_of(EmbeddingAccess { table, row });
        let bytes = layout.row_bytes();
        self.record_requests(1, bytes);
        GatherRequest {
            address,
            bytes,
            table,
        }
    }

    /// Records the issue of `count` row reads of `row_bytes` each: the
    /// counters of `count` [`EmbeddingGatherUnit::generate`] calls, without
    /// building the requests.
    pub fn record_requests(&mut self, count: u64, row_bytes: u64) {
        self.requests_generated += count;
        self.bytes_requested += count * row_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> TableLayout {
        TableLayout::new(0x10_0000, 4, 1000, 128)
    }

    #[test]
    fn addresses_match_layout() {
        let layout = layout();
        let mut gu = EmbeddingGatherUnit::new();
        let req = gu.generate(&layout, 2, 7);
        assert_eq!(
            req.address,
            layout.address_of(EmbeddingAccess { table: 2, row: 7 })
        );
        assert_eq!(req.bytes, 128);
        assert_eq!(req.table, 2);
    }

    #[test]
    fn counters_accumulate() {
        let layout = layout();
        let mut gu = EmbeddingGatherUnit::new();
        let tables: Vec<usize> = [(0, 0), (0, 1), (1, 5), (3, 999)]
            .into_iter()
            .map(|(table, row)| gu.generate(&layout, table, row).table)
            .collect();
        assert_eq!(tables, vec![0, 0, 1, 3]);
        assert_eq!(gu.requests_generated(), 4);
        assert_eq!(gu.bytes_requested(), 4 * 128);
        // Recording the same issue arithmetically moves the counters alike.
        gu.record_requests(3, 128);
        assert_eq!(gu.requests_generated(), 7);
        assert_eq!(gu.bytes_requested(), 7 * 128);
    }
}
