//! The sparse accelerator complex (EB-Streamer): sparse index SRAM,
//! embedding gather unit (EB-GU), embedding reduction unit (EB-RU) and the
//! hot-row cache, exactly as laid out in Figures 9 and 10 of the paper
//! (the cache models the on-chip reuse Centaur's block RAM enables on
//! skewed production traffic).

pub mod gather_unit;
pub mod hot_row_cache;
pub mod index_sram;
mod lanes;
pub mod reduction_unit;
pub mod streamer;

pub use gather_unit::{EmbeddingGatherUnit, GatherRequest};
pub use hot_row_cache::{CacheAccess, HotRowCache, RowCacheTags};
pub use index_sram::SparseIndexSram;
pub use reduction_unit::EmbeddingReductionUnit;
pub use streamer::{EbStreamer, SparseStageTiming};
