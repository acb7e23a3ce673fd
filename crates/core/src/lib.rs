//! # centaur
//!
//! A reproduction of **Centaur: A Chiplet-based, Hybrid Sparse-Dense
//! Accelerator for Personalized Recommendations** (Hwang, Kim, Kwon and Rhu,
//! ISCA 2020) as a Rust library.
//!
//! The original work prototypes the accelerator on an Intel HARPv2
//! package-integrated CPU+FPGA. This crate models that hardware:
//!
//! * [`chiplet`] — the CPU↔FPGA coherent-link fabric (2×PCIe + UPI,
//!   28.8 GB/s theoretical) plus a forward-looking cache-bypassing chiplet
//!   link;
//! * [`bpregs`] — the base-pointer register file the host initialises over
//!   MMIO ("pointer-is-a-pointer" semantics);
//! * [`sparse`] — the EB-Streamer sparse accelerator: sparse-index SRAM,
//!   embedding gather unit and embedding reduction unit;
//! * [`dense`] — the dense accelerator: a 4×4 array of 32×32 FP GEMM
//!   processing engines with an output-stationary dataflow, the
//!   feature-interaction unit, the sigmoid unit and on-chip SRAM buffers;
//! * [`fpga`] — the Arria-10 resource model reproducing Tables II and III;
//! * [`accelerator`] — the assembled timing model producing Figure 14's
//!   IDX/EMB/DNF/MLP/Other breakdown;
//! * [`runtime`] — the host-side software interface driving *functional*
//!   inference through both complexes, which run the reference DLRM's own
//!   batch stages from `centaur-dlrm` behind their checks and counters.
//!
//! ## Quick example
//!
//! ```
//! use centaur::CentaurSystem;
//! use centaur_dlrm::PaperModel;
//! use centaur_workload::{IndexDistribution, RequestGenerator};
//!
//! let model = PaperModel::Dlrm1.config();
//! let mut generator = RequestGenerator::new(&model, IndexDistribution::Uniform, 7);
//! let trace = generator.inference_trace(16);
//!
//! let mut centaur = CentaurSystem::harpv2();
//! let result = centaur.simulate(&trace);
//! println!(
//!     "Centaur latency: {:.1} us ({:.1} GB/s effective gather throughput)",
//!     result.total_ns() / 1000.0,
//!     result.effective_embedding_throughput().gigabytes_per_second()
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accelerator;
pub mod bpregs;
pub mod chiplet;
pub mod dense;
pub mod error;
pub mod fpga;
pub mod runtime;
pub mod sparse;

pub use accelerator::{CentaurBreakdown, CentaurConfig, CentaurInferenceResult, CentaurSystem};
pub use bpregs::{BasePointer, BasePointerRegs};
pub use chiplet::{ChipletLinkConfig, LinkPath};
pub use dense::{DenseAccelerator, DenseStageTiming, MlpUnit, ProcessingEngine};
pub use error::CentaurError;
pub use fpga::{FpgaResources, ResourceReport, ResourceUtilization};
pub use runtime::{CentaurRuntime, BATCH_WAVE_SAMPLES};
pub use sparse::{EbStreamer, HotRowCache, SparseStageTiming};
