//! The optimized compute backend: a register-tiled GEMM over strip-packed
//! weights with fused bias + activation epilogues, reusable scratch
//! workspaces and SIMD-friendly chunked reductions.
//!
//! Everything that executes real math in the workspace — `Matrix::matmul`,
//! `DenseLayer`/`Mlp` forward passes, the feature interaction and the
//! embedding gather/reduce — routes through this module.
//!
//! # The GEMM: an R×16 register tile over 16-column strips
//!
//! **Why strips.** `B` (`[k, n]`) is cut into `KC × NC` blocks and each
//! block is stored as 16-column strips: `kcb` rows × 16 floats, contiguous,
//! the narrow last strip of a block at its own width (so the layout is a
//! permutation of `B` and a prepacked matrix is exactly `k·n·4` bytes). A
//! strip is one sequential stream of at most `KC·16·4` = 16 KB. It stays in
//! L1 while every row tile of `A` sweeps it (loop order: strip outer, row
//! tile inner), and consecutive `k` steps read consecutive cache lines (in
//! a row-major block they would sit `nc·4` bytes apart).
//!
//! **Why 6×16 on AVX2 and 16×16 on AVX-512.** The tile's accumulators live
//! in registers across the whole `k` block; per `k` step it loads one strip
//! row, broadcasts one element of each `A` row and issues one fused
//! multiply-add per row. One body, `tile::<R>`, is instantiated at the
//! full-tile height that fits each vector unit, and `sweep_block` runs the
//! widest unit the CPU has (detected once):
//!
//! - AVX2 + FMA: a strip row is 2 of the 16 ymm registers, so an `R × 16`
//!   tile needs `2R` accumulators + 2 + 1 = `2R + 3`. `R = 6` fits; 7
//!   rows need 17 and spill on every step. Remainders run 4 and 1 rows.
//!   The portable build uses the same heights.
//! - AVX-512F + FMA: a strip row is exactly one of the 32 zmm registers,
//!   so 16 rows need 16 accumulators + 1 + 1 = 18, with room to spare.
//!   LLVM keeps all 16 accumulators in zmm0–15 and emits one
//!   `vfmadd231ps mem{1to16}` per row and `k`, with no spills and one
//!   bounds check per `k`. Remainders run 8, 4 and 1 rows.
//!
//! Full-tile heights swept under AVX-512 on the reference host
//! (`offline_mlp`: DLRM(6) at batch 16; one binary per height, seeds 11–13
//! at 12 s, samples per second, multiply and add still unfused): 8 rows
//! (8 + 8) 231–237 k, 12 rows (12 + 4) 188–191 k, **16 rows (one tile)
//! 251–252 k**, against 156 k for the AVX2 6-row build (6 + 6 + 4).
//! Traced (seed 7), `kernel.gemm_gflops` moved from 54.4 to 88.2 — the
//! unfused peak of two 512-bit operations per cycle. Fusing the step
//! lifts that limit: the same traced row reads 124–132 fused, and
//! `offline_mlp` runs 1.5× the unfused build's samples per second.
//!
//! **Same bits everywhere.** Every output element gets one fused
//! multiply-add per `k` (`f32::mul_add`: the exact `a·b + acc`, rounded
//! once as IEEE defines it), `k` ascending, whatever tile height, unit or
//! strip it lands in. A correctly rounded operation has one answer, so the
//! bits do not depend on the unit or the host either: the portable build
//! gets the same values from libm's `fmaf`. The two backends are therefore
//! **bitwise identical**:
//!
//! - [`KernelBackend::Naive`] — the textbook `ijk` triple loop. Slow by
//!   design; kept as the correctness oracle the production kernel is
//!   property-tested against.
//! - [`KernelBackend::BlockedPrepacked`] — production: the single-threaded
//!   tiled kernel, fed straight from [`PrepackedWeights`] strips packed
//!   **once at load** (every `DenseLayer` holds its weights that way), so
//!   no call pays the `O(k·n)` pack that would dominate `m = 1` and small
//!   serving batches.
//!
//! Both backends run [`gemm_bias_act_prepacked`], the one production GEMM.
//! [`gemm_reference`] is the row-major oracle beside them: the same
//! arithmetic over an unpacked `B`, so it checks the strip layout too.
//!
//! Nothing here spawns a thread: one call runs on its caller's thread, and
//! parallelism is the serve layer's replicas, one runtime per worker.
//!
//! Steady-state inference performs **zero heap allocations** when driven
//! through a [`Workspace`]: all intermediates (MLP ping/pong buffers,
//! interaction features) live in buffers that grow to a high-water mark and
//! are reused across calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Rows of a full register tile on AVX2 (and in the scalar build): `2·MR`
/// accumulator vectors + 2 strip-row vectors + 1 broadcast = 15 of AVX2's
/// 16 registers.
const MR: usize = 6;
/// Rows of a full register tile on AVX-512: `MR_AVX512` accumulator
/// vectors + 1 strip-row vector + 1 broadcast = 18 of the 32.
const MR_AVX512: usize = 16;
/// Columns of the register tile and of a packed strip of `B`.
const TJ: usize = 16;
/// `k`-dimension block size: one packed strip spans at most `KC` rows of `B`.
const KC: usize = 256;
/// `n`-dimension block size: columns of `B` (`NC / TJ` strips) per block.
const NC: usize = 512;
/// Chunk width for the unrolled reduction helpers.
const LANES: usize = 8;
/// Accumulator tile width (floats) of the vectorized gather-reduce kernels'
/// fast path: for the paper-default 32-wide embedding rows, four 8-lane
/// vector registers hold the whole accumulator across the entire index
/// list, so each gathered row is loaded exactly once and the accumulator
/// never round-trips through memory. Other row widths take a single
/// prefetched pass with chunked vector adds into the L1-resident
/// accumulator (never a second pass over the rows).
const GATHER_TILE: usize = 32;
/// The gather kernels' prefetch window, in rows: how far the prefetch
/// cursor of [`gather_lists_sum`] runs ahead of the accumulate loop, and
/// the size of the burst that opens it (64 rows of 128 B = 8 KB in flight).
///
/// Chosen by sweep on the reference host (2 vCPUs, THP `madvise`): DLRM(3),
/// five 200 000 × 32 tables, 256 Zipf-0.99 batches of 64, µs per
/// `reduce_batch_into` call, fastest / median of nine interleaved rounds —
/// no prefetch 340 / 398, 8 rows 246 / 270, 16 rows 231 / 244, 32 rows
/// 189 / 214, 48 rows 163 / 197, **64 rows 162 / 178**, 96 rows 171 / 200,
/// 128 rows 157 / 195, 192 rows 172 / 191, 256 rows 173 / 212; DLRM(1)
/// (20-row lists) 60 / 85 with none, 40 / 47 at 32, 36 / 40 at 64, 35 / 42
/// at 128, 39 / 45 at 256; uniform indices show the same plateau with more
/// spread. Flat from 48 to 128 rows, so 64. The window counts rows *across*
/// list boundaries: counted inside one list, as it was before the sequence
/// kernel, distances 4–24 were within noise of each other — a 20-row list
/// has no room to show more.
const GATHER_PREFETCH_DISTANCE: usize = 64;
/// Which GEMM implementation executes the dense math.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// Textbook `ijk` triple loop — the correctness oracle.
    Naive,
    /// Production: the cache-blocked, register-tiled kernel over 16-column
    /// strips, fed from weights packed **once at load**
    /// ([`PrepackedWeights`]). Bitwise identical to `Naive`.
    #[default]
    BlockedPrepacked,
}

impl KernelBackend {
    /// Oracle and production, for equivalence sweeps in tests/benches.
    pub fn all() -> [KernelBackend; 2] {
        [KernelBackend::Naive, KernelBackend::BlockedPrepacked]
    }

    /// Short label for bench/report output.
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Naive => "naive",
            KernelBackend::BlockedPrepacked => "blocked-prepacked",
        }
    }
}

/// The backend [`Matrix::matmul`] and the model forward passes run on: the
/// production variant. Tests and oracles pick [`KernelBackend::Naive`]
/// through the explicit `backend` arguments and `set_backend` setters.
///
/// [`Matrix::matmul`]: crate::tensor::Matrix::matmul
pub fn global_backend() -> KernelBackend {
    KernelBackend::default()
}

/// Which implementation executes the sparse embedding gather-reduce.
///
/// The two are **bitwise identical**: every output element accumulates its
/// rows in index order with one IEEE add each, and the vector units only
/// widen how many elements advance per step (a gather-sum has no multiply,
/// so there is nothing to fuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparseBackend {
    /// Row-at-a-time accumulate loop — the correctness oracle.
    Scalar,
    /// Production: register-tiled accumulator with software prefetch of
    /// upcoming rows and runtime-dispatched AVX2.
    #[default]
    Vectorized,
}

impl SparseBackend {
    /// Oracle and production, for equivalence sweeps in tests/benches.
    pub fn all() -> [SparseBackend; 2] {
        [SparseBackend::Scalar, SparseBackend::Vectorized]
    }

    /// Short label for bench/report output.
    pub fn label(self) -> &'static str {
        match self {
            SparseBackend::Scalar => "scalar",
            SparseBackend::Vectorized => "vectorized",
        }
    }
}

/// The sparse backend the embedding gather-reduce paths run on: the
/// production variant (see [`global_backend`]).
pub fn global_sparse_backend() -> SparseBackend {
    SparseBackend::default()
}

/// Activation fused into the GEMM epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FusedAct {
    /// No activation.
    #[default]
    Identity,
    /// `max(x, 0)`.
    Relu,
    /// Numerically stable logistic sigmoid.
    Sigmoid,
}

impl FusedAct {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            FusedAct::Identity => x,
            FusedAct::Relu => {
                if x > 0.0 {
                    x
                } else {
                    0.0
                }
            }
            FusedAct::Sigmoid => crate::tensor::sigmoid_scalar(x),
        }
    }
}

/// Reusable scratch buffers for allocation-free inference.
///
/// Buffers grow to a high-water mark and never shrink, so after the first
/// (warm-up) call through any given model shape, forward passes driven by
/// the same workspace perform no heap allocations.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// MLP layer input (ping) buffer.
    pub(crate) ping: Vec<f32>,
    /// MLP layer output (pong) buffer.
    pub(crate) pong: Vec<f32>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Total bytes currently held across all scratch buffers.
    pub fn capacity_bytes(&self) -> usize {
        (self.ping.capacity() + self.pong.capacity()) * std::mem::size_of::<f32>()
    }
}

/// Grows `buf` to at least `len` elements without ever shrinking it — the
/// high-water-mark discipline every scratch buffer in the workspace follows.
#[inline]
pub fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// The row-major oracle: fused `out = act(a · b + bias)` with `a` `[m, k]`
/// and `b` `[k, n]`, row-major — the textbook `ijk` loop, one fused
/// multiply-add per `k`, `k` ascending, strided access to `b`;
/// intentionally unoptimized. It is the one reference that does not read
/// the strip layout, so tests pin [`gemm_bias_act_prepacked`] on both
/// backends to it, bitwise.
///
/// `bias` is `[n]` broadcast over rows; `None` skips the bias add.
///
/// # Panics
///
/// Panics if a slice length disagrees with its shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_reference(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    act: FusedAct,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A length must be m*k");
    assert_eq!(b.len(), k * n, "B length must be k*n");
    assert_eq!(out.len(), m * n, "out length must be m*n");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "bias length must be n");
    }
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    epilogue(out, bias, act, m, n);
}

/// Applies the fused bias + activation epilogue over the accumulated output.
fn epilogue(out: &mut [f32], bias: Option<&[f32]>, act: FusedAct, m: usize, n: usize) {
    match (bias, act) {
        (None, FusedAct::Identity) => {}
        (Some(bias), act) => {
            for row in out.chunks_exact_mut(n).take(m) {
                for (o, &b) in row.iter_mut().zip(bias) {
                    *o = act.apply(*o + b);
                }
            }
        }
        (None, act) => {
            for o in out.iter_mut() {
                *o = act.apply(*o);
            }
        }
    }
}

/// Writes the `kcb`-row block of row-major `b` (`[_, n]`) whose corner is
/// `(kc, jc)` into `block` as [`TJ`]-column strips: strip `s` holds `kcb`
/// rows of `w` floats and starts at `kcb·TJ·s`, with `w = TJ` for every
/// strip but a narrower last one. `block.chunks(kcb·TJ)` therefore *is* the
/// strip sequence, the block width is `block.len() / kcb`, and the layout is
/// a permutation of the block — nothing is padded. The one writer of the
/// strip layout: [`PrepackedWeights::pack`] calls it once per block at
/// load, and [`strip_offset`] is its closed form.
fn pack_strips(b: &[f32], n: usize, jc: usize, kc: usize, kcb: usize, block: &mut [f32]) {
    for (s, strip) in block.chunks_mut(kcb * TJ).enumerate() {
        let w = strip.len() / kcb;
        for (kk, row) in strip.chunks_exact_mut(w).enumerate() {
            let src = (kc + kk) * n + jc + s * TJ;
            row.copy_from_slice(&b[src..src + w]);
        }
    }
}

/// Where [`pack_strips`] puts element `(kk, j)` of a `kcb × nc` block.
#[inline]
fn strip_offset(kcb: usize, nc: usize, kk: usize, j: usize) -> usize {
    let s = j / TJ;
    kcb * TJ * s + kk * TJ.min(nc - s * TJ) + j % TJ
}

/// The vector units the sweep is compiled for, narrowest first. Each is a
/// build of the one [`sweep_block_impl`] body at the full-tile height that
/// fits its register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdUnit {
    /// Baseline codegen at [`MR`] rows: the portable build, and the only
    /// one off x86-64.
    Scalar,
    /// 256-bit AVX2, 16 registers: [`MR`]-row tiles.
    Avx2,
    /// 512-bit AVX-512F, 32 registers: [`MR_AVX512`]-row tiles.
    Avx512,
}

impl SimdUnit {
    /// Every unit, narrowest first.
    #[cfg(test)]
    const ALL: [SimdUnit; 3] = [SimdUnit::Scalar, SimdUnit::Avx2, SimdUnit::Avx512];

    /// Whether the running CPU has this unit, detected once per unit.
    fn available(self) -> bool {
        match self {
            SimdUnit::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdUnit::Avx2 => avx2_available() && fma_available(),
            #[cfg(target_arch = "x86_64")]
            SimdUnit::Avx512 => avx512_available() && fma_available(),
            #[cfg(not(target_arch = "x86_64"))]
            SimdUnit::Avx2 | SimdUnit::Avx512 => false,
        }
    }

    /// The widest unit the running CPU has, detected once.
    fn widest() -> SimdUnit {
        static WIDEST: OnceLock<SimdUnit> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            [SimdUnit::Avx512, SimdUnit::Avx2]
                .into_iter()
                .find(|unit| unit.available())
                .unwrap_or(SimdUnit::Scalar)
        })
    }
}

/// Accumulates `out[.., jc..jc + nc] += a[.., kc..kc + kcb] · block` for
/// one strip-packed block on the widest vector unit the running CPU has.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep_block(
    a: &[f32],
    block: &[f32],
    out: &mut [f32],
    m: usize,
    kc: usize,
    kcb: usize,
    jc: usize,
    k: usize,
    n: usize,
) {
    sweep_block_on(SimdUnit::widest(), a, block, out, m, kc, kcb, jc, k, n);
}

/// [`sweep_block`] on a given unit: the x86-64 units re-compile the body
/// with 256- or 512-bit vectors and FMA. The step is `f32::mul_add` on
/// every unit, rounded once as IEEE defines it, so the vector units do the
/// scalar build's arithmetic (libm `fmaf`), 8 or 16 lanes at a time.
///
/// # Panics
///
/// Panics if the running CPU lacks `unit`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep_block_on(
    unit: SimdUnit,
    a: &[f32],
    block: &[f32],
    out: &mut [f32],
    m: usize,
    kc: usize,
    kcb: usize,
    jc: usize,
    k: usize,
    n: usize,
) {
    assert!(unit.available(), "{unit:?} is not available on this CPU");
    match unit {
        SimdUnit::Scalar => sweep_block_impl::<MR>(a, block, out, m, kc, kcb, jc, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `unit.available()` asserted above is the cached runtime
        // AVX2 + FMA check, the wrapper's sole precondition.
        SimdUnit::Avx2 => unsafe { sweep_block_avx2(a, block, out, m, kc, kcb, jc, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `unit.available()` asserted above is the cached runtime
        // AVX-512F + FMA check, the wrapper's sole precondition.
        SimdUnit::Avx512 => unsafe { sweep_block_avx512(a, block, out, m, kc, kcb, jc, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdUnit::Avx2 | SimdUnit::Avx512 => unreachable!("no x86 units off x86-64"),
    }
}

/// Whether the running CPU supports AVX2, detected once.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

/// Whether the running CPU (and OS) supports AVX-512F, detected once —
/// the one check every AVX-512F wrapper in this crate dispatches on.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_available() -> bool {
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| std::is_x86_feature_detected!("avx512f"))
}

/// Whether the running CPU supports FMA, detected once.
#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| std::is_x86_feature_detected!("fma"))
}

/// [`sweep_block_impl`] at [`MR`] rows compiled with AVX2 + FMA codegen
/// (one 256-bit fused multiply-add per strip-row half, row and `k`).
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: unsafe solely because of `#[target_feature(enable = "avx2,fma")]`
// — the body is safe Rust (bounds-checked slices, no raw pointers)
// recompiled under AVX2 + FMA codegen. Sole precondition: the running CPU
// supports both, which the one caller (`sweep_block_on`) asserts via
// `avx2_available()` and `fma_available()` (cached
// `is_x86_feature_detected!`) before dispatching here.
unsafe fn sweep_block_avx2(
    a: &[f32],
    block: &[f32],
    out: &mut [f32],
    m: usize,
    kc: usize,
    kcb: usize,
    jc: usize,
    k: usize,
    n: usize,
) {
    sweep_block_impl::<MR>(a, block, out, m, kc, kcb, jc, k, n);
}

/// [`sweep_block_impl`] at [`MR_AVX512`] rows compiled with AVX-512F +
/// FMA codegen: a strip row is one 512-bit register, so each accumulator
/// row is one register too, and each row and `k` is one fused
/// multiply-add.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: unsafe solely because of
// `#[target_feature(enable = "avx512f,fma")]` — the body is safe Rust
// (bounds-checked slices, no raw pointers) recompiled under AVX-512F + FMA
// codegen. Sole precondition: the running CPU supports both, which the one
// caller (`sweep_block_on`) asserts via `avx512_available()` and
// `fma_available()` (cached `is_x86_feature_detected!`) first.
unsafe fn sweep_block_avx512(
    a: &[f32],
    block: &[f32],
    out: &mut [f32],
    m: usize,
    kc: usize,
    kcb: usize,
    jc: usize,
    k: usize,
    n: usize,
) {
    sweep_block_impl::<MR_AVX512>(a, block, out, m, kc, kcb, jc, k, n);
}

/// Shared body of the sweep at full-tile height `FULL`; `inline(always)`
/// (as is [`tile`]) so each `target_feature` wrapper re-compiles all of it
/// under its own codegen.
///
/// Strip outer, row tile inner: one strip (≤ `KC·TJ` floats, 16 KB) stays
/// in L1 while every row tile of `a` streams over it. Full tiles are
/// `FULL` rows; the row remainder takes one 8-row tile if it fits (only a
/// 16-row build has a remainder that large), one 4-row tile if it fits and
/// single rows after that.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_block_impl<const FULL: usize>(
    a: &[f32],
    block: &[f32],
    out: &mut [f32],
    m: usize,
    kc: usize,
    kcb: usize,
    jc: usize,
    k: usize,
    n: usize,
) {
    for (s, strip) in block.chunks(kcb * TJ).enumerate() {
        let col = jc + s * TJ;
        let mut i = 0;
        while i + FULL <= m {
            tile::<FULL>(a, strip, out, i, kc, kcb, col, k, n);
            i += FULL;
        }
        if FULL > 8 && i + 8 <= m {
            tile::<8>(a, strip, out, i, kc, kcb, col, k, n);
            i += 8;
        }
        if i + 4 <= m {
            tile::<4>(a, strip, out, i, kc, kcb, col, k, n);
            i += 4;
        }
        while i < m {
            tile::<1>(a, strip, out, i, kc, kcb, col, k, n);
            i += 1;
        }
    }
}

/// The `R × TJ` register tile: rows `i..i + R` of `out`, columns
/// `col..col + w`, accumulated over one strip (`kcb` rows of `w ≤ TJ`
/// floats). The accumulators are loaded from `out` once, live in registers
/// across the whole `k` block and are stored once (see [`MR`] and
/// [`MR_AVX512`] for the full-tile heights).
///
/// The `R` rows of `a` are sliced to exactly `kcb` and a full-width strip
/// is viewed as `kcb` arrays of `TJ`, so the inner loop indexes nothing
/// the compiler cannot prove in range. A narrow last strip (`w < TJ`, e.g.
/// a 1-wide output layer) runs one column at a time instead, its `R`
/// accumulators (one per row) again in registers across the `k` block.
/// Per output element the step is one `mul_add` per `kk`, `kk` ascending,
/// either way and for every `R`, so results do not depend on which tile a
/// row or column lands in.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile<const R: usize>(
    a: &[f32],
    strip: &[f32],
    out: &mut [f32],
    i: usize,
    kc: usize,
    kcb: usize,
    col: usize,
    k: usize,
    n: usize,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k + kc..][..kcb]);
    let w = strip.len() / kcb;
    if w < TJ {
        for j in 0..w {
            let mut acc: [f32; R] = std::array::from_fn(|r| out[(i + r) * n + col + j]);
            for kk in 0..kcb {
                let bv = strip[kk * w + j];
                for r in 0..R {
                    acc[r] = a_rows[r][kk].mul_add(bv, acc[r]);
                }
            }
            for (r, &v) in acc.iter().enumerate() {
                out[(i + r) * n + col + j] = v;
            }
        }
        return;
    }
    let b_rows = &strip.as_chunks::<TJ>().0[..kcb];
    let mut acc = [[0.0f32; TJ]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&out[(i + r) * n + col..][..TJ]);
    }
    for kk in 0..kcb {
        for r in 0..R {
            let av = a_rows[r][kk];
            for j in 0..TJ {
                acc[r][j] = av.mul_add(b_rows[kk][j], acc[r][j]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + col..][..TJ].copy_from_slice(acc_row);
    }
}

// ---------------------------------------------------------------------------
// Prepacked resident weights
// ---------------------------------------------------------------------------

/// How many [`PrepackedWeights::pack`] runs have executed process-wide.
///
/// Diagnostics for the pack-once contract: tests assert the counter rises
/// exactly once per dense layer at model load and stays flat across
/// steady-state serving (cloning a packed layer copies the strips without
/// re-packing).
static PREPACK_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of [`PrepackedWeights::pack`] executions (see
/// [`PREPACK_EVENTS`]).
pub fn prepack_events() -> u64 {
    PREPACK_EVENTS.load(Ordering::Relaxed)
}

/// A weight matrix `B` (`[k, n]` row-major) packed **once** into the
/// sequence of strip-packed `KC × NC` blocks the register tile sweeps —
/// including the remainder blocks at the `k`/`n` edges and their narrow
/// last strips — so every call streams it directly with no pack loop.
///
/// At `m = 1` the `O(k·n)` pack is the same order of work as the
/// `O(m·k·n)` multiply itself, which is why a resident prepack is the
/// production move for serving: the dense accelerator holds MLP weights
/// next to the compute units in the order its array consumes them, and the
/// software path should too.
///
/// Blocks are concatenated `jc`-major (`n` blocks) then `kc` (`k` blocks),
/// exactly the blocked kernel's loop order, so the block `(jc, kc)` starts
/// at `k·jc + kc·nc` — a closed form, no directory needed — and
/// `strip_offset` places an element inside it. The total element count is
/// exactly `k·n` (packing is a permutation; nothing is padded), so the
/// resident footprint equals the row-major matrix it mirrors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrepackedWeights {
    k: usize,
    n: usize,
    /// Concatenated strip-packed blocks in `(jc outer, kc inner)` order.
    strips: Vec<f32>,
}

impl PrepackedWeights {
    /// Packs a row-major `[k, n]` matrix into resident strips.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "B length must be k*n");
        let mut strips = vec![0.0; k * n];
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for kc in (0..k).step_by(KC) {
                let kcb = KC.min(k - kc);
                let start = k * jc + kc * nc;
                pack_strips(b, n, jc, kc, kcb, &mut strips[start..start + kcb * nc]);
            }
        }
        PREPACK_EVENTS.fetch_add(1, Ordering::Relaxed);
        PrepackedWeights { k, n, strips }
    }

    /// Inner (`k`) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output (`n`) dimension of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resident footprint of the strips in bytes (exactly the row-major
    /// matrix's size — packing is a permutation, not an expansion).
    pub fn size_bytes(&self) -> usize {
        self.strips.len() * std::mem::size_of::<f32>()
    }

    /// The stored block `(jc, kc)`: `nc / TJ` strips of `kcb` rows.
    #[inline]
    fn block(&self, jc: usize, kc: usize, kcb: usize, nc: usize) -> &[f32] {
        let start = self.k * jc + kc * nc;
        &self.strips[start..start + kcb * nc]
    }
}

/// Fused `out = act(a · packed + bias)` from resident strips — GEMM, bias
/// broadcast and activation in one pass over a single output buffer, with
/// no intermediate matrices and no scratch. The one production GEMM: every
/// `DenseLayer` forward pass and `Matrix::matmul` run it. Both backends are
/// bitwise identical to [`gemm_reference`] over the row-major `B` the
/// strips were packed from (`Naive` walks the strips in its exact
/// accumulation order).
///
/// `bias` is `[n]` broadcast over rows; `None` skips the bias add.
///
/// # Panics
///
/// Panics if a slice length disagrees with its shape.
pub fn gemm_bias_act_prepacked(
    backend: KernelBackend,
    a: &[f32],
    packed: &PrepackedWeights,
    bias: Option<&[f32]>,
    act: FusedAct,
    out: &mut [f32],
    m: usize,
) {
    let (k, n) = (packed.k, packed.n);
    assert_eq!(a.len(), m * k, "A length must be m*k");
    assert_eq!(out.len(), m * n, "out length must be m*n");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "bias length must be n");
    }
    if m == 0 || n == 0 {
        return;
    }
    match backend {
        KernelBackend::Naive => gemm_naive_prepacked(a, packed, out, m),
        KernelBackend::BlockedPrepacked => gemm_blocked_prepacked(a, packed, out, m),
    }
    epilogue(out, bias, act, m, n);
}

/// The oracle over resident strips: per output element the products
/// accumulate in ascending `k` order across the `kc` blocks — exactly
/// [`gemm_reference`]'s order, so results are bitwise identical to it.
fn gemm_naive_prepacked(a: &[f32], pw: &PrepackedWeights, out: &mut [f32], m: usize) {
    let (k, n) = (pw.k, pw.n);
    for i in 0..m {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for j in 0..nc {
                let mut acc = 0.0f32;
                for kc in (0..k).step_by(KC) {
                    let kcb = KC.min(k - kc);
                    let block = pw.block(jc, kc, kcb, nc);
                    for kk in 0..kcb {
                        acc = a[i * k + kc + kk].mul_add(block[strip_offset(kcb, nc, kk, j)], acc);
                    }
                }
                out[i * n + jc + j] = acc;
            }
        }
    }
}

/// The production kernel: `out` is zeroed, then the register tile sweeps
/// every resident strip-packed block, accumulating across `k` blocks.
fn gemm_blocked_prepacked(a: &[f32], pw: &PrepackedWeights, out: &mut [f32], m: usize) {
    let (k, n) = (pw.k, pw.n);
    out.fill(0.0);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for kc in (0..k).step_by(KC) {
            let kcb = KC.min(k - kc);
            sweep_block(a, pw.block(jc, kc, kcb, nc), out, m, kc, kcb, jc, k, n);
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized gather-reduce kernels (the sparse engine's inner loops)
// ---------------------------------------------------------------------------

/// Issues software prefetches for one embedding row starting at `base`
/// (one prefetch per 64-byte line). No-op off x86-64 and past the end of
/// the table.
#[inline(always)]
fn prefetch_row(data: &[f32], base: usize, dim: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is an architectural hint that cannot fault and
    // is baseline on all x86-64 CPUs (SSE), so no cpuid check is needed. The
    // only pointer arithmetic is `as_ptr().add(base + off)`, formed only
    // when `base + off < data.len()`, so `add` stays within the allocation.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let mut off = 0;
        while off < dim {
            if base + off < data.len() {
                _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().add(base + off) as *const i8);
            }
            off += 16;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, base, dim);
    }
}

/// `out[at..at + dim] += Σ rows[indices]` for every `(indices, at)` of
/// `lists`, in order, over a flat row-major `[rows, dim]` table: the
/// vectorized gather-**sum** inner loop of every production sparse path
/// (accumulate-into semantics — callers zero a block first, and a list cut
/// by an index-SRAM boundary folds into the same block across calls).
///
/// **One rolling prefetch window per call, not one per list.** Embedding
/// gathers on realistic tables miss L2 on almost every row and are bound
/// by memory latency, so what matters is how many misses are in flight.
/// The whole sequence is known up front — it is what the index SRAM holds —
/// so a prefetch cursor opens with one burst of
/// [`GATHER_PREFETCH_DISTANCE`] rows and then stays exactly that many rows
/// ahead of the accumulate loop, *across list boundaries*. A window that
/// restarts per list leaves the head of every list unprefetched (or, with
/// a burst per list, the load queue draining at every list's tail), and
/// production lists are 10–80 rows long.
///
/// Per output block the accumulator lives in [`GATHER_TILE`]-float register
/// tiles across its whole list, and every element takes the same IEEE add
/// in index order whatever the prefetcher does: on x86-64 with AVX2 the
/// same body is re-compiled with 256-bit vectors and dispatched at runtime
/// (there is no multiply here to fuse), so results are **bitwise
/// identical** to the scalar oracle.
///
/// An empty list leaves its block untouched (the `SparseLengthsSum`
/// empty-segment convention is the caller's zero-fill).
///
/// # Panics
///
/// Panics if a block reaches past `out` or any index addresses past the end
/// of `data` — callers validate indices first to report real errors.
pub fn gather_lists_sum<'a, I>(data: &[f32], dim: usize, lists: I, out: &mut [f32])
where
    I: Iterator<Item = (&'a [u32], usize)> + Clone,
{
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: guarded by the runtime AVX2 check above.
        return unsafe { gather_lists_sum_avx2(data, dim, lists, out) };
    }
    gather_lists_sum_impl(data, dim, lists, out);
}

/// `out += Σ rows[indices]`: [`gather_lists_sum`] over one list, whose
/// window is the opening burst plus a cursor that runs out
/// [`GATHER_PREFETCH_DISTANCE`] rows before the list does.
///
/// # Panics
///
/// Panics if `out.len() != dim` or any index addresses past the end of
/// `data` — callers validate indices first to report real errors.
pub fn gather_rows_sum(data: &[f32], dim: usize, indices: &[u32], out: &mut [f32]) {
    assert_eq!(out.len(), dim, "gather output width mismatch");
    gather_lists_sum(data, dim, std::iter::once((indices, 0)), out);
}

/// [`gather_lists_sum_impl`] compiled with AVX2 codegen.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: unsafe solely because of `#[target_feature(enable = "avx2")]` —
// the body is safe Rust (bounds-checked row and block slices; the only
// intrinsic is the non-faulting prefetch inside `prefetch_row`). Sole
// precondition: the running CPU supports AVX2, verified by the one caller
// (`gather_lists_sum`) via `avx2_available()` before dispatching here.
unsafe fn gather_lists_sum_avx2<'a, I>(data: &[f32], dim: usize, lists: I, out: &mut [f32])
where
    I: Iterator<Item = (&'a [u32], usize)> + Clone,
{
    gather_lists_sum_impl(data, dim, lists, out);
}

/// Shared body of the gather-sum kernel; `inline(always)` so the
/// `target_feature` wrapper re-compiles it under AVX2 codegen.
///
/// `ahead` is the prefetch cursor: a second walk of the same sequence,
/// flattened, that takes one step per accumulated row and so keeps its
/// opening lead until it runs off the end. Each row is fetched exactly
/// once: the fast path keeps a block's whole accumulator in registers when
/// the row is exactly [`GATHER_TILE`] wide (the paper's 32-float rows); any
/// other width accumulates with the chunked vector add into the L1-resident
/// block.
#[inline(always)]
fn gather_lists_sum_impl<'a, I>(data: &[f32], dim: usize, lists: I, out: &mut [f32])
where
    I: Iterator<Item = (&'a [u32], usize)> + Clone,
{
    let mut ahead = lists.clone().flat_map(|(indices, _)| indices).fuse();
    for &pf in ahead.by_ref().take(GATHER_PREFETCH_DISTANCE) {
        prefetch_row(data, pf as usize * dim, dim);
    }
    for (indices, at) in lists {
        let block = &mut out[at..at + dim];
        if dim == GATHER_TILE {
            let mut acc = [0.0f32; GATHER_TILE];
            acc.copy_from_slice(block);
            for &idx in indices {
                if let Some(&pf) = ahead.next() {
                    prefetch_row(data, pf as usize * dim, dim);
                }
                let base = idx as usize * dim;
                let row = &data[base..base + GATHER_TILE];
                for (a, &r) in acc.iter_mut().zip(row) {
                    *a += r;
                }
            }
            block.copy_from_slice(&acc);
            continue;
        }
        for &idx in indices {
            if let Some(&pf) = ahead.next() {
                prefetch_row(data, pf as usize * dim, dim);
            }
            let base = idx as usize * dim;
            add_assign(block, &data[base..base + dim]);
        }
    }
}

/// `acc[i] += row[i]`, unrolled in chunks of [`LANES`] so the compiler emits
/// straight-line vector adds.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline(always)]
pub fn add_assign(acc: &mut [f32], row: &[f32]) {
    assert_eq!(acc.len(), row.len(), "reduction width mismatch");
    let mut acc_chunks = acc.chunks_exact_mut(LANES);
    let mut row_chunks = row.chunks_exact(LANES);
    for (a, r) in acc_chunks.by_ref().zip(row_chunks.by_ref()) {
        for l in 0..LANES {
            a[l] += r[l];
        }
    }
    for (a, r) in acc_chunks
        .into_remainder()
        .iter_mut()
        .zip(row_chunks.remainder())
    {
        *a += r;
    }
}

/// Dot product of two equal-length slices, accumulated in [`LANES`] partial
/// sums so the compiler can keep them in vector registers.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot width mismatch");
    let mut lanes = [0.0f32; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (a, b) in xc.by_ref().zip(yc.by_ref()) {
        for l in 0..LANES {
            lanes[l] += a[l] * b[l];
        }
    }
    let mut acc: f32 = lanes.iter().sum();
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        acc += a * b;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(m: usize, n: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        let mut v = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                v[i * n + j] = f(i, j);
            }
        }
        v
    }

    /// Inputs whose products and partial sums round (unlike small dyadic
    /// multiples, which add exactly in any order), so a bitwise comparison
    /// notices a change of accumulation order.
    fn inexact_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a = fill(m, k, |i, j| ((i * 13 + j * 7) % 19) as f32 * 0.37 - 2.1);
        let b = fill(k, n, |i, j| ((i * 5 + j * 11) % 17) as f32 * 0.113 - 0.9);
        (a, b)
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 5),
            (5, 7, 1),
            (4, 4, 4),
            (3, 300, 9),
            (17, 33, 65),
            (64, 128, 64),
            (70, 513, 70),
        ] {
            let (a, b) = inexact_operands(m, k, n);
            let mut naive = vec![0.0; m * n];
            let mut blocked = vec![0.0; m * n];
            gemm_reference(&a, &b, None, FusedAct::Identity, &mut naive, m, k, n);
            let packed = PrepackedWeights::pack(&b, k, n);
            gemm_prepacked(
                KernelBackend::BlockedPrepacked,
                &a,
                &packed,
                &mut blocked,
                m,
            );
            // One fused multiply-add per `k`, `k` ascending, on both
            // sides: bitwise, not within a tolerance.
            assert_eq!(naive, blocked, "blocked mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn pack_is_a_permutation_of_b() {
        // Shapes with one and several blocks on each axis, full and narrow
        // last strips, and blocks shorter than a strip is wide.
        for &(k, n) in &[
            (1, 1),
            (7, 5),
            (3, 16),
            (300, 17),
            (256, 512),
            (257, 513),
            (513, 33),
            (20, 1040),
        ] {
            // Every element distinct (and exact in f32), so finding each one
            // at its closed-form offset proves the offsets are a bijection.
            let b: Vec<f32> = (0..k * n).map(|i| i as f32).collect();
            let packed = PrepackedWeights::pack(&b, k, n);
            assert_eq!(packed.size_bytes(), k * n * 4, "nothing is padded");
            let mut unpacked = vec![f32::NAN; k * n];
            for row in 0..k {
                for col in 0..n {
                    let (jc, kc) = (col / NC * NC, row / KC * KC);
                    let (nc, kcb) = (NC.min(n - jc), KC.min(k - kc));
                    let block = packed.block(jc, kc, kcb, nc);
                    unpacked[row * n + col] = block[strip_offset(kcb, nc, row - kc, col - jc)];
                }
            }
            assert_eq!(unpacked, b, "strip layout lost an element at {k}x{n}");
        }
    }

    #[test]
    fn every_tile_instantiation_matches_the_oracle_bitwise() {
        // m = 29 runs one tile of each height of the 16-row build per strip
        // (16 + 8 + 4 + 1), m = 11 one of each of the 6-row builds
        // (6 + 4 + 1); n = 37 is two full strips and a 5-wide one. Every
        // unit the running CPU has is called directly, not only the
        // dispatcher's choice, so an AVX-512 host still tests the AVX2
        // build; a non-zero `out` checks they accumulate.
        let units: Vec<SimdUnit> = SimdUnit::ALL
            .into_iter()
            .filter(|unit| unit.available())
            .collect();
        assert!(units.contains(&SimdUnit::widest()));
        // Under Miri detection reports the compile-time features, so this
        // is what makes CI's `+avx512f,+fma` Miri job reach the 16-row
        // wrapper (and, through the same check, the lane fill's).
        if cfg!(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "fma"
        )) {
            assert_eq!(SimdUnit::widest(), SimdUnit::Avx512);
        }
        for m in [29, 11] {
            let (k, n) = (70, 37);
            let (a, b) = inexact_operands(m, k, n);
            let mut block = vec![0.0; k * n];
            pack_strips(&b, n, 0, 0, k, &mut block);
            for &unit in &units {
                let mut out = vec![0.625; m * n];
                sweep_block_on(unit, &a, &block, &mut out, m, 0, k, 0, k, n);
                // The oracle's arithmetic, started from the same value.
                for i in 0..m {
                    for j in 0..n {
                        let oracle = (0..k).fold(0.625f32, |acc, kk| {
                            a[i * k + kk].mul_add(b[kk * n + j], acc)
                        });
                        assert_eq!(out[i * n + j], oracle, "{unit:?}, m {m}, ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn the_defined_step_is_fused() {
        // k = 2: the first step leaves exactly `c` in the accumulator, the
        // second is `x·x + c` with `x·x = 1 + 2⁻¹¹ + 2⁻²⁴`. Rounded once
        // that is 2⁻²⁴; rounded after the multiply (a tie, to even) it is 0.
        let x = 1.0 + 2f32.powi(-12);
        let c = -(1.0 + 2f32.powi(-11));
        let fused = 2f32.powi(-24);
        assert_eq!(x.mul_add(x, c), fused);
        assert_ne!(x * x + c, fused, "these operands must tell the two apart");
        // m = 29 and n = 37 reach every tile height and a narrow strip.
        let (m, k, n) = (29, 2, 37);
        let a = fill(m, k, |_, kk| [1.0, x][kk]);
        let b = fill(k, n, |kk, _| [c, x][kk]);
        let expected = vec![fused; m * n];
        let mut out = vec![f32::NAN; m * n];
        gemm_reference(&a, &b, None, FusedAct::Identity, &mut out, m, k, n);
        assert_eq!(out, expected, "reference");
        let packed = PrepackedWeights::pack(&b, k, n);
        for backend in KernelBackend::all() {
            let mut out = vec![f32::NAN; m * n];
            gemm_prepacked(backend, &a, &packed, &mut out, m);
            assert_eq!(out, expected, "{backend:?} prepacked");
        }
        let mut block = vec![0.0; k * n];
        pack_strips(&b, n, 0, 0, k, &mut block);
        for unit in SimdUnit::ALL.into_iter().filter(|unit| unit.available()) {
            let mut out = vec![0.0; m * n];
            sweep_block_on(unit, &a, &block, &mut out, m, 0, k, 0, k, n);
            assert_eq!(out, expected, "{unit:?}");
        }
    }

    #[test]
    fn fused_epilogue_matches_separate_ops() {
        let (m, k, n) = (6, 40, 10);
        let a = fill(m, k, |i, j| (i as f32 - j as f32) * 0.1);
        let b = fill(k, n, |i, j| ((i + j) % 7) as f32 * 0.2 - 0.5);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.3 - 1.0).collect();
        let packed = PrepackedWeights::pack(&b, k, n);
        let mut plain = vec![0.0; m * n];
        gemm_prepacked(KernelBackend::BlockedPrepacked, &a, &packed, &mut plain, m);
        let mut fused = vec![0.0; m * n];
        gemm_bias_act_prepacked(
            KernelBackend::BlockedPrepacked,
            &a,
            &packed,
            Some(&bias),
            FusedAct::Relu,
            &mut fused,
            m,
        );
        for i in 0..m {
            for j in 0..n {
                let expected = (plain[i * n + j] + bias[j]).max(0.0);
                assert_eq!(fused[i * n + j], expected);
            }
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let identity = FusedAct::Identity;
        gemm_reference(&[], &[], None, identity, &mut [], 0, 3, 0);
        // k == 0: the product is the zero matrix.
        let mut out = [0.5, 0.5];
        gemm_reference(&[], &[], None, identity, &mut out, 2, 0, 1);
        assert_eq!(out, [0.0, 0.0]);
    }

    #[test]
    fn reductions_match_scalar_loops() {
        let row: Vec<f32> = (0..37).map(|i| i as f32 * 0.5 - 9.0).collect();
        let other: Vec<f32> = (0..37).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();
        let mut acc = row.clone();
        add_assign(&mut acc, &other);
        for i in 0..37 {
            assert_eq!(acc[i], row[i] + other[i]);
        }
        let d = dot(&row, &other);
        let expected: f32 = row.iter().zip(&other).map(|(a, b)| a * b).sum();
        // `dot` sums eight partial lanes, the scalar loop one chain.
        assert!((d - expected).abs() < 1e-3);
    }

    #[test]
    fn gather_lists_sum_matches_the_scalar_loop_bitwise() {
        let rows = 23;
        // Empty, one-row and longer-than-the-window lists; the sequence
        // ends on the table's last row, where the prefetch cursor has
        // nothing beyond to point at.
        let lens = [3, 0, 1, GATHER_PREFETCH_DISTANCE + 9, 0, 2];
        let mut lists: Vec<Vec<u32>> = lens
            .iter()
            .enumerate()
            .map(|(l, &len)| (0..len).map(|i| ((i * 7 + l * 3) % rows) as u32).collect())
            .collect();
        *lists.last_mut().unwrap().last_mut().unwrap() = rows as u32 - 1;
        for dim in [0, 4, GATHER_TILE, GATHER_TILE + 1] {
            let data = fill(rows, dim, |i, j| {
                ((i * 13 + j * 7) % 19) as f32 * 0.37 - 2.1
            });
            let stride = dim + 3;
            // The first three lists alone are a sequence shorter than the
            // window: the opening burst covers all of it.
            for take in [3, lists.len()] {
                let mut out = vec![0.625f32; lists.len() * stride];
                let mut expected = out.clone();
                for (l, list) in lists.iter().enumerate().take(take) {
                    for &idx in list {
                        for j in 0..dim {
                            expected[l * stride + 1 + j] += data[idx as usize * dim + j];
                        }
                    }
                }
                let sequence = lists
                    .iter()
                    .enumerate()
                    .take(take)
                    .map(|(l, list)| (list.as_slice(), l * stride + 1));
                gather_lists_sum(&data, dim, sequence, &mut out);
                assert_eq!(out, expected, "dim {dim}, {take} lists");
            }
            // One list is a sequence of one.
            let mut one = vec![0.625f32; dim];
            gather_rows_sum(&data, dim, &lists[3], &mut one);
            let mut expected = vec![0.625f32; dim];
            for &idx in &lists[3] {
                for j in 0..dim {
                    expected[j] += data[idx as usize * dim + j];
                }
            }
            assert_eq!(one, expected, "dim {dim}, one list");
        }
    }

    #[test]
    fn backend_labels_and_global_default() {
        assert_eq!(KernelBackend::Naive.label(), "naive");
        assert_eq!(KernelBackend::BlockedPrepacked.label(), "blocked-prepacked");
        assert_eq!(SparseBackend::Scalar.label(), "scalar");
        assert_eq!(SparseBackend::Vectorized.label(), "vectorized");
        // Oracle + production, and `Default` is what the process runs.
        assert_eq!(
            KernelBackend::all(),
            [KernelBackend::Naive, global_backend()]
        );
        assert_eq!(
            SparseBackend::all(),
            [SparseBackend::Scalar, global_sparse_backend()]
        );
        assert_eq!(global_backend(), KernelBackend::default());
        assert_eq!(global_sparse_backend(), SparseBackend::default());
    }

    /// `out = a · packed`, no epilogue.
    fn gemm_prepacked(
        backend: KernelBackend,
        a: &[f32],
        packed: &PrepackedWeights,
        out: &mut [f32],
        m: usize,
    ) {
        gemm_bias_act_prepacked(backend, a, packed, None, FusedAct::Identity, out, m);
    }

    #[test]
    fn prepacked_gemm_is_bitwise_identical_to_packing_path() {
        // Strips against the row-major `B` they were packed from, on
        // shapes straddling the KC=256/NC=512 block boundaries and hitting
        // the 6-, 4- and 1-row tiles.
        for &(m, k, n) in &[
            (1, 7, 5),
            (1, 300, 17),
            (4, 257, 16),
            (8, 64, 33),
            (13, 513, 30),
            (3, 100, 513),
        ] {
            let (a, b) = inexact_operands(m, k, n);
            let packed = PrepackedWeights::pack(&b, k, n);
            assert_eq!(packed.size_bytes(), k * n * 4, "pack is a permutation");
            let mut reference = vec![f32::NAN; m * n];
            gemm_reference(&a, &b, None, FusedAct::Identity, &mut reference, m, k, n);
            for backend in KernelBackend::all() {
                let mut out = vec![f32::NAN; m * n];
                gemm_prepacked(backend, &a, &packed, &mut out, m);
                assert_eq!(reference, out, "{backend:?} diverged at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn prepack_counts_events_and_handles_empty_dims() {
        let before = prepack_events();
        let packed = PrepackedWeights::pack(&[], 0, 3);
        // The counter is process-global and other tests in this binary pack
        // concurrently, so only monotonicity can be asserted here; the
        // exactly-once-per-layer accounting lives in `tests/zero_alloc.rs`,
        // whose binary holds a single test.
        assert!(prepack_events() > before);
        let mut out = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        // k == 0: the product is the zero matrix (plus any epilogue).
        gemm_prepacked(KernelBackend::BlockedPrepacked, &[], &packed, &mut out, 2);
        assert_eq!(out, [0.0; 6]);
        let empty = PrepackedWeights::pack(&[], 4, 0);
        gemm_prepacked(
            KernelBackend::BlockedPrepacked,
            &[0.0; 8],
            &empty,
            &mut [],
            2,
        );
    }
}
