//! A minimal dense matrix type and the numeric kernels (GEMM, bias,
//! activations) the DLRM reference model is built from.
//!
//! The matrix is row-major `Vec<f32>` storage for semantic clarity; the
//! heavy math (GEMM, fused bias/activation) is delegated to the optimized
//! backend in [`crate::kernel`], with `KernelBackend::Naive` retained as
//! the correctness oracle. The Criterion benches in `centaur-bench` and
//! `centaur-dlrm` exercise these kernels so the relative cost of dense
//! layers is visible.

use crate::error::DlrmError;
use crate::kernel::{self, FusedAct, PrepackedWeights};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the only tensor type used by the reference DLRM: a batch of
/// dense feature vectors is a `[batch, features]` matrix, an MLP weight is a
/// `[in, out]` matrix, a reduced embedding is a `[1, dim]` matrix, and so on.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a generator function `f(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix that takes ownership of a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, DlrmError> {
        if data.len() != rows * cols {
            return Err(DlrmError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a `[1, n]` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of bytes the matrix occupies (`f32` elements).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns element `(r, c)` without bounds checking beyond the debug
    /// assertions of slice indexing.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)` to `value`.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        self.data[r * self.cols + c] = value;
    }

    /// Matrix product `self * rhs` on the production [`KernelBackend`]:
    /// `rhs` is packed into strips once, then the one production GEMM
    /// ([`gemm_bias_act_prepacked`]) runs over them.
    ///
    /// [`KernelBackend`]: crate::kernel::KernelBackend
    /// [`gemm_bias_act_prepacked`]: crate::kernel::gemm_bias_act_prepacked
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, DlrmError> {
        if self.cols != rhs.rows {
            return Err(DlrmError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let packed = PrepackedWeights::pack(&rhs.data, rhs.rows, rhs.cols);
        kernel::gemm_bias_act_prepacked(
            kernel::global_backend(),
            &self.data,
            &packed,
            None,
            FusedAct::Identity,
            &mut out.data,
            self.rows,
        );
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds a `[1, cols]` bias row vector to every row of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::ShapeMismatch`] if the bias width differs from
    /// the matrix width.
    pub fn add_bias(&self, bias: &Matrix) -> Result<Matrix, DlrmError> {
        if bias.cols != self.cols || bias.rows != 1 {
            return Err(DlrmError::ShapeMismatch {
                op: "add_bias",
                lhs: self.shape(),
                rhs: bias.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] += bias.data[c];
            }
        }
        Ok(out)
    }

    /// Applies a function to every element, returning a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&self) -> Matrix {
        self.map(|x| if x > 0.0 { x } else { 0.0 })
    }

    /// Concatenates two matrices horizontally (same number of rows).
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::ShapeMismatch`] if the row counts differ.
    pub fn hconcat(&self, rhs: &Matrix) -> Result<Matrix, DlrmError> {
        if self.rows != rhs.rows {
            return Err(DlrmError::ShapeMismatch {
                op: "hconcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Concatenates two matrices vertically (same number of columns).
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::ShapeMismatch`] if the column counts differ.
    pub fn vconcat(&self, rhs: &Matrix) -> Result<Matrix, DlrmError> {
        if self.cols != rhs.cols {
            return Err(DlrmError::ShapeMismatch {
                op: "vconcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Ok(Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        })
    }

    /// Dot product between two rows of (possibly different) matrices.
    ///
    /// # Panics
    ///
    /// Panics if the two rows have different lengths or are out of bounds.
    pub fn row_dot(&self, r: usize, other: &Matrix, other_r: usize) -> f32 {
        let a = self.row(r);
        let b = other.row(other_r);
        assert_eq!(a.len(), b.len(), "row_dot requires equal row widths");
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// Useful for approximate-equality checks in tests. Returns `f32::MAX`
    /// when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        if self.shape() != other.shape() {
            return f32::MAX;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:.4}")).collect();
            writeln!(
                f,
                "  [{}{}]",
                shown.join(", "),
                if self.cols > 8 { ", ..." } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "element-wise add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "element-wise sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.map(|x| x * rhs)
    }
}

/// Numerically stable logistic sigmoid for a single value.
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Vectorized logistic sigmoid over a whole slice: `out[i] =
/// sigmoid(src[i])`. One pass, no allocation — the batch-major forward
/// paths use this to convert a batch of top-MLP logits into probabilities
/// in a single sweep instead of one scalar call per sample.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sigmoid_into(src: &[f32], out: &mut [f32]) {
    assert_eq!(src.len(), out.len(), "sigmoid width mismatch");
    for (o, &x) in out.iter_mut().zip(src) {
        *o = sigmoid_scalar(x);
    }
}

/// Counts the floating-point operations of a GEMM of the given shape
/// (`2 * m * n * k`, the usual multiply-accumulate convention).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 0.5);
        // Same multiply and add per `k`, `k` ascending: bitwise.
        assert_eq!(a.matmul(&b).unwrap(), naive_matmul(&a, &b));
        // Depths and widths across KC = 256 and NC = 512, each ending in a
        // narrow last strip, on inexact operands: bitwise against the
        // row-major oracle, so the pack inside `matmul` loses nothing.
        for (m, k, n) in [(7, 300, 21), (3, 513, 515), (17, 257, 530)] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 13 + c * 7) % 19) as f32 * 0.37 - 2.1);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c * 11) % 17) as f32 * 0.113 - 0.9);
            let mut reference = Matrix::zeros(m, n);
            let (ab, bb, out) = (a.as_slice(), b.as_slice(), reference.as_mut_slice());
            kernel::gemm_reference(ab, bb, None, FusedAct::Identity, out, m, k, n);
            assert_eq!(a.matmul(&b).unwrap(), reference, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(DlrmError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r + 2 * c) as f32);
        let id = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        let out = a.matmul(&id).unwrap();
        assert!(out.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 7, |r, c| (r * 31 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (7, 3));
        assert_eq!(a.transpose().get(2, 1), a.get(1, 2));
    }

    #[test]
    fn add_bias_broadcasts() {
        let a = Matrix::filled(2, 3, 1.0);
        let bias = Matrix::row_vector(&[0.5, -0.5, 2.0]);
        let out = a.add_bias(&bias).unwrap();
        assert_eq!(out.row(0), &[1.5, 0.5, 3.0]);
        assert_eq!(out.row(1), &[1.5, 0.5, 3.0]);
    }

    #[test]
    fn add_bias_shape_checked() {
        let a = Matrix::filled(2, 3, 1.0);
        let bias = Matrix::row_vector(&[1.0, 2.0]);
        assert!(a.add_bias(&bias).is_err());
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Matrix::row_vector(&[-1.0, 0.0, 2.5]);
        assert_eq!(a.relu().as_slice(), &[0.0, 0.0, 2.5]);
    }

    #[test]
    fn sigmoid_bounds_and_symmetry() {
        for &x in &[-80.0, -5.0, -0.1, 0.0, 0.1, 5.0, 80.0] {
            let y = sigmoid_scalar(x);
            assert!((0.0..=1.0).contains(&y), "sigmoid({x}) = {y}");
            let y_neg = sigmoid_scalar(-x);
            assert!((y + y_neg - 1.0).abs() < 1e-5);
        }
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn hconcat_and_vconcat() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 3, 2.0);
        let h = a.hconcat(&b).unwrap();
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.row(0), &[1.0, 1.0, 2.0, 2.0, 2.0]);

        let c = Matrix::filled(1, 2, 3.0);
        let v = a.vconcat(&c).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[3.0, 3.0]);

        assert!(a.hconcat(&Matrix::zeros(3, 1)).is_err());
        assert!(a.vconcat(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn row_dot_matches_manual() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let d = a.row_dot(0, &a, 1);
        assert!((d - (4.0 + 10.0 + 18.0)).abs() < 1e-6);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::row_vector(&[1.0, 2.0]);
        let b = Matrix::row_vector(&[0.5, 0.25]);
        assert_eq!((&a + &b).as_slice(), &[1.5, 2.25]);
        assert_eq!((&a - &b).as_slice(), &[0.5, 1.75]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn indexing_works() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 3.0;
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a.get(0, 1), 3.0);
        a.set(1, 0, -1.0);
        assert_eq!(a[(1, 0)], -1.0);
    }

    #[test]
    fn gemm_flops_counts() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    #[test]
    fn size_bytes_is_elem_count_times_four() {
        assert_eq!(Matrix::zeros(4, 8).size_bytes(), 128);
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let a = Matrix::zeros(100, 100);
        let s = format!("{a}");
        assert!(s.contains("Matrix 100x100"));
    }
}
