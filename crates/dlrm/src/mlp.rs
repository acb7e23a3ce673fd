//! Multi-layer perceptron building blocks: dense (fully-connected) layers,
//! activations and MLP stacks used for the bottom and top MLPs of DLRM.

use crate::error::DlrmError;
use crate::kernel::{self, grow, FusedAct, KernelBackend, PrepackedWeights, Workspace};
use crate::tensor::{gemm_flops, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit (the DLRM default for hidden layers).
    #[default]
    Relu,
    /// Logistic sigmoid (used on the final output to produce a probability).
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// The fused-epilogue equivalent used by the optimized kernels.
    pub fn fused(self) -> FusedAct {
        match self {
            Activation::Relu => FusedAct::Relu,
            Activation::Sigmoid => FusedAct::Sigmoid,
            Activation::Identity => FusedAct::Identity,
        }
    }
}

/// A dense layer `y = act(x * W + b)` with `W` of shape `[in, out]`.
///
/// The weights are resident in one layout: the [`PrepackedWeights`] strips
/// packed **once at construction**, which both backends read with no
/// per-call pack loop (the oracle walks them in `ijk` order).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    bias: Matrix,
    activation: Activation,
    /// `W` in the blocked kernel's strip layout.
    packed: PrepackedWeights,
}

impl DenseLayer {
    /// Creates a layer from explicit weights (`[in, out]`), bias (`[1, out]`)
    /// and activation; the weights are packed into resident strips here,
    /// once, and reused by every forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::ShapeMismatch`] if the bias width does not equal
    /// the weight output width.
    pub fn new(weights: Matrix, bias: Matrix, activation: Activation) -> Result<Self, DlrmError> {
        if bias.rows() != 1 || bias.cols() != weights.cols() {
            return Err(DlrmError::ShapeMismatch {
                op: "dense layer bias",
                lhs: weights.shape(),
                rhs: bias.shape(),
            });
        }
        let packed = PrepackedWeights::pack(weights.as_slice(), weights.rows(), weights.cols());
        Ok(DenseLayer {
            bias,
            activation,
            packed,
        })
    }

    /// Creates a layer with Xavier-style uniform random weights.
    pub fn random(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let weights = Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-limit..limit));
        let bias = Matrix::from_fn(1, out_dim, |_, _| rng.gen_range(-0.01..0.01));
        DenseLayer::new(weights, bias, activation).expect("bias shape is valid by construction")
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.packed.k()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.packed.n()
    }

    /// Borrows the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Borrows the resident weight strips.
    pub fn packed(&self) -> &PrepackedWeights {
        &self.packed
    }

    /// Replaces the layer's weights with a row-major matrix of the same
    /// `[in, out]` shape, packing it into the resident strips.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::ShapeMismatch`] if the new matrix's shape
    /// differs from the current one (layer widths are structural; changing
    /// them would silently break the surrounding MLP's wiring).
    pub fn set_weights(&mut self, weights: Matrix) -> Result<(), DlrmError> {
        if weights.shape() != (self.in_dim(), self.out_dim()) {
            return Err(DlrmError::ShapeMismatch {
                op: "dense layer weight update",
                lhs: (self.in_dim(), self.out_dim()),
                rhs: weights.shape(),
            });
        }
        self.packed = PrepackedWeights::pack(weights.as_slice(), weights.rows(), weights.cols());
        Ok(())
    }

    /// Activation applied by the layer.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.in_dim() * self.out_dim() + self.bias.len()
    }

    /// Resident size of the layer's parameters in bytes: the strips plus
    /// the bias row. Packing is a permutation of the weight matrix, not an
    /// expansion, so this is `num_params()` `f32`s exactly.
    pub fn size_bytes(&self) -> usize {
        self.packed.size_bytes() + self.bias.size_bytes()
    }

    /// Floating-point operations for a forward pass with the given batch.
    pub fn flops(&self, batch: usize) -> u64 {
        gemm_flops(batch, self.out_dim(), self.in_dim()) + (batch * self.out_dim()) as u64
    }

    /// Forward pass `act(input * W + b)` into a caller-provided output
    /// buffer (`[batch, out_dim]`): the fused GEMM + bias + activation
    /// kernel streaming the resident strips, with no intermediate matrices.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != batch * in_dim` or
    /// `out.len() != batch * out_dim` (shape validation is the caller's job
    /// on this hot path).
    pub fn forward_into(
        &self,
        backend: KernelBackend,
        input: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        kernel::gemm_bias_act_prepacked(
            backend,
            input,
            &self.packed,
            Some(self.bias.as_slice()),
            self.activation.fused(),
            out,
            batch,
        );
    }
}

/// A stack of dense layers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Creates an MLP from explicit layers.
    pub fn new(layers: Vec<DenseLayer>) -> Self {
        Mlp { layers }
    }

    /// Creates an MLP with random parameters from a list of layer widths.
    ///
    /// `dims = [in, h1, h2, ..., out]`; hidden layers use ReLU and the final
    /// layer uses `final_activation`.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidConfig`] if fewer than two widths are
    /// given or any width is zero.
    pub fn random(
        dims: &[usize],
        final_activation: Activation,
        seed: u64,
    ) -> Result<Self, DlrmError> {
        if dims.len() < 2 {
            return Err(DlrmError::InvalidConfig(format!(
                "an MLP needs at least an input and an output width, got {dims:?}"
            )));
        }
        if dims.contains(&0) {
            return Err(DlrmError::InvalidConfig(
                "MLP layer widths must be non-zero".to_string(),
            ));
        }
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for (i, pair) in dims.windows(2).enumerate() {
            let activation = if i + 2 == dims.len() {
                final_activation
            } else {
                Activation::Relu
            };
            layers.push(DenseLayer::random(
                pair[0],
                pair[1],
                activation,
                seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
            ));
        }
        Ok(Mlp { layers })
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the MLP has no layers (acts as identity).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> impl Iterator<Item = &DenseLayer> + '_ {
        self.layers.iter()
    }

    /// Input dimension of the first layer (`None` when empty).
    pub fn in_dim(&self) -> Option<usize> {
        self.layers.first().map(DenseLayer::in_dim)
    }

    /// Output dimension of the last layer (`None` when empty).
    pub fn out_dim(&self) -> Option<usize> {
        self.layers.last().map(DenseLayer::out_dim)
    }

    /// Layer widths `[in, h1, ..., out]` (empty when the MLP has no layers).
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.layers.len() + 1);
        if let Some(first) = self.layers.first() {
            dims.push(first.in_dim());
            for layer in &self.layers {
                dims.push(layer.out_dim());
            }
        }
        dims
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(DenseLayer::num_params).sum()
    }

    /// Total parameter footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.layers.iter().map(DenseLayer::size_bytes).sum()
    }

    /// Total forward-pass FLOPs for a batch.
    pub fn flops(&self, batch: usize) -> u64 {
        self.layers.iter().map(|l| l.flops(batch)).sum()
    }

    /// The zero-allocation batch-major forward pass: the whole batch flows
    /// through **one GEMM per layer with `m = batch`** over the workspace's
    /// ping/pong buffers, so each layer's strips are streamed once for every
    /// sample — the weight-reuse win the paper attributes to batching. The
    /// output is returned as `(data, out_cols)` borrowed from the workspace.
    ///
    /// After the workspace has warmed up to the model's widest layer, this
    /// performs **no heap allocations** per call. A sample is a batch of
    /// one, bitwise: the kernels accumulate each output row in the same
    /// `k` order regardless of `m`.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::ShapeMismatch`] if `in_cols` does not match the
    /// first layer, or [`DlrmError::BatchMismatch`] if
    /// `input.len() != batch * in_cols`.
    pub fn forward_batch_ws<'w>(
        &self,
        backend: KernelBackend,
        input: &[f32],
        batch: usize,
        in_cols: usize,
        ws: &'w mut Workspace,
    ) -> Result<(&'w [f32], usize), DlrmError> {
        if input.len() != batch * in_cols {
            return Err(DlrmError::BatchMismatch {
                what: "mlp input length vs batch * in_cols",
                left: input.len(),
                right: batch * in_cols,
            });
        }
        if let Some(first) = self.layers.first() {
            if in_cols != first.in_dim() {
                return Err(DlrmError::ShapeMismatch {
                    op: "mlp input",
                    lhs: (batch, first.in_dim()),
                    rhs: (batch, in_cols),
                });
            }
        }
        // Size both ping/pong buffers to the widest layer up front: the
        // buffers swap roles every layer, so growing lazily inside the loop
        // would keep reallocating on stacks with an odd number of layers.
        let max_width = self
            .layers
            .iter()
            .map(DenseLayer::out_dim)
            .fold(in_cols, usize::max);
        grow(&mut ws.ping, batch * max_width);
        grow(&mut ws.pong, batch * max_width);
        ws.ping[..input.len()].copy_from_slice(input);
        let mut cols = in_cols;
        for layer in &self.layers {
            let out_len = batch * layer.out_dim();
            // Read from ping, write into pong, then swap their roles.
            layer.forward_into(
                backend,
                &ws.ping[..batch * cols],
                batch,
                &mut ws.pong[..out_len],
            );
            std::mem::swap(&mut ws.ping, &mut ws.pong);
            cols = layer.out_dim();
        }
        Ok((&ws.ping[..batch * cols], cols))
    }
}

/// The paper-facing name for a stack of dense layers; `MlpStack` and
/// [`Mlp`] are the same type.
pub type MlpStack = Mlp;

#[cfg(test)]
mod tests {
    use super::*;

    /// `layer` over `x` on the production backend, into a fresh matrix.
    fn layer_out(layer: &DenseLayer, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), layer.out_dim());
        let backend = KernelBackend::BlockedPrepacked;
        layer.forward_into(backend, x.as_slice(), x.rows(), out.as_mut_slice());
        out
    }

    /// `mlp` over `x` on the production backend, into a fresh matrix.
    fn mlp_out(mlp: &Mlp, x: &Matrix) -> Matrix {
        let mut ws = Workspace::new();
        let (batch, backend) = (x.rows(), KernelBackend::BlockedPrepacked);
        let (data, cols) = mlp
            .forward_batch_ws(backend, x.as_slice(), batch, x.cols(), &mut ws)
            .unwrap();
        Matrix::from_vec(batch, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn dense_layer_forward_known_values() {
        // y = relu(x*W + b) with hand-computed numbers.
        let w = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]).unwrap();
        let b = Matrix::row_vector(&[0.0, 1.0]);
        let layer = DenseLayer::new(w, b, Activation::Relu).unwrap();
        let x = Matrix::row_vector(&[2.0, 4.0]);
        let y = layer_out(&layer, &x);
        // z = [2*1 + 4*0.5, 2*-1 + 4*2] + [0,1] = [4, 7]
        assert_eq!(y.as_slice(), &[4.0, 7.0]);
    }

    #[test]
    fn dense_layer_relu_clamps() {
        let w = Matrix::from_vec(1, 1, vec![-1.0]).unwrap();
        let b = Matrix::row_vector(&[0.0]);
        let layer = DenseLayer::new(w, b, Activation::Relu).unwrap();
        let y = layer_out(&layer, &Matrix::row_vector(&[3.0]));
        assert_eq!(y.as_slice(), &[0.0]);
    }

    #[test]
    fn dense_layer_bias_shape_checked() {
        let w = Matrix::zeros(2, 3);
        let b = Matrix::zeros(1, 2);
        assert!(DenseLayer::new(w, b, Activation::Relu).is_err());
    }

    #[test]
    fn dense_layer_accounting() {
        let layer = DenseLayer::random(8, 4, Activation::Relu, 3);
        assert_eq!(layer.in_dim(), 8);
        assert_eq!(layer.out_dim(), 4);
        assert_eq!(layer.num_params(), 8 * 4 + 4);
        assert_eq!(layer.size_bytes(), (8 * 4 + 4) * 4);
        assert_eq!(layer.flops(2), 2 * (2 * 8 * 4) as u64 + 8);
    }

    #[test]
    fn mlp_dims_and_forward_shape() {
        let mlp = Mlp::random(&[13, 64, 32], Activation::Relu, 1).unwrap();
        assert_eq!(mlp.num_layers(), 2);
        assert_eq!(mlp.dims(), vec![13, 64, 32]);
        assert_eq!(mlp.in_dim(), Some(13));
        assert_eq!(mlp.out_dim(), Some(32));
        let x = Matrix::filled(4, 13, 0.5);
        let y = mlp_out(&mlp, &x);
        assert_eq!(y.shape(), (4, 32));
    }

    #[test]
    fn mlp_final_activation_sigmoid_bounds_output() {
        let mlp = Mlp::random(&[8, 16, 1], Activation::Sigmoid, 5).unwrap();
        let x = Matrix::from_fn(3, 8, |r, c| (r + c) as f32 - 4.0);
        let y = mlp_out(&mlp, &x);
        assert!(y.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn mlp_rejects_bad_dims() {
        assert!(Mlp::random(&[8], Activation::Relu, 0).is_err());
        assert!(Mlp::random(&[8, 0, 4], Activation::Relu, 0).is_err());
    }

    #[test]
    fn empty_mlp_is_identity() {
        let mlp = Mlp::default();
        assert!(mlp.is_empty());
        let x = Matrix::row_vector(&[1.0, 2.0]);
        assert_eq!(mlp_out(&mlp, &x), x);
        assert_eq!(mlp.dims(), Vec::<usize>::new());
    }

    #[test]
    fn mlp_deterministic_per_seed() {
        let a = Mlp::random(&[4, 8, 2], Activation::Relu, 42).unwrap();
        let b = Mlp::random(&[4, 8, 2], Activation::Relu, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mlp_size_bytes_matches_param_count() {
        let mlp = Mlp::random(&[13, 512, 256, 64], Activation::Relu, 9).unwrap();
        let params = 13 * 512 + 512 + 512 * 256 + 256 + 256 * 64 + 64;
        assert_eq!(mlp.num_params(), params);
        assert_eq!(mlp.size_bytes(), params * 4);
    }

    #[test]
    fn prepacked_forward_is_bitwise_identical_to_packing_path() {
        // Ragged widths so the 6/4/1-row tile splits and the packed
        // block remainders are all exercised. The reference is the
        // row-major oracle over the same weights, layer by layer.
        let dims = [13usize, 67, 29, 3];
        let weights: Vec<Matrix> = dims
            .windows(2)
            .enumerate()
            .map(|(l, d)| Matrix::from_fn(d[0], d[1], |r, c| ((l + r * 7 + c * 3) as f32).sin()))
            .collect();
        let bias = |n: usize| Matrix::from_fn(1, n, |_, c| c as f32 * 0.013 - 0.2);
        let mlp = Mlp::new(
            weights
                .iter()
                .map(|w| DenseLayer::new(w.clone(), bias(w.cols()), Activation::Relu).unwrap())
                .collect(),
        );
        for batch in [1usize, 4, 9, 16] {
            let x = Matrix::from_fn(batch, 13, |r, c| (r as f32 * 0.3 - c as f32 * 0.2).sin());
            let mut reference = x.clone();
            for w in &weights {
                let mut out = Matrix::zeros(batch, w.cols());
                kernel::gemm_reference(
                    reference.as_slice(),
                    w.as_slice(),
                    Some(bias(w.cols()).as_slice()),
                    FusedAct::Relu,
                    out.as_mut_slice(),
                    batch,
                    w.rows(),
                    w.cols(),
                );
                reference = out;
            }
            assert_eq!(reference, mlp_out(&mlp, &x), "batch {batch}");
        }
        // The workspace is exactly the two ping/pong layer buffers: resident
        // strips need no packing scratch.
        let mut ws = Workspace::new();
        mlp.forward_batch_ws(
            KernelBackend::BlockedPrepacked,
            &vec![0.1; 4 * 13],
            4,
            13,
            &mut ws,
        )
        .unwrap();
        let widest = 67;
        assert_eq!(ws.capacity_bytes(), 2 * 4 * widest * 4);
    }

    #[test]
    fn set_weights_repacks_and_checks_shape() {
        let mut layer = DenseLayer::random(9, 7, Activation::Relu, 5);
        let replacement = Matrix::from_fn(9, 7, |r, c| (r * 7 + c) as f32 * 0.05 - 1.0);
        layer.set_weights(replacement.clone()).unwrap();
        // The resident strips and the served result both match a layer
        // constructed fresh from the new weights.
        let fresh = DenseLayer::new(replacement, layer.bias().clone(), Activation::Relu).unwrap();
        assert_eq!(layer.packed(), fresh.packed(), "strips must be re-packed");
        let x = Matrix::from_fn(3, 9, |r, c| (r as f32 - c as f32) * 0.1);
        assert_eq!(layer_out(&layer, &x), layer_out(&fresh, &x));
        // Shape changes are structural and rejected.
        assert!(layer.set_weights(Matrix::zeros(9, 8)).is_err());
        assert!(layer.set_weights(Matrix::zeros(8, 7)).is_err());
    }

    #[test]
    fn packed_bytes_equal_row_major_bytes() {
        let mlp = Mlp::random(&[13, 512, 256, 64], Activation::Relu, 9).unwrap();
        assert_eq!(mlp.size_bytes(), mlp.num_params() * 4);
        for layer in mlp.iter() {
            assert_eq!(layer.size_bytes(), layer.num_params() * 4);
            assert_eq!(layer.packed().k(), layer.in_dim());
            assert_eq!(layer.packed().n(), layer.out_dim());
        }
    }

    #[test]
    fn activation_apply() {
        // Through a layer whose product is its input: the fused epilogue
        // applies the activation.
        let x = Matrix::row_vector(&[-2.0, 2.0]);
        let through = |act| {
            let id = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
            layer_out(&DenseLayer::new(id, Matrix::zeros(1, 2), act).unwrap(), &x)
        };
        assert_eq!(through(Activation::Identity), x);
        assert_eq!(through(Activation::Relu).as_slice(), &[0.0, 2.0]);
        let s = through(Activation::Sigmoid);
        assert!(s.get(0, 0) < 0.5 && s.get(0, 1) > 0.5);
    }
}
