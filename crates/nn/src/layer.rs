//! Network layers: fully-connected, convolutional, and pooling.
//!
//! Every layer is modelled as the paper's `(W, σ)` pair (Definition 2.1):
//! an affine "pre-activation" map followed by a (possibly non-linear)
//! activation.  Pooling layers have an identity affine part and use the pool
//! as their activation, which is exactly how the paper treats MaxPool/AvgPool
//! (they are activation functions, Definition 2.3 discussion).
//!
//! Besides forward evaluation, each layer exposes the three ingredients the
//! repair algorithms need:
//!
//! * parameter access (`params` / `add_to_params`) so a repair `Δ` can be
//!   applied to a single layer,
//! * vector–Jacobian products against the pre-activation with respect to the
//!   *input* and with respect to the *parameters*, which are used both to
//!   build the repair LP (Algorithm 1, line 5) and for gradient-descent
//!   training of the fine-tuning baselines, and
//! * the layer's activation-linearisation around an activation-channel
//!   pre-activation (Definition 4.2/4.3), which defines the value channel of
//!   a Decoupled DNN.

use crate::activation::Activation;
use crate::batch::FlatBatch;
use prdnn_linalg::{gemm, Matrix};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How a layer's activation can cross between linear pieces.
///
/// This is the information the linear-region computation
/// (`prdnn-syrenn`) needs from each layer: where, as a function of the
/// pre-activation vector, the layer switches from one affine piece to
/// another.
#[derive(Debug, Clone, PartialEq)]
pub enum CrossingSpec {
    /// The layer is affine: it never introduces new linear regions.
    None,
    /// Element-wise PWL activation: unit `i` crosses whenever its
    /// pre-activation equals one of the listed thresholds.
    ElementwiseThresholds(Vec<f64>),
    /// Max-pooling: a crossing happens whenever two pre-activation entries
    /// inside the same window become equal.  Each inner vector lists the
    /// pre-activation indices belonging to one window.
    WindowPairs(Vec<Vec<usize>>),
    /// The layer's activation is not piecewise linear (Tanh/Sigmoid); linear
    /// regions are not defined for it.
    NotPiecewiseLinear,
}

/// The (affine) linearisation of a layer's activation around a fixed
/// pre-activation, as used by the value channel of a DDNN.
#[derive(Debug, Clone, PartialEq)]
pub enum ActivationLinearization {
    /// Element-wise: `out_i = slope_i · z_i + intercept_i`.
    Elementwise {
        /// Per-component slope of the linearisation.
        slopes: Vec<f64>,
        /// Per-component intercept of the linearisation.
        intercepts: Vec<f64>,
    },
    /// Selection (max-pooling): `out_w = z[selected[w]]`.
    Selection {
        /// For each output, the input index it copies.
        selected: Vec<usize>,
        /// Dimension of the pre-activation the selection reads from.
        in_dim: usize,
    },
    /// Fixed averaging (average pooling): `out_w = mean(z[window_w])`.
    Averaging {
        /// For each output, the input indices it averages.
        windows: Vec<Vec<usize>>,
        /// Dimension of the pre-activation the averaging reads from.
        in_dim: usize,
    },
}

impl ActivationLinearization {
    /// Applies the linearisation to a pre-activation vector.
    pub fn apply(&self, z: &[f64]) -> Vec<f64> {
        match self {
            ActivationLinearization::Elementwise { slopes, intercepts } => z
                .iter()
                .zip(slopes.iter().zip(intercepts))
                .map(|(zi, (s, b))| s * zi + b)
                .collect(),
            ActivationLinearization::Selection { selected, .. } => {
                selected.iter().map(|&i| z[i]).collect()
            }
            ActivationLinearization::Averaging { windows, .. } => windows
                .iter()
                .map(|w| w.iter().map(|&i| z[i]).sum::<f64>() / w.len() as f64)
                .collect(),
        }
    }

    /// Computes `rows · D`, where `D` is the Jacobian of the linearisation
    /// (i.e. the slopes/selection/averaging matrix) and `rows` has one column
    /// per linearisation *output*.
    pub fn vjp(&self, rows: &Matrix) -> Matrix {
        match self {
            ActivationLinearization::Elementwise { slopes, .. } => {
                Matrix::from_fn(rows.rows(), slopes.len(), |r, c| rows[(r, c)] * slopes[c])
            }
            ActivationLinearization::Selection { selected, in_dim } => {
                let mut out = Matrix::zeros(rows.rows(), *in_dim);
                for r in 0..rows.rows() {
                    for (w, &i) in selected.iter().enumerate() {
                        out[(r, i)] += rows[(r, w)];
                    }
                }
                out
            }
            ActivationLinearization::Averaging { windows, in_dim } => {
                let mut out = Matrix::zeros(rows.rows(), *in_dim);
                for r in 0..rows.rows() {
                    for (w, idxs) in windows.iter().enumerate() {
                        let coeff = rows[(r, w)] / idxs.len() as f64;
                        for &i in idxs {
                            out[(r, i)] += coeff;
                        }
                    }
                }
                out
            }
        }
    }

    /// Output dimension of the linearised activation.
    pub fn output_dim(&self) -> usize {
        match self {
            ActivationLinearization::Elementwise { slopes, .. } => slopes.len(),
            ActivationLinearization::Selection { selected, .. } => selected.len(),
            ActivationLinearization::Averaging { windows, .. } => windows.len(),
        }
    }
}

/// A fully-connected layer `σ(W x + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Weight matrix of shape `output_dim × input_dim`.
    pub weights: Matrix,
    /// Bias vector of length `output_dim`.
    pub bias: Vec<f64>,
    /// Activation applied element-wise to the pre-activation.
    pub activation: Activation,
}

impl DenseLayer {
    /// Creates a dense layer from its weights, bias, and activation.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weights.rows()`.
    pub fn new(weights: Matrix, bias: Vec<f64>, activation: Activation) -> Self {
        assert_eq!(
            weights.rows(),
            bias.len(),
            "dense layer: bias/weight row mismatch"
        );
        DenseLayer {
            weights,
            bias,
            activation,
        }
    }
}

/// A 2-D convolutional layer `σ(conv(x, K) + b)` over `C×H×W` inputs
/// flattened in row-major `[channel][row][col]` order.
///
/// # Kernels and their summation order
///
/// The pre-activation and both vector–Jacobian products are direct loops
/// that hoist one kernel tap `(ky, kx)` out of the spatial loops.  The
/// output positions a tap reaches without touching the zero padding form
/// one contiguous range per axis, computed once per tap, so the innermost
/// loop runs over consecutive `ox` with no bounds test:
///
/// * forward: `oc → ic → ky → kx → oy → ox`, each output starting from its
///   bias;
/// * input VJP: `r → oc → ic → ky↓ → kx↓ → oy → ox` (kernel taps in
///   descending order);
/// * parameter VJP: one dot per weight over ascending `(oy, ox)`, then one
///   sum per bias over its channel.
///
/// Floating-point addition is not associative, so these orders are chosen
/// to give every accumulator exactly the terms, term order and operand
/// order of the textbook loop (`oc → oy → ox → ic → ky → kx`, one `+=` per
/// in-bounds connection), which makes the results bit-identical to it:
///
/// * an output `(oc, oy, ox)` sums `w · x` over ascending `(ic, ky, kx)`;
/// * an input entry `(ic, iy, ix)` receives one term per `(oc, oy, ox)`
///   that reads it, in ascending `(oc, oy, ox)`.  For that entry `ky` fixes
///   `oy` (`iy = oy · stride + ky − padding`) and `kx` fixes `ox`, and a
///   larger tap means a smaller position, hence the descending taps;
/// * a weight's gradient sums over ascending `(oy, ox)` from `0.0`.
///
/// The unit tests check this bit for bit against the textbook loop on
/// random shapes (strides, paddings, non-square kernels and inputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2dLayer {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_height: usize,
    /// Input width.
    pub in_width: usize,
    /// Output channel count (number of filters).
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on every side).
    pub padding: usize,
    /// Filter weights in `[out_c][in_c][kh][kw]` order.
    pub weights: Vec<f64>,
    /// Per-output-channel bias.
    pub bias: Vec<f64>,
    /// Activation applied element-wise to the pre-activation.
    pub activation: Activation,
}

impl Conv2dLayer {
    /// Output height after the convolution.
    pub fn out_height(&self) -> usize {
        (self.in_height + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width after the convolution.
    pub fn out_width(&self) -> usize {
        (self.in_width + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    fn weight_index(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_channels + ic) * self.kernel_h + ky) * self.kernel_w + kx
    }

    /// The output positions `o` along one axis whose input coordinate
    /// `o · stride + k − padding` (kernel offset `k`) lies inside the
    /// `in_len`-long input.  Positions outside it read the zero padding and
    /// contribute no term at all.
    fn valid_outputs(&self, k: usize, in_len: usize, out_len: usize) -> Range<usize> {
        let (s, p) = (self.stride, self.padding);
        let lo = p.saturating_sub(k).div_ceil(s);
        let hi = (in_len + p).saturating_sub(k).div_ceil(s).min(out_len);
        lo..hi.max(lo)
    }

    /// Writes the convolution pre-activation for one input into `z`
    /// (which must have length `output_dim`), in the forward loop order of
    /// the type-level docs.
    fn preactivation_into(&self, input: &[f64], z: &mut [f64]) {
        let (oh, ow) = (self.out_height(), self.out_width());
        let (ih, iw) = (self.in_height, self.in_width);
        let (s, p) = (self.stride, self.padding);
        for (oc, zc) in z.chunks_exact_mut(oh * ow).enumerate() {
            zc.fill(self.bias[oc]);
            for ic in 0..self.in_channels {
                let xc = &input[ic * ih * iw..(ic + 1) * ih * iw];
                for ky in 0..self.kernel_h {
                    let oys = self.valid_outputs(ky, ih, oh);
                    for kx in 0..self.kernel_w {
                        let oxs = self.valid_outputs(kx, iw, ow);
                        if oxs.is_empty() {
                            continue;
                        }
                        let w = self.weights[self.weight_index(oc, ic, ky, kx)];
                        let ix0 = oxs.start * s + kx - p;
                        for oy in oys.clone() {
                            let iy = oy * s + ky - p;
                            let zs = &mut zc[oy * ow + oxs.start..oy * ow + oxs.end];
                            let xs = xc[iy * iw + ix0..].iter().step_by(s);
                            for (zi, xi) in zs.iter_mut().zip(xs) {
                                *zi += w * xi;
                            }
                        }
                    }
                }
            }
        }
    }

    /// `rows · (∂z/∂input)` ([`Layer::preact_input_vjp`]), walking the
    /// kernel taps in descending order as the type-level docs explain.
    fn input_vjp(&self, rows: &Matrix) -> Matrix {
        let (oh, ow) = (self.out_height(), self.out_width());
        let (ih, iw) = (self.in_height, self.in_width);
        let (s, p) = (self.stride, self.padding);
        let in_dim = self.in_channels * ih * iw;
        let mut out = Matrix::zeros(rows.rows(), in_dim);
        for r in 0..rows.rows() {
            let out_row = &mut out.as_mut_slice()[r * in_dim..(r + 1) * in_dim];
            for (oc, gc) in rows.row(r).chunks_exact(oh * ow).enumerate() {
                for ic in 0..self.in_channels {
                    let dc = &mut out_row[ic * ih * iw..(ic + 1) * ih * iw];
                    for ky in (0..self.kernel_h).rev() {
                        let oys = self.valid_outputs(ky, ih, oh);
                        for kx in (0..self.kernel_w).rev() {
                            let oxs = self.valid_outputs(kx, iw, ow);
                            if oxs.is_empty() {
                                continue;
                            }
                            let w = self.weights[self.weight_index(oc, ic, ky, kx)];
                            let ix0 = oxs.start * s + kx - p;
                            for oy in oys.clone() {
                                let iy = oy * s + ky - p;
                                let gs = &gc[oy * ow + oxs.start..oy * ow + oxs.end];
                                let ds = dc[iy * iw + ix0..].iter_mut().step_by(s);
                                for (di, gi) in ds.zip(gs) {
                                    *di += gi * w;
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// `rows · (∂z/∂params)` at `input` ([`Layer::preact_param_vjp`]).
    ///
    /// One dot product per weight over ascending `(oy, ox)`, then one sum
    /// per bias, each accumulated from `0.0`.  The weights that share a tap
    /// `(ic, ky, kx)` across output channels read the same inputs, so their
    /// dots, for every upstream row, advance together: the upstream values
    /// are transposed once to position-major `[oy][ox][oc][r]`, and each
    /// position adds one contiguous slice of independent accumulators
    /// instead of extending a single latency-bound chain.
    fn param_vjp(&self, rows: &Matrix, input: &[f64]) -> Matrix {
        let (oh, ow) = (self.out_height(), self.out_width());
        let (ih, iw) = (self.in_height, self.in_width);
        let (s, p) = (self.stride, self.padding);
        let (nr, noc) = (rows.rows(), self.out_channels);
        let nw = self.weights.len();
        let lanes = noc * nr;
        let mut g = vec![0.0; oh * ow * lanes];
        for r in 0..nr {
            for (oc, gc) in rows.row(r).chunks_exact(oh * ow).enumerate() {
                for (pos, &v) in gc.iter().enumerate() {
                    g[pos * lanes + oc * nr + r] = v;
                }
            }
        }
        let mut out = Matrix::zeros(nr, nw + self.bias.len());
        if nr == 0 {
            return out;
        }
        let mut acc = vec![0.0; lanes];
        for ic in 0..self.in_channels {
            let xc = &input[ic * ih * iw..(ic + 1) * ih * iw];
            for ky in 0..self.kernel_h {
                let oys = self.valid_outputs(ky, ih, oh);
                for kx in 0..self.kernel_w {
                    let oxs = self.valid_outputs(kx, iw, ow);
                    if oxs.is_empty() {
                        // No connections: the entries stay 0.0.
                        continue;
                    }
                    let ix0 = oxs.start * s + kx - p;
                    acc.fill(0.0);
                    for oy in oys.clone() {
                        let iy = oy * s + ky - p;
                        let pos0 = oy * ow + oxs.start;
                        let gs = g[pos0 * lanes..(pos0 + oxs.len()) * lanes].chunks_exact(lanes);
                        let xs = xc[iy * iw + ix0..].iter().step_by(s);
                        for (gp, xi) in gs.zip(xs) {
                            for (a, gi) in acc.iter_mut().zip(gp) {
                                *a += gi * xi;
                            }
                        }
                    }
                    for (oc, accs) in acc.chunks_exact(nr).enumerate() {
                        let w_idx = self.weight_index(oc, ic, ky, kx);
                        for (r, a) in accs.iter().enumerate() {
                            out[(r, w_idx)] = *a;
                        }
                    }
                }
            }
        }
        // Bias of channel `oc`: the plain sum of its upstream block.
        for r in 0..nr {
            for (oc, gc) in rows.row(r).chunks_exact(oh * ow).enumerate() {
                let mut sum = 0.0;
                for gi in gc {
                    sum += gi;
                }
                out[(r, nw + oc)] = sum;
            }
        }
        out
    }
}

/// A 2-D pooling layer over `C×H×W` inputs (max or average).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pool2dLayer {
    /// Channel count (unchanged by pooling).
    pub channels: usize,
    /// Input height.
    pub in_height: usize,
    /// Input width.
    pub in_width: usize,
    /// Pooling window height.
    pub pool_h: usize,
    /// Pooling window width.
    pub pool_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
}

impl Pool2dLayer {
    /// Output height after pooling.
    pub fn out_height(&self) -> usize {
        (self.in_height - self.pool_h) / self.stride + 1
    }

    /// Output width after pooling.
    pub fn out_width(&self) -> usize {
        (self.in_width - self.pool_w) / self.stride + 1
    }

    /// The input indices covered by each pooling window, in output order.
    pub fn windows(&self) -> Vec<Vec<usize>> {
        let flat = self.flat_windows();
        flat.iter().map(|w| w.to_vec()).collect()
    }

    /// The window index map as one flat buffer ([`PoolWindows`]).
    ///
    /// Every window of a pooling layer has the same size
    /// (`pool_h × pool_w`), so the nested `Vec<Vec<usize>>` of
    /// [`Self::windows`] — one heap allocation per window — carries no
    /// information a flat `windows × window_len` index table doesn't.  The
    /// batch entry points compute this table once per call and share it
    /// across the whole batch.
    pub fn flat_windows(&self) -> PoolWindows {
        PoolWindows {
            indices: self.window_iter().flatten().collect(),
            window_len: self.pool_h * self.pool_w,
        }
    }

    /// The windows in output order, each as an iterator over the input
    /// indices it reads (row-major within the window), computed by index
    /// arithmetic.  The per-point entry points walk this instead of building
    /// a [`PoolWindows`] table on every call.
    fn window_iter(&self) -> impl Iterator<Item = impl Iterator<Item = usize>> {
        let (oh, ow) = (self.out_height(), self.out_width());
        let (ih, iw, s) = (self.in_height, self.in_width, self.stride);
        let (ph, pw) = (self.pool_h, self.pool_w);
        (0..self.channels * oh).flat_map(move |row| {
            let (c, oy) = (row / oh, row % oh);
            (0..ow).map(move |ox| {
                let base = (c * ih + oy * s) * iw + ox * s;
                (0..ph).flat_map(move |py| (base + py * iw..).take(pw))
            })
        })
    }
}

/// The first maximal entry of `z` inside a pooling window, as
/// `(position in the window, index into z)`.  Ties keep the earlier
/// position.
///
/// # Panics
///
/// Panics if the window is empty.
fn window_argmax(z: &[f64], mut window: impl Iterator<Item = usize>) -> (usize, usize) {
    let first = window.next().expect("pooling window is empty");
    let mut best = (0, first);
    for (k, i) in window.enumerate() {
        if z[i] > z[best.1] {
            best = (k + 1, i);
        }
    }
    best
}

/// The input-index map of a pooling layer, flattened: window `w` reads the
/// input positions `self.window(w)`.  One allocation for the whole map,
/// where the nested [`Pool2dLayer::windows`] form allocates per window.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolWindows {
    indices: Vec<usize>,
    window_len: usize,
}

impl PoolWindows {
    /// Number of pooling windows (the layer's output dimension).
    pub fn count(&self) -> usize {
        self.indices.len().checked_div(self.window_len).unwrap_or(0)
    }

    /// Input indices read by window `w`.
    #[inline]
    pub fn window(&self, w: usize) -> &[usize] {
        &self.indices[w * self.window_len..(w + 1) * self.window_len]
    }

    /// Iterates over the windows in output order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.count()).map(move |w| self.window(w))
    }
}

/// A single network layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(DenseLayer),
    /// 2-D convolution.
    Conv2d(Conv2dLayer),
    /// 2-D max pooling (a PWL activation with no parameters).
    MaxPool2d(Pool2dLayer),
    /// 2-D average pooling (an affine map with no parameters).
    AvgPool2d(Pool2dLayer),
}

impl Layer {
    /// Convenience constructor for a dense layer.
    pub fn dense(weights: Matrix, bias: Vec<f64>, activation: Activation) -> Self {
        Layer::Dense(DenseLayer::new(weights, bias, activation))
    }

    /// Input dimension expected by the layer.
    pub fn input_dim(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weights.cols(),
            Layer::Conv2d(c) => c.in_channels * c.in_height * c.in_width,
            Layer::MaxPool2d(p) | Layer::AvgPool2d(p) => p.channels * p.in_height * p.in_width,
        }
    }

    /// Output dimension produced by the layer.
    pub fn output_dim(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weights.rows(),
            Layer::Conv2d(c) => c.out_channels * c.out_height() * c.out_width(),
            Layer::MaxPool2d(p) | Layer::AvgPool2d(p) => {
                p.channels * p.out_height() * p.out_width()
            }
        }
    }

    /// Dimension of the layer's pre-activation vector.
    ///
    /// For dense/conv layers this equals [`Self::output_dim`]; for pooling
    /// layers the pre-activation *is* the input (identity affine part).
    pub fn preactivation_dim(&self) -> usize {
        match self {
            Layer::Dense(_) | Layer::Conv2d(_) => self.output_dim(),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => self.input_dim(),
        }
    }

    /// Number of trainable/repairable parameters in the layer.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weights.rows() * d.weights.cols() + d.bias.len(),
            Layer::Conv2d(c) => c.weights.len() + c.bias.len(),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => 0,
        }
    }

    /// Flattened copy of the layer's parameters (weights then biases).
    pub fn params(&self) -> Vec<f64> {
        match self {
            Layer::Dense(d) => {
                let mut p = d.weights.as_slice().to_vec();
                p.extend_from_slice(&d.bias);
                p
            }
            Layer::Conv2d(c) => {
                let mut p = c.weights.clone();
                p.extend_from_slice(&c.bias);
                p
            }
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => Vec::new(),
        }
    }

    /// Adds `delta` to the layer's parameters (the repair application step,
    /// Algorithm 1 line 9).
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != self.num_params()`.
    pub fn add_to_params(&mut self, delta: &[f64]) {
        assert_eq!(
            delta.len(),
            self.num_params(),
            "add_to_params: wrong delta length"
        );
        match self {
            Layer::Dense(d) => {
                let nw = d.weights.rows() * d.weights.cols();
                for (w, dv) in d.weights.as_mut_slice().iter_mut().zip(&delta[..nw]) {
                    *w += dv;
                }
                for (b, dv) in d.bias.iter_mut().zip(&delta[nw..]) {
                    *b += dv;
                }
            }
            Layer::Conv2d(c) => {
                let nw = c.weights.len();
                for (w, dv) in c.weights.iter_mut().zip(&delta[..nw]) {
                    *w += dv;
                }
                for (b, dv) in c.bias.iter_mut().zip(&delta[nw..]) {
                    *b += dv;
                }
            }
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => {}
        }
    }

    /// Overwrites the layer's parameters with `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn set_params(&mut self, params: &[f64]) {
        let current = self.params();
        assert_eq!(params.len(), current.len(), "set_params: wrong length");
        let delta: Vec<f64> = params.iter().zip(&current).map(|(n, o)| n - o).collect();
        self.add_to_params(&delta);
    }

    /// Computes the layer's pre-activation `z = W x + b` (or `z = x` for
    /// pooling layers).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn preactivation(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(
            input.len(),
            self.input_dim(),
            "layer input dimension mismatch"
        );
        match self {
            Layer::Dense(d) => {
                let mut z = d.weights.matvec(input);
                for (zi, b) in z.iter_mut().zip(&d.bias) {
                    *zi += b;
                }
                z
            }
            Layer::Conv2d(c) => {
                let mut z = vec![0.0; self.output_dim()];
                c.preactivation_into(input, &mut z);
                z
            }
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => input.to_vec(),
        }
    }

    /// Applies the layer's activation to a pre-activation vector.
    pub fn activate(&self, z: &[f64]) -> Vec<f64> {
        match self {
            Layer::Dense(d) => d.activation.apply(z),
            Layer::Conv2d(c) => c.activation.apply(z),
            Layer::MaxPool2d(p) => p
                .window_iter()
                .map(|w| w.map(|i| z[i]).fold(f64::NEG_INFINITY, f64::max))
                .collect(),
            Layer::AvgPool2d(p) => {
                let len = (p.pool_h * p.pool_w) as f64;
                p.window_iter()
                    .map(|w| w.map(|i| z[i]).sum::<f64>() / len)
                    .collect()
            }
        }
    }

    /// Full forward pass through the layer.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.activate(&self.preactivation(input))
    }

    /// Computes the pre-activation of every vector in `inputs` (the affine
    /// map applied per vector; pooling layers share one identity fast path).
    ///
    /// This is the entry point the incremental SyReNN transformer pipeline
    /// uses to push all carried vertex values through a layer together —
    /// once per layer, instead of re-running the network prefix per vertex.
    ///
    /// # Panics
    ///
    /// Panics if any input has the wrong dimension.
    pub fn preactivation_batch(&self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        match self {
            // Pooling pre-activations are the identity; avoid the flat
            // round-trip and just copy, with the same dimension check as
            // `preactivation`.
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => inputs
                .iter()
                .map(|v| {
                    assert_eq!(v.len(), self.input_dim(), "layer input dimension mismatch");
                    v.to_vec()
                })
                .collect(),
            _ => self
                .preactivation_batch_flat(&FlatBatch::from_rows(self.input_dim(), inputs))
                .to_rows(),
        }
    }

    /// [`Self::preactivation_batch`] on a batch-major flat buffer.
    ///
    /// For dense layers the whole batch goes through **one** blocked GEMM
    /// call (`Z = X · Wᵀ`, then the bias is added row-wise): one packed
    /// weight tile serves every vector in the batch.  The GEMM accumulates
    /// each output element in the same ascending-`k` order as the per-point
    /// `matvec`, and the bias is added after the full accumulation exactly
    /// as in [`Self::preactivation`], so the result is bit-identical to
    /// mapping the per-point entry point over the batch.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.dim() != self.input_dim()`.
    pub fn preactivation_batch_flat(&self, inputs: &FlatBatch) -> FlatBatch {
        assert_eq!(
            inputs.dim(),
            self.input_dim(),
            "layer input dimension mismatch"
        );
        match self {
            Layer::Dense(d) => {
                let (out_dim, in_dim) = (d.weights.rows(), d.weights.cols());
                let mut z = FlatBatch::zeros(out_dim, inputs.count());
                // `gemm_nt` takes its B operand transposed, which is exactly
                // the row-major `out_dim × in_dim` weight layout.
                gemm::gemm_nt(
                    inputs.count(),
                    in_dim,
                    out_dim,
                    inputs.as_slice(),
                    d.weights.as_slice(),
                    z.as_mut_slice(),
                );
                for row in z.rows_mut() {
                    for (zi, b) in row.iter_mut().zip(&d.bias) {
                        *zi += b;
                    }
                }
                z
            }
            Layer::Conv2d(c) => {
                let mut z = FlatBatch::zeros(self.output_dim(), inputs.count());
                for i in 0..inputs.count() {
                    c.preactivation_into(inputs.row(i), z.row_mut(i));
                }
                z
            }
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => inputs.clone(),
        }
    }

    /// Whether the layer's pre-activation is the identity map (pooling
    /// layers): carried values already equal the pre-activation, so batch
    /// pipelines can skip the copy entirely.
    pub fn preactivation_is_identity(&self) -> bool {
        matches!(self, Layer::MaxPool2d(_) | Layer::AvgPool2d(_))
    }

    /// Applies the layer's activation to every pre-activation in `zs`.
    ///
    /// For pooling layers the window index set is computed once and shared
    /// across the whole batch (computing it per vector is what makes
    /// [`Self::activate`] expensive in vertex-heavy loops).
    pub fn activate_batch(&self, zs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.activate_batch_flat(&FlatBatch::from_rows(self.preactivation_dim(), zs))
            .to_rows()
    }

    /// [`Self::activate_batch`] on a batch-major flat buffer.
    ///
    /// Element-wise activations map one scalar function over the whole
    /// contiguous buffer; pooling layers share one flat window index map
    /// ([`Pool2dLayer::flat_windows`]) across the batch — no per-window or
    /// per-vector index allocations.
    pub fn activate_batch_flat(&self, zs: &FlatBatch) -> FlatBatch {
        fn elementwise(activation: Activation, zs: &FlatBatch) -> FlatBatch {
            let mut out = zs.clone();
            for x in out.as_mut_slice().iter_mut() {
                *x = activation.apply_scalar(*x);
            }
            out
        }
        fn pooled(
            windows: &PoolWindows,
            zs: &FlatBatch,
            mut one: impl FnMut(&[usize], &[f64]) -> f64,
        ) -> FlatBatch {
            let mut out = FlatBatch::zeros(windows.count(), zs.count());
            for i in 0..zs.count() {
                let z = zs.row(i);
                for (o, w) in out.row_mut(i).iter_mut().zip(windows.iter()) {
                    *o = one(w, z);
                }
            }
            out
        }
        match self {
            Layer::Dense(d) => elementwise(d.activation, zs),
            Layer::Conv2d(c) => elementwise(c.activation, zs),
            Layer::MaxPool2d(p) => pooled(&p.flat_windows(), zs, |w, z| {
                w.iter().map(|&i| z[i]).fold(f64::NEG_INFINITY, f64::max)
            }),
            Layer::AvgPool2d(p) => pooled(&p.flat_windows(), zs, |w, z| {
                w.iter().map(|&i| z[i]).sum::<f64>() / w.len() as f64
            }),
        }
    }

    /// Full forward pass for a batch of inputs.
    pub fn forward_batch(&self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.forward_batch_flat(&FlatBatch::from_rows(self.input_dim(), inputs))
            .to_rows()
    }

    /// [`Self::forward_batch`] on a batch-major flat buffer.
    pub fn forward_batch_flat(&self, inputs: &FlatBatch) -> FlatBatch {
        if self.preactivation_is_identity() {
            // Pooling: the pre-activation is the identity, so activate
            // straight off the inputs instead of copying them first.
            assert_eq!(
                inputs.dim(),
                self.input_dim(),
                "layer input dimension mismatch"
            );
            return self.activate_batch_flat(inputs);
        }
        self.activate_batch_flat(&self.preactivation_batch_flat(inputs))
    }

    /// The linearisation of the layer's activation around pre-activation
    /// `z_center` (Definition 4.2), used by the DDNN value channel.
    pub fn linearize_activation(&self, z_center: &[f64]) -> ActivationLinearization {
        match self {
            Layer::Dense(d) => {
                let lin = d.activation.linearize(z_center);
                ActivationLinearization::Elementwise {
                    slopes: lin.iter().map(|(s, _)| *s).collect(),
                    intercepts: lin.iter().map(|(_, b)| *b).collect(),
                }
            }
            Layer::Conv2d(c) => {
                let lin = c.activation.linearize(z_center);
                ActivationLinearization::Elementwise {
                    slopes: lin.iter().map(|(s, _)| *s).collect(),
                    intercepts: lin.iter().map(|(_, b)| *b).collect(),
                }
            }
            Layer::MaxPool2d(p) => ActivationLinearization::Selection {
                selected: p
                    .window_iter()
                    .map(|w| window_argmax(z_center, w).1)
                    .collect(),
                in_dim: self.input_dim(),
            },
            Layer::AvgPool2d(p) => ActivationLinearization::Averaging {
                windows: p.windows(),
                in_dim: self.input_dim(),
            },
        }
    }

    /// Linearises the layer's activation around every centre in `z_centers`
    /// (the batch form of [`Self::linearize_activation`]).
    ///
    /// For pooling layers the window index set is computed once and shared
    /// across the whole batch — the per-centre selection/averaging is built
    /// from the shared windows, where the per-vector call re-enumerates
    /// them every time.  This is what makes the batched DDNN channels cheap
    /// in vertex-heavy repair loops.
    pub fn linearize_activation_batch(
        &self,
        z_centers: &[Vec<f64>],
    ) -> Vec<ActivationLinearization> {
        self.linearize_activation_batch_flat(&FlatBatch::from_rows(
            self.preactivation_dim(),
            z_centers,
        ))
    }

    /// [`Self::linearize_activation_batch`] on a batch-major flat buffer.
    pub fn linearize_activation_batch_flat(
        &self,
        z_centers: &FlatBatch,
    ) -> Vec<ActivationLinearization> {
        match self {
            Layer::Dense(_) | Layer::Conv2d(_) => z_centers
                .rows()
                .map(|z| self.linearize_activation(z))
                .collect(),
            Layer::MaxPool2d(p) => {
                let windows = p.flat_windows();
                let in_dim = self.input_dim();
                z_centers
                    .rows()
                    .map(|z| {
                        let selected = windows
                            .iter()
                            .map(|w| window_argmax(z, w.iter().copied()).1)
                            .collect();
                        ActivationLinearization::Selection { selected, in_dim }
                    })
                    .collect()
            }
            Layer::AvgPool2d(p) => {
                let windows = p.windows();
                let in_dim = self.input_dim();
                (0..z_centers.count())
                    .map(|_| ActivationLinearization::Averaging {
                        windows: windows.clone(),
                        in_dim,
                    })
                    .collect()
            }
        }
    }

    /// The element-wise activation of a dense/conv layer, if any.
    pub fn activation(&self) -> Option<Activation> {
        match self {
            Layer::Dense(d) => Some(d.activation),
            Layer::Conv2d(c) => Some(c.activation),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => None,
        }
    }

    /// Whether the layer computes a piecewise-linear function.
    pub fn is_piecewise_linear(&self) -> bool {
        match self {
            Layer::Dense(d) => d.activation.is_piecewise_linear(),
            Layer::Conv2d(c) => c.activation.is_piecewise_linear(),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => true,
        }
    }

    /// How this layer's activation crosses between linear pieces, as a
    /// function of its pre-activation.
    pub fn crossing_spec(&self) -> CrossingSpec {
        match self {
            Layer::Dense(d) => elementwise_crossing(d.activation),
            Layer::Conv2d(c) => elementwise_crossing(c.activation),
            Layer::MaxPool2d(p) => CrossingSpec::WindowPairs(p.windows()),
            Layer::AvgPool2d(_) => CrossingSpec::None,
        }
    }

    /// The activation pattern of the layer at pre-activation `z`
    /// (Definition 2.5): one small integer per pre-activation unit (the
    /// linear piece it falls in) or per window (the argmax position).
    pub fn activation_pattern(&self, z: &[f64]) -> Vec<i8> {
        match self {
            Layer::Dense(d) => z.iter().map(|&x| d.activation.piece_index(x)).collect(),
            Layer::Conv2d(c) => z.iter().map(|&x| c.activation.piece_index(x)).collect(),
            Layer::MaxPool2d(p) => p
                .window_iter()
                .map(|w| window_argmax(z, w).0 as i8)
                .collect(),
            Layer::AvgPool2d(_) => Vec::new(),
        }
    }

    /// Computes `rows · (∂z/∂input)`, the vector–Jacobian product of the
    /// pre-activation with respect to the layer *input*.
    ///
    /// `rows` must have one column per pre-activation component; the result
    /// has one column per input component.
    pub fn preact_input_vjp(&self, rows: &Matrix) -> Matrix {
        assert_eq!(
            rows.cols(),
            self.preactivation_dim(),
            "preact_input_vjp: column mismatch"
        );
        match self {
            Layer::Dense(d) => rows.matmul(&d.weights),
            Layer::Conv2d(c) => c.input_vjp(rows),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => rows.clone(),
        }
    }

    /// Computes `rows · (∂z/∂params)`, the vector–Jacobian product of the
    /// pre-activation with respect to the layer *parameters*, evaluated at
    /// `input`.
    ///
    /// `rows` must have one column per pre-activation component; the result
    /// has one column per parameter (in [`Self::params`] order).  This is the
    /// core quantity behind Algorithm 1's Jacobian (line 5).
    pub fn preact_param_vjp(&self, rows: &Matrix, input: &[f64]) -> Matrix {
        assert_eq!(
            rows.cols(),
            self.preactivation_dim(),
            "preact_param_vjp: column mismatch"
        );
        assert_eq!(
            input.len(),
            self.input_dim(),
            "preact_param_vjp: input mismatch"
        );
        match self {
            Layer::Dense(d) => {
                let (out_dim, in_dim) = (d.weights.rows(), d.weights.cols());
                let mut out = Matrix::zeros(rows.rows(), self.num_params());
                for r in 0..rows.rows() {
                    for j in 0..out_dim {
                        let g = rows[(r, j)];
                        if g == 0.0 {
                            continue;
                        }
                        let base = j * in_dim;
                        for (k, &xk) in input.iter().enumerate() {
                            out[(r, base + k)] += g * xk;
                        }
                        // Bias entry for unit j.
                        out[(r, out_dim * in_dim + j)] += g;
                    }
                }
                out
            }
            Layer::Conv2d(c) => c.param_vjp(rows, input),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => Matrix::zeros(rows.rows(), 0),
        }
    }
}

fn elementwise_crossing(activation: Activation) -> CrossingSpec {
    match activation.breakpoints() {
        None => CrossingSpec::NotPiecewiseLinear,
        Some(bps) if bps.is_empty() => CrossingSpec::None,
        Some(bps) => CrossingSpec::ElementwiseThresholds(bps),
    }
}

/// The original per-connection convolution kernels, kept verbatim as the
/// bit-for-bit oracle for the direct loops of [`Conv2dLayer`].
#[cfg(test)]
mod oracle {
    use super::Conv2dLayer;
    use prdnn_linalg::Matrix;

    impl Conv2dLayer {
        fn in_index(&self, c: usize, y: isize, x: isize) -> Option<usize> {
            if y < 0 || x < 0 || y as usize >= self.in_height || x as usize >= self.in_width {
                None
            } else {
                Some((c * self.in_height + y as usize) * self.in_width + x as usize)
            }
        }

        /// Iterates over `(out_index, weight_index, in_index)` triples describing
        /// the sparse linear structure of the convolution, calling `f` for each.
        fn for_each_connection(&self, mut f: impl FnMut(usize, usize, usize)) {
            let (oh, ow) = (self.out_height(), self.out_width());
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let out_idx = (oc * oh + oy) * ow + ox;
                        for ic in 0..self.in_channels {
                            for ky in 0..self.kernel_h {
                                for kx in 0..self.kernel_w {
                                    let iy =
                                        (oy * self.stride + ky) as isize - self.padding as isize;
                                    let ix =
                                        (ox * self.stride + kx) as isize - self.padding as isize;
                                    if let Some(in_idx) = self.in_index(ic, iy, ix) {
                                        f(out_idx, self.weight_index(oc, ic, ky, kx), in_idx);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The convolution pre-activation for one input.
    pub fn preactivation(c: &Conv2dLayer, input: &[f64]) -> Vec<f64> {
        let (oh, ow) = (c.out_height(), c.out_width());
        let mut z = vec![0.0; c.out_channels * oh * ow];
        for oc in 0..c.out_channels {
            let b = c.bias[oc];
            for oy in 0..oh {
                for ox in 0..ow {
                    z[(oc * oh + oy) * ow + ox] = b;
                }
            }
        }
        c.for_each_connection(|out_idx, w_idx, in_idx| {
            z[out_idx] += c.weights[w_idx] * input[in_idx];
        });
        z
    }

    /// `rows · (∂z/∂input)`.
    pub fn input_vjp(c: &Conv2dLayer, rows: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(rows.rows(), c.in_channels * c.in_height * c.in_width);
        c.for_each_connection(|out_idx, w_idx, in_idx| {
            let w = c.weights[w_idx];
            for r in 0..rows.rows() {
                out[(r, in_idx)] += rows[(r, out_idx)] * w;
            }
        });
        out
    }

    /// `rows · (∂z/∂params)` at `input`.
    pub fn param_vjp(c: &Conv2dLayer, rows: &Matrix, input: &[f64]) -> Matrix {
        let mut out = Matrix::zeros(rows.rows(), c.weights.len() + c.bias.len());
        let nw = c.weights.len();
        c.for_each_connection(|out_idx, w_idx, in_idx| {
            let x = input[in_idx];
            for r in 0..rows.rows() {
                out[(r, w_idx)] += rows[(r, out_idx)] * x;
            }
        });
        // Bias connections: pre-activation (oc, oy, ox) depends on bias[oc].
        let (oh, ow) = (c.out_height(), c.out_width());
        for oc in 0..c.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let out_idx = (oc * oh + oy) * ow + ox;
                    for r in 0..rows.rows() {
                        out[(r, nw + oc)] += rows[(r, out_idx)];
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_linalg::approx_eq_slice;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dense_example() -> Layer {
        Layer::dense(
            Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0]]),
            vec![0.0, -1.0],
            Activation::Relu,
        )
    }

    #[test]
    fn dense_forward() {
        let layer = dense_example();
        assert_eq!(layer.input_dim(), 2);
        assert_eq!(layer.output_dim(), 2);
        let z = layer.preactivation(&[1.0, 2.0]);
        assert_eq!(z, vec![-1.0, 3.5]);
        assert_eq!(layer.forward(&[1.0, 2.0]), vec![0.0, 3.5]);
    }

    #[test]
    fn dense_params_roundtrip() {
        let mut layer = dense_example();
        let p = layer.params();
        assert_eq!(p.len(), layer.num_params());
        assert_eq!(p, vec![1.0, -1.0, 0.5, 2.0, 0.0, -1.0]);
        layer.add_to_params(&[0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        assert_eq!(layer.preactivation(&[0.0, 0.0]), vec![1.0, 0.0]);
        let snapshot = layer.params();
        layer.set_params(&snapshot);
        assert_eq!(layer.params(), snapshot);
    }

    #[test]
    fn dense_param_vjp_matches_finite_difference() {
        let layer = dense_example();
        let input = vec![0.7, -1.3];
        // rows = identity: the vjp equals the full Jacobian of z wrt params.
        let rows = Matrix::identity(2);
        let jac = layer.preact_param_vjp(&rows, &input);
        let h = 1e-6;
        let base = layer.preactivation(&input);
        for p in 0..layer.num_params() {
            let mut bumped = layer.clone();
            let mut delta = vec![0.0; layer.num_params()];
            delta[p] = h;
            bumped.add_to_params(&delta);
            let z = bumped.preactivation(&input);
            for o in 0..2 {
                let fd = (z[o] - base[o]) / h;
                assert!(
                    (fd - jac[(o, p)]).abs() < 1e-5,
                    "param {p} output {o}: fd {fd} vs {}",
                    jac[(o, p)]
                );
            }
        }
    }

    #[test]
    fn dense_input_vjp_matches_weights() {
        let layer = dense_example();
        let rows = Matrix::identity(2);
        let jac = layer.preact_input_vjp(&rows);
        assert_eq!(jac, Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0]]));
    }

    fn conv_example() -> Layer {
        Layer::Conv2d(Conv2dLayer {
            in_channels: 1,
            in_height: 3,
            in_width: 3,
            out_channels: 2,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            padding: 0,
            weights: vec![
                // filter 0
                1.0, 0.0, 0.0, 1.0, // identity-ish
                // filter 1
                0.0, 1.0, 1.0, 0.0,
            ],
            bias: vec![0.5, -0.5],
            activation: Activation::Identity,
        })
    }

    #[test]
    fn conv_forward_shapes_and_values() {
        let layer = conv_example();
        assert_eq!(layer.input_dim(), 9);
        assert_eq!(layer.output_dim(), 2 * 2 * 2);
        let input: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let z = layer.preactivation(&input);
        // Filter 0 at (0,0): x[0,0] + x[1,1] + bias = 1 + 5 + 0.5 = 6.5
        assert_eq!(z[0], 6.5);
        // Filter 1 at (0,0): x[0,1] + x[1,0] - 0.5 = 2 + 4 - 0.5 = 5.5
        assert_eq!(z[4], 5.5);
    }

    #[test]
    fn conv_param_vjp_matches_finite_difference() {
        let layer = conv_example();
        let input: Vec<f64> = (0..9).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let out_dim = layer.output_dim();
        let rows = Matrix::identity(out_dim);
        let jac = layer.preact_param_vjp(&rows, &input);
        let base = layer.preactivation(&input);
        let h = 1e-6;
        for p in 0..layer.num_params() {
            let mut bumped = layer.clone();
            let mut delta = vec![0.0; layer.num_params()];
            delta[p] = h;
            bumped.add_to_params(&delta);
            let z = bumped.preactivation(&input);
            for o in 0..out_dim {
                let fd = (z[o] - base[o]) / h;
                assert!((fd - jac[(o, p)]).abs() < 1e-5, "param {p} out {o}");
            }
        }
    }

    #[test]
    fn conv_input_vjp_matches_finite_difference() {
        let layer = conv_example();
        let input: Vec<f64> = (0..9).map(|i| (i as f64) * 0.1).collect();
        let out_dim = layer.output_dim();
        let rows = Matrix::identity(out_dim);
        let jac = layer.preact_input_vjp(&rows);
        let base = layer.preactivation(&input);
        let h = 1e-6;
        for k in 0..9 {
            let mut bumped = input.clone();
            bumped[k] += h;
            let z = layer.preactivation(&bumped);
            for o in 0..out_dim {
                let fd = (z[o] - base[o]) / h;
                assert!((fd - jac[(o, k)]).abs() < 1e-5, "input {k} out {o}");
            }
        }
    }

    #[test]
    fn maxpool_forward_and_pattern() {
        let layer = Layer::MaxPool2d(Pool2dLayer {
            channels: 1,
            in_height: 2,
            in_width: 4,
            pool_h: 2,
            pool_w: 2,
            stride: 2,
        });
        assert_eq!(layer.input_dim(), 8);
        assert_eq!(layer.output_dim(), 2);
        let input = vec![1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 9.0, 4.0];
        assert_eq!(layer.forward(&input), vec![5.0, 9.0]);
        // Window 0 covers indices [0,1,4,5]; argmax is position 1 (value 5).
        assert_eq!(layer.activation_pattern(&input), vec![1, 2]);
        // The linearisation selects the argmax entries.
        let lin = layer.linearize_activation(&input);
        assert_eq!(lin.apply(&input), vec![5.0, 9.0]);
        // On a *different* value-channel vector it still selects positions 1 and 6.
        let other: Vec<f64> = (0..8).map(|i| i as f64 * 10.0).collect();
        assert_eq!(lin.apply(&other), vec![10.0, 60.0]);
    }

    #[test]
    fn batch_entry_points_match_per_vector_calls() {
        let layers = vec![
            dense_example(),
            conv_example(),
            Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
            Layer::AvgPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
        ];
        for layer in layers {
            let dim = layer.input_dim();
            let batch: Vec<Vec<f64>> = (0..5)
                .map(|k| (0..dim).map(|i| (k * dim + i) as f64 * 0.3 - 2.0).collect())
                .collect();
            let zs = layer.preactivation_batch(&batch);
            let outs = layer.forward_batch(&batch);
            for (i, input) in batch.iter().enumerate() {
                assert_eq!(zs[i], layer.preactivation(input));
                assert_eq!(outs[i], layer.forward(input));
            }
            assert_eq!(layer.activate_batch(&zs), outs);
        }
    }

    #[test]
    fn flat_batch_entry_points_are_bit_identical_to_per_point() {
        let layers = vec![
            dense_example(),
            conv_example(),
            Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
            Layer::AvgPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
        ];
        for layer in layers {
            let dim = layer.input_dim();
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|k| {
                    (0..dim)
                        .map(|i| ((k * dim + i) as f64 * 0.9).sin() * 3.0)
                        .collect()
                })
                .collect();
            let flat = FlatBatch::from_rows(dim, &rows);
            let z_flat = layer.preactivation_batch_flat(&flat);
            let out_flat = layer.forward_batch_flat(&flat);
            for (i, input) in rows.iter().enumerate() {
                let z = layer.preactivation(input);
                // Bitwise comparison: the flat GEMM path must agree with
                // the per-point path on every bit, not just approximately.
                assert!(z_flat
                    .row(i)
                    .iter()
                    .zip(&z)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                assert!(out_flat
                    .row(i)
                    .iter()
                    .zip(&layer.forward(input))
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            assert_eq!(
                layer.linearize_activation_batch_flat(&z_flat),
                z_flat
                    .rows()
                    .map(|z| layer.linearize_activation(z))
                    .collect::<Vec<_>>()
            );
            // Empty batches flow through every entry point.
            let empty = FlatBatch::new(dim);
            assert!(layer.forward_batch_flat(&empty).is_empty());
        }
    }

    #[test]
    fn flat_windows_match_nested_windows() {
        let p = Pool2dLayer {
            channels: 2,
            in_height: 4,
            in_width: 6,
            pool_h: 2,
            pool_w: 3,
            stride: 1,
        };
        let nested = p.windows();
        let flat = p.flat_windows();
        assert_eq!(flat.count(), nested.len());
        for (w, expected) in flat.iter().zip(&nested) {
            assert_eq!(w, expected.as_slice());
        }
    }

    #[test]
    fn linearize_activation_batch_matches_per_vector_calls() {
        let layers = vec![
            dense_example(),
            conv_example(),
            Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
            Layer::AvgPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
        ];
        for layer in layers {
            let dim = layer.preactivation_dim();
            let zs: Vec<Vec<f64>> = (0..4)
                .map(|k| {
                    (0..dim)
                        .map(|i| ((k * dim + i) as f64 * 0.7).cos())
                        .collect()
                })
                .collect();
            let batch = layer.linearize_activation_batch(&zs);
            assert_eq!(batch.len(), zs.len());
            for (z, lin) in zs.iter().zip(&batch) {
                assert_eq!(*lin, layer.linearize_activation(z));
            }
        }
    }

    #[test]
    fn avgpool_is_affine() {
        let layer = Layer::AvgPool2d(Pool2dLayer {
            channels: 1,
            in_height: 2,
            in_width: 2,
            pool_h: 2,
            pool_w: 2,
            stride: 2,
        });
        let input = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(layer.forward(&input), vec![2.5]);
        assert_eq!(layer.crossing_spec(), CrossingSpec::None);
        assert_eq!(layer.num_params(), 0);
    }

    #[test]
    fn linearization_matches_activation_at_center() {
        let layer = dense_example();
        let z = vec![-0.5, 1.5];
        let lin = layer.linearize_activation(&z);
        assert!(approx_eq_slice(&lin.apply(&z), &layer.activate(&z), 1e-12));
    }

    #[test]
    fn crossing_specs() {
        assert_eq!(
            dense_example().crossing_spec(),
            CrossingSpec::ElementwiseThresholds(vec![0.0])
        );
        let tanh_layer = Layer::dense(Matrix::identity(2), vec![0.0, 0.0], Activation::Tanh);
        assert_eq!(tanh_layer.crossing_spec(), CrossingSpec::NotPiecewiseLinear);
        assert!(!tanh_layer.is_piecewise_linear());
    }

    #[test]
    fn activation_linearization_vjp_elementwise() {
        let lin = ActivationLinearization::Elementwise {
            slopes: vec![0.0, 1.0, 2.0],
            intercepts: vec![0.0; 3],
        };
        let rows = Matrix::from_rows(&[vec![1.0, 1.0, 1.0]]);
        assert_eq!(lin.vjp(&rows), Matrix::from_rows(&[vec![0.0, 1.0, 2.0]]));
    }

    /// Mostly uniform values with exact and signed zeros mixed in: a sum
    /// that starts from `-0.0` or `0.0` is where a reordered accumulation
    /// would first show.
    fn draw_value(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0..2.0),
        }
    }

    fn draw_values(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| draw_value(rng)).collect()
    }

    /// A convolution with stride 1–2, padding 0–2, a 1×1, 3×3 or 5×3
    /// kernel, a non-square input (possibly empty) that the padded kernel
    /// fits, and 1–4 channels in and out, with random weights and bias.
    fn random_conv(
        stride: usize,
        padding: usize,
        kernel: usize,
        (h, w): (usize, usize),
        (in_channels, out_channels): (usize, usize),
        rng: &mut StdRng,
    ) -> Conv2dLayer {
        let (kernel_h, kernel_w): (usize, usize) = [(1, 1), (3, 3), (5, 3)][kernel];
        Conv2dLayer {
            in_channels,
            in_height: h.max(kernel_h.saturating_sub(2 * padding)),
            in_width: w.max(kernel_w.saturating_sub(2 * padding)),
            out_channels,
            kernel_h,
            kernel_w,
            stride,
            padding,
            weights: draw_values(rng, out_channels * in_channels * kernel_h * kernel_w),
            bias: draw_values(rng, out_channels),
            activation: Activation::Relu,
        }
    }

    fn assert_bits_eq(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{k}]: {g} vs {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The direct convolution loops agree with the per-connection
        /// oracle on every bit: forward per point and batched, and both
        /// VJPs with no upstream rows, one (training) and nine (the Task 1
        /// Jacobian).
        #[test]
        fn conv_kernels_match_the_per_connection_oracle(
            stride in 1usize..3,
            padding in 0usize..3,
            kernel in 0usize..3,
            hw in (0usize..9, 0usize..9),
            channels in (1usize..5, 1usize..5),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let conv = random_conv(stride, padding, kernel, hw, channels, &mut rng);
            let layer = Layer::Conv2d(conv.clone());
            let (in_dim, out_dim) = (layer.input_dim(), layer.output_dim());

            let inputs: Vec<Vec<f64>> = (0..3).map(|_| draw_values(&mut rng, in_dim)).collect();
            let batch = layer.preactivation_batch_flat(&FlatBatch::from_rows(in_dim, &inputs));
            for (i, x) in inputs.iter().enumerate() {
                let want = oracle::preactivation(&conv, x);
                assert_bits_eq("preactivation", &layer.preactivation(x), &want);
                assert_bits_eq("preactivation_batch_flat", batch.row(i), &want);
            }

            for r in [0, 1, 9] {
                let rows = Matrix::from_flat(r, out_dim, draw_values(&mut rng, r * out_dim));
                assert_bits_eq(
                    "preact_input_vjp",
                    layer.preact_input_vjp(&rows).as_slice(),
                    oracle::input_vjp(&conv, &rows).as_slice(),
                );
                assert_bits_eq(
                    "preact_param_vjp",
                    layer.preact_param_vjp(&rows, &inputs[0]).as_slice(),
                    oracle::param_vjp(&conv, &rows, &inputs[0]).as_slice(),
                );
            }
        }

        /// The per-point pooling paths, which walk the windows by index
        /// arithmetic, agree with the batch paths, which share one
        /// [`PoolWindows`] table, on overlapping and non-square windows.
        #[test]
        fn pooling_per_point_paths_match_the_window_table(
            pool in (1usize..4, 1usize..4),
            stride in 1usize..3,
            hw in (0usize..5, 0usize..5),
            channels in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = Pool2dLayer {
                channels,
                in_height: pool.0 + hw.0,
                in_width: pool.1 + hw.1,
                pool_h: pool.0,
                pool_w: pool.1,
                stride,
            };
            let table = p.flat_windows();
            // Draws from a few values so windows often hold ties.
            let zs: Vec<Vec<f64>> = (0..3)
                .map(|_| {
                    (0..channels * p.in_height * p.in_width)
                        .map(|_| f64::from(rng.gen_range(-2i32..3)))
                        .collect()
                })
                .collect();
            let flat = FlatBatch::from_rows(zs[0].len(), &zs);
            for layer in [Layer::MaxPool2d(p.clone()), Layer::AvgPool2d(p.clone())] {
                let outs = layer.activate_batch_flat(&flat);
                let lins = layer.linearize_activation_batch_flat(&flat);
                for (i, z) in zs.iter().enumerate() {
                    assert_bits_eq("activate", &layer.activate(z), outs.row(i));
                    prop_assert_eq!(&layer.linearize_activation(z), &lins[i]);
                }
            }
            let max = Layer::MaxPool2d(p);
            for z in &zs {
                let want: Vec<i8> = table
                    .iter()
                    .map(|w| {
                        let mut best = 0usize;
                        for (k, &i) in w.iter().enumerate() {
                            if z[i] > z[w[best]] {
                                best = k;
                            }
                        }
                        best as i8
                    })
                    .collect();
                prop_assert_eq!(max.activation_pattern(z), want);
            }
        }
    }
}
