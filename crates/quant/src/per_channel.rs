//! Per-output-channel weight quantization.
//!
//! Per-tensor quantization gives every weight column the same scale, so a
//! single large column inflates the scale for all of them. TFLite (and
//! the Edge TPU toolchain) therefore quantize weights *per output
//! channel*: one symmetric scale per column. This module provides that
//! scheme for the wide-NN weight matrices; the accelerator compiler in
//! `wide-nn` currently emits per-tensor weights (as the paper's toolchain
//! generation did), and this module quantifies exactly what that choice
//! costs — see the `per_channel_beats_per_tensor_on_skewed_columns` test
//! and the `quantization` Criterion bench.

use serde::{Deserialize, Serialize};

use hd_tensor::{Matrix, TensorError};

use crate::error::QuantError;
use crate::params::QuantParams;
use crate::Result;

/// An `i8` matrix with one symmetric scale per column (output channel).
///
/// `real[i][j] = scales[j] * q[i][j]` — zero points are always zero for
/// per-channel weights, which keeps accelerator MAC loops free of
/// per-channel zero-point corrections.
///
/// # Examples
///
/// ```
/// use hd_quant::per_channel::ChannelQuantizedMatrix;
/// use hd_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // One tiny and one huge column: per-channel keeps both precise.
/// let w = Matrix::from_rows(&[&[0.01, 100.0], &[-0.02, -50.0]])?;
/// let q = ChannelQuantizedMatrix::quantize(&w)?;
/// let back = q.dequantize();
/// assert!((back[(0, 0)] - 0.01).abs() < 1e-3);
/// assert!((back[(0, 1)] - 100.0).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelQuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl ChannelQuantizedMatrix {
    /// Quantizes a weight matrix with one symmetric scale per column.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] if any element is non-finite.
    pub fn quantize(weights: &Matrix) -> Result<Self> {
        let (rows, cols) = weights.shape();
        let mut scales = vec![0.0f32; cols];
        for c in 0..cols {
            let mut max_abs = 0.0f32;
            for r in 0..rows {
                let v = weights[(r, c)];
                if !v.is_finite() {
                    return Err(QuantError::InvalidRange { min: v, max: v });
                }
                max_abs = max_abs.max(v.abs());
            }
            // All-zero columns keep a scale of 1.0 (any value works).
            scales[c] = if max_abs == 0.0 {
                1.0
            } else {
                max_abs / QuantParams::QMAX as f32
            };
        }
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for (c, &scale) in scales.iter().enumerate() {
                let q = (weights[(r, c)] / scale).round();
                data.push(q.clamp(QuantParams::QMIN as f32, QuantParams::QMAX as f32) as i8);
            }
        }
        Ok(ChannelQuantizedMatrix {
            rows,
            cols,
            data,
            scales,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (output channels).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// One row of quantized weights.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Storage bytes of the quantized values.
    pub fn byte_size(&self) -> usize {
        self.data.len()
    }

    /// Recovers the real-valued matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(r, c)] = self.scales[c] * self.data[r * self.cols + c] as f32;
            }
        }
        out
    }

    /// Multiplies per-tensor-quantized activations by these per-channel
    /// weights, dequantizing to `f32`: the accumulator for column `j`
    /// carries scale `a.scale * scales[j]`.
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error if `a.cols() != self.rows()`.
    pub fn matmul_dequantized(&self, a: &crate::QuantizedMatrix) -> Result<Matrix> {
        if a.cols() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "per-channel matmul",
                lhs: a.shape(),
                rhs: (self.rows, self.cols),
            }
            .into());
        }
        let m = a.rows();
        let sa = a.params().scale();
        // The weights' zero point is 0 and the kernel centres the
        // activations itself, so its `Σ (qa - za) w` is already the
        // centred product. The same i32 contract as
        // `gemm::matmul_accumulate` applies.
        let za = crate::narrow::saturate_i32_to_i8(a.params().zero_point());
        let acc =
            hd_tensor::gemm::matmul_i8_i32(a.as_slice(), &self.data, m, self.rows, self.cols, za)?;
        let data: Vec<f32> = acc
            .iter()
            .enumerate()
            .map(|(idx, &v)| sa * self.scales[idx % self.cols] * v as f32)
            .collect();
        Matrix::from_vec(m, self.cols, data).map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantizedMatrix;
    use hd_tensor::rng::DetRng;
    use hd_tensor::{gemm, stats};

    /// A weight matrix whose columns span three orders of magnitude — the
    /// worst case for per-tensor quantization.
    fn skewed_weights(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = DetRng::new(seed);
        Matrix::from_fn(rows, cols, |_, c| {
            let magnitude = 10f32.powi((c % 4) as i32 - 2); // 0.01 .. 10
            magnitude * rng.next_normal()
        })
    }

    #[test]
    fn roundtrip_error_bounded_per_column() {
        let w = skewed_weights(32, 8, 1);
        let q = ChannelQuantizedMatrix::quantize(&w).unwrap();
        let back = q.dequantize();
        for c in 0..8 {
            let scale = q.scales()[c];
            for r in 0..32 {
                assert!(
                    (w[(r, c)] - back[(r, c)]).abs() <= scale / 2.0 + 1e-6,
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn per_channel_beats_per_tensor_on_skewed_columns() {
        let w = skewed_weights(64, 16, 2);
        // Per-tensor: one symmetric scale for everything.
        let pt = QuantizedMatrix::quantize(&w, QuantParams::symmetric(w.max_abs()).unwrap());
        let pt_back = pt.dequantize();
        // Per-channel.
        let pc = ChannelQuantizedMatrix::quantize(&w).unwrap();
        let pc_back = pc.dequantize();

        // Overall SQNR is dominated by the large columns, which both
        // schemes represent well; the per-channel win shows on the
        // *small-magnitude* columns, which per-tensor crushes into a few
        // integer levels. Compare the worst column.
        let mut worst_pt = f32::INFINITY;
        let mut worst_pc = f32::INFINITY;
        for c in 0..16 {
            let col_w = w.col(c).unwrap();
            let col_pt = pt_back.col(c).unwrap();
            let col_pc = pc_back.col(c).unwrap();
            worst_pt = worst_pt.min(stats::sqnr_db(&col_w, &col_pt));
            worst_pc = worst_pc.min(stats::sqnr_db(&col_w, &col_pc));
        }
        assert!(
            worst_pc > worst_pt + 20.0,
            "worst-column SQNR: per-channel {worst_pc} dB vs per-tensor {worst_pt} dB"
        );
    }

    #[test]
    fn matmul_tracks_float_product() {
        let mut rng = DetRng::new(3);
        let a_f = Matrix::random_uniform(5, 24, -1.0, 1.0, &mut rng);
        let w = skewed_weights(24, 6, 4);
        let a = QuantizedMatrix::quantize(&a_f, QuantParams::from_min_max(-1.0, 1.0).unwrap());
        let q = ChannelQuantizedMatrix::quantize(&w).unwrap();

        let exact = gemm::matmul(&a_f, &w).unwrap();
        let approx = q.matmul_dequantized(&a).unwrap();
        for c in 0..6 {
            // Column-wise relative error stays small despite the skew.
            let mut err = 0.0f32;
            let mut mag = 0.0f32;
            for r in 0..5 {
                err += (exact[(r, c)] - approx[(r, c)]).abs();
                mag += exact[(r, c)].abs();
            }
            assert!(err < 0.1 * mag + 0.05, "column {c}: err {err} vs mag {mag}");
        }
    }

    #[test]
    fn zero_column_handled() {
        let mut w = skewed_weights(4, 3, 5);
        for r in 0..4 {
            w[(r, 1)] = 0.0;
        }
        let q = ChannelQuantizedMatrix::quantize(&w).unwrap();
        let back = q.dequantize();
        for r in 0..4 {
            assert_eq!(back[(r, 1)], 0.0);
        }
    }

    #[test]
    fn non_finite_rejected() {
        let mut w = Matrix::zeros(2, 2);
        w[(0, 1)] = f32::NAN;
        assert!(ChannelQuantizedMatrix::quantize(&w).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let w = ChannelQuantizedMatrix::quantize(&Matrix::zeros(4, 2)).unwrap();
        let a =
            QuantizedMatrix::quantize(&Matrix::zeros(1, 5), QuantParams::symmetric(1.0).unwrap());
        assert!(w.matmul_dequantized(&a).is_err());
    }

    #[test]
    fn accessors() {
        let q = ChannelQuantizedMatrix::quantize(&Matrix::zeros(3, 4)).unwrap();
        assert_eq!(q.rows(), 3);
        assert_eq!(q.cols(), 4);
        assert_eq!(q.byte_size(), 12);
        assert_eq!(q.scales().len(), 4);
    }
}
