//! Quantized matrix multiplication with `i32` accumulators.
//!
//! This is the arithmetic of the reference quantized executor in
//! `wide-nn`, which the simulated device in `tpu-sim` runs as its own
//! datapath (the device adds only time), so the two are bit-identical by
//! construction.
//!
//! The affine algebra: with `a = sa (qa - za)` and `b = sb (qb - zb)`,
//!
//! ```text
//! sum_p a[i,p] b[p,j] = sa sb * sum_p (qa[i,p] - za)(qb[p,j] - zb)
//! ```
//!
//! so the integer kernel accumulates `(qa - za)(qb - zb)` in `i32` and the
//! combined scale `sa * sb` converts the accumulator to real values.
//!
//! # The `i32` accumulator contract
//!
//! Zero points lie in the `i8` range, so each centred factor
//! `(q - z)` lies in `[-255, 255]` and each centred product in
//! `[-255², 255²]`. The result is therefore exact in `i32` for any
//! operands and zero points while `k * 255² <= 2^31 - 1`, i.e.
//! `k <= 33_025` ([`MAX_DEPTH`]). The kernel folds the activation zero
//! point into its broadcast operand and returns `Σ (qa - za)·qb`, whose
//! products are at most `255 · 128 = 32_640` in magnitude, so that
//! intermediate is bounded by `k * 32_640`; the weight zero point then
//! costs one row correction `zb · Σ (qa - za)`, bounded by the same
//! `k * 32_640` (see [`matmul_accumulate`]). At [`MAX_DEPTH`] every
//! intermediate stays inside `i32`, so debug builds with overflow checks
//! pass at the bound. `wide_nn::compile` rejects any fully-connected
//! stage deeper than [`MAX_DEPTH`].

use hd_tensor::{Matrix, TensorError};

use crate::matrix::QuantizedMatrix;
use crate::params::QuantParams;
use crate::Result;

/// Deepest reduction dimension `k` for which [`matmul_accumulate`] is
/// exact in `i32` for every operand and zero point: the largest `k`
/// with `k * 255² <= 2^31 - 1` (see the module docs).
pub const MAX_DEPTH: usize = 33_025;

fn check(a: &QuantizedMatrix, b: &QuantizedMatrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "quantized matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        }
        .into());
    }
    Ok(())
}

/// Multiplies two quantized matrices, returning the raw `i32` accumulator
/// matrix and the combined accumulator scale.
///
/// `real[i][j] = acc_scale * acc[i][j]`.
///
/// # Errors
///
/// Returns a wrapped [`TensorError::ShapeMismatch`] if
/// `a.cols() != b.rows()`.
pub fn matmul_accumulate(a: &QuantizedMatrix, b: &QuantizedMatrix) -> Result<(Vec<i32>, f32)> {
    check(a, b)?;
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    let za = a.params().zero_point();
    let zb = b.params().zero_point();

    // The SIMD-dispatched kernel centres `a` itself and returns
    // `Σ_p (qa - za) qb`; the weight zero point is one row correction,
    //
    // ```text
    // sum_p (qa - za)(qb - zb) = sum_p (qa - za) qb - zb * sum_p (qa - za)
    // ```
    //
    // exact integer arithmetic, every intermediate included, for
    // `k <= MAX_DEPTH` (see the module docs). Narrowing `za` is exact:
    // `QuantParams` keeps zero points in the i8 range.
    let za_i8 = crate::narrow::saturate_i32_to_i8(za);
    let mut acc = hd_tensor::gemm::matmul_i8_i32(a.as_slice(), b.as_slice(), m, k, n, za_i8)?;
    if zb != 0 {
        for (i, out_row) in acc.chunks_mut(n.max(1)).enumerate() {
            let centred_sum: i32 = a.row(i).iter().map(|&q| i32::from(q) - za).sum();
            let row_corr = zb * centred_sum;
            for o in out_row {
                *o -= row_corr;
            }
        }
    }
    Ok((acc, a.params().scale() * b.params().scale()))
}

/// Multiplies two quantized matrices and dequantizes the result to `f32`.
///
/// # Errors
///
/// Returns a wrapped [`TensorError::ShapeMismatch`] if
/// `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use hd_quant::{gemm, QuantParams, QuantizedMatrix};
/// use hd_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = QuantizedMatrix::quantize(
///     &Matrix::from_rows(&[&[1.0, 0.5]])?,
///     QuantParams::from_min_max(-1.0, 1.0)?,
/// );
/// let b = QuantizedMatrix::quantize(
///     &Matrix::from_rows(&[&[1.0], &[1.0]])?,
///     QuantParams::symmetric(1.0)?,
/// );
/// let c = gemm::matmul_dequantized(&a, &b)?;
/// assert!((c[(0, 0)] - 1.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn matmul_dequantized(a: &QuantizedMatrix, b: &QuantizedMatrix) -> Result<Matrix> {
    let (acc, scale) = matmul_accumulate(a, b)?;
    let data: Vec<f32> = acc.iter().map(|&v| scale * v as f32).collect();
    Matrix::from_vec(a.rows(), b.cols(), data).map_err(Into::into)
}

/// Multiplies two quantized matrices and requantizes the result into
/// `out_params` — the full accelerator datapath for one layer.
///
/// # Errors
///
/// Returns a wrapped [`TensorError::ShapeMismatch`] if
/// `a.cols() != b.rows()`.
pub fn matmul_requantized(
    a: &QuantizedMatrix,
    b: &QuantizedMatrix,
    out_params: QuantParams,
) -> Result<QuantizedMatrix> {
    let (acc, scale) = matmul_accumulate(a, b)?;
    let data: Vec<i8> = acc
        .iter()
        .map(|&v| out_params.requantize_accumulator(v, scale))
        .collect();
    Ok(QuantizedMatrix::from_raw(
        a.rows(),
        b.cols(),
        data,
        out_params,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::gemm as fgemm;
    use hd_tensor::rng::DetRng;

    fn quantize_pair(
        m: usize,
        k: usize,
        n: usize,
        seed: u64,
    ) -> (Matrix, Matrix, QuantizedMatrix, QuantizedMatrix) {
        let mut rng = DetRng::new(seed);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let qa = QuantizedMatrix::quantize(&a, QuantParams::from_min_max(-1.0, 1.0).unwrap());
        let qb = QuantizedMatrix::quantize(&b, QuantParams::symmetric(1.0).unwrap());
        (a, b, qa, qb)
    }

    #[test]
    fn quantized_product_approximates_float_product() {
        let (a, b, qa, qb) = quantize_pair(6, 40, 5, 1);
        let exact = fgemm::matmul(&a, &b).unwrap();
        let approx = matmul_dequantized(&qa, &qb).unwrap();
        // Error per output element is ~ sqrt(k) * scale; k=40 and scale
        // ~1/127 gives a generous bound of 0.4.
        for (x, y) in exact.iter().zip(approx.iter()) {
            assert!((x - y).abs() < 0.4, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_point_correction_is_exact_for_representable_values() {
        // Values exactly representable under the chosen params: the
        // quantized product must match the float product exactly.
        let params_a = QuantParams::from_raw(0.5, 10).unwrap();
        let params_b = QuantParams::from_raw(0.25, 0).unwrap();
        let a = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap(); // multiples of 0.5
        let b = Matrix::from_rows(&[&[0.75], &[-0.5]]).unwrap(); // multiples of 0.25
        let qa = QuantizedMatrix::quantize(&a, params_a);
        let qb = QuantizedMatrix::quantize(&b, params_b);
        let c = matmul_dequantized(&qa, &qb).unwrap();
        assert_eq!(c[(0, 0)], 1.0 * 0.75 + (-2.0) * (-0.5));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let p = QuantParams::symmetric(1.0).unwrap();
        let a = QuantizedMatrix::from_raw(2, 3, vec![0; 6], p);
        let b = QuantizedMatrix::from_raw(2, 2, vec![0; 4], p);
        assert!(matmul_accumulate(&a, &b).is_err());
        assert!(matmul_dequantized(&a, &b).is_err());
        assert!(matmul_requantized(&a, &b, p).is_err());
    }

    #[test]
    fn requantized_output_uses_out_params() {
        let (_, _, qa, qb) = quantize_pair(3, 16, 3, 2);
        let out_params = QuantParams::from_min_max(-16.0, 16.0).unwrap();
        let rq = matmul_requantized(&qa, &qb, out_params).unwrap();
        assert_eq!(rq.params(), out_params);
        // Dequantized requantized result approximates the dequantized
        // accumulator result to within one output step.
        let full = matmul_dequantized(&qa, &qb).unwrap();
        let approx = rq.dequantize();
        for (x, y) in full.iter().zip(approx.iter()) {
            assert!((x - y).abs() <= out_params.scale() / 2.0 + 1e-5);
        }
    }

    /// The fused scalar kernel this module used before the SIMD reroute;
    /// kept as the ground-truth reference for the decomposition.
    fn fused_reference(a: &QuantizedMatrix, b: &QuantizedMatrix) -> Vec<i32> {
        let n = b.cols();
        let za = a.params().zero_point();
        let zb = b.params().zero_point();
        let mut acc = vec![0i32; a.rows() * n];
        for (i, out_row) in acc.chunks_mut(n.max(1)).enumerate() {
            for (p, &aq) in a.row(i).iter().enumerate() {
                let av = i32::from(aq) - za;
                for (o, &bq) in out_row.iter_mut().zip(b.row(p)) {
                    *o += av * (i32::from(bq) - zb);
                }
            }
        }
        acc
    }

    #[test]
    fn zero_point_decomposition_matches_fused_reference() {
        for (seed, m, k, n, za, zb) in [
            (10u64, 4usize, 33usize, 7usize, 10i32, -3i32),
            (11, 1, 1, 1, -128, 127),
            (12, 6, 64, 16, 0, 5),
            (13, 3, 17, 2, 7, 0),
            (14, 5, 100, 9, 0, 0),
        ] {
            let mut rng = DetRng::new(seed);
            let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
            let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
            let qa = QuantizedMatrix::quantize(&a, QuantParams::from_raw(0.01, za).unwrap());
            let qb = QuantizedMatrix::quantize(&b, QuantParams::from_raw(0.01, zb).unwrap());
            let (acc, _) = matmul_accumulate(&qa, &qb).unwrap();
            assert_eq!(acc, fused_reference(&qa, &qb), "seed {seed}");
        }
    }

    /// Every intermediate of the zero-point decomposition must stay inside
    /// `i32` at `MAX_DEPTH` (the test profile checks overflow), and the
    /// result must equal the exact `i64` sum. The four corners put each
    /// centred factor at ±255; the folded kernel's own intermediate
    /// `Σ (qa - za)·qb` and the row correction `zb·Σ (qa - za)` are pinned
    /// too, and together reach the stated `k * 32_640` bound.
    #[test]
    fn accumulator_is_exact_at_max_depth_with_extreme_operands() {
        let k = MAX_DEPTH;
        let mut largest_intermediate = 0i64;
        for (qa, za, qb, zb) in [
            (-128i8, 127, 127i8, -128),
            (127, -128, 127, -128),
            (-128, 127, -128, 127),
            (127, -128, -128, 127),
        ] {
            let pa = QuantParams::from_raw(0.01, za).unwrap();
            let pb = QuantParams::from_raw(0.01, zb).unwrap();
            let a = QuantizedMatrix::from_raw(2, k, vec![qa; 2 * k], pa);
            let b = QuantizedMatrix::from_raw(k, 3, vec![qb; 3 * k], pb);
            let centred_a = i64::from(qa) - i64::from(za);
            let centred = centred_a * (i64::from(qb) - i64::from(zb));
            assert_eq!(centred.abs(), 255 * 255);
            let exact = i32::try_from(k as i64 * centred).unwrap();
            assert_eq!(matmul_accumulate(&a, &b).unwrap().0, vec![exact; 6]);

            // The folded kernel's output and the row correction, each
            // exact in i32 and within k * 32_640.
            let folded = k as i64 * centred_a * i64::from(qb);
            let za_i8 = i8::try_from(za).unwrap();
            let kernel =
                hd_tensor::gemm::matmul_i8_i32(a.as_slice(), b.as_slice(), 2, k, 3, za_i8).unwrap();
            assert_eq!(kernel, vec![i32::try_from(folded).unwrap(); 6]);
            let correction = i64::from(zb) * k as i64 * centred_a;
            assert_eq!(folded - correction, k as i64 * centred);
            for term in [folded, correction] {
                assert!(term.abs() <= k as i64 * 32_640);
                largest_intermediate = largest_intermediate.max(term.abs());
            }
        }
        assert_eq!(largest_intermediate, k as i64 * 32_640);
    }

    #[test]
    fn accumulator_is_deterministic() {
        let (_, _, qa, qb) = quantize_pair(4, 20, 4, 3);
        let (acc1, s1) = matmul_accumulate(&qa, &qb).unwrap();
        let (acc2, s2) = matmul_accumulate(&qa, &qb).unwrap();
        assert_eq!(acc1, acc2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn zero_lhs_row_gives_zero_outputs() {
        let pa = QuantParams::from_raw(1.0, 0).unwrap();
        let a = QuantizedMatrix::from_raw(1, 3, vec![0, 0, 0], pa);
        let b = QuantizedMatrix::from_raw(3, 2, vec![1, 2, 3, 4, 5, 6], pa);
        let (acc, _) = matmul_accumulate(&a, &b).unwrap();
        assert_eq!(acc, vec![0, 0]);
    }
}
