//! Bit-exactness of every fast host kernel against its scalar
//! reference: packed bipolar dot/Hamming scoring and vertical-counter
//! bundling vs their per-component scans, the runtime-dispatched `i8`
//! GEMM (input zero point folded in) vs the naive triple loop and an
//! independent `i64` model, and the dispatched `f32` GEMM vs its naive
//! reference on non-finite operands — including with SIMD forced off, so
//! the portable fallback is held to the same contract as the vectorized
//! kernel. Dimensions are drawn to cover `d % 64 != 0` tail words, the
//! packed representation's main edge case, and the GEMM's 4-row tiles,
//! 16-column panels and odd depths.

use proptest::prelude::*;

use hd_tensor::packed::{
    dot_reference, majority_bundle, majority_bundle_reference, PackedBipolar,
    PackedClassHypervectors,
};
use hd_tensor::rng::DetRng;
use hd_tensor::{gemm, kernels, ops, Matrix};

fn sign_vec(rng: &mut DetRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.next_f32() < 0.5 { -1.0 } else { 1.0 })
        .collect()
}

fn i8_vec(rng: &mut DetRng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| i8::try_from(rng.next_index(255) as i64 - 127).unwrap())
        .collect()
}

/// Operands over the full `i8` range, `-128` included.
fn full_range_i8_vec(rng: &mut DetRng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| i8::try_from(rng.next_index(256) as i64 - 128).unwrap())
        .collect()
}

/// An independent `i64` model of the folded kernel's contract:
/// `out[i,j] = Σ_p (a[i,p] - za) · b[p,j]`.
fn folded_reference_i64(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, za: i8) -> Vec<i64> {
    let mut out = Vec::with_capacity(m * n);
    for row in a.chunks(k.max(1)).take(m) {
        for j in 0..n {
            let column = b.iter().skip(j).step_by(n);
            let sum: i64 = row
                .iter()
                .zip(column)
                .map(|(&qa, &qb)| (i64::from(qa) - i64::from(za)) * i64::from(qb))
                .sum();
            out.push(sum);
        }
    }
    out
}

/// Depths the folded-GEMM property draws from: `k` = 1, 2, 3, a random
/// odd depth, and the isolet feature count 617.
fn pick_depth(sel: usize, odd_half: usize) -> usize {
    [1, 2, 3, 2 * odd_half + 1, 617][sel]
}

/// Widths around the 16-column panel, the 26-class scorer and `d` = 2048.
const WIDTHS: [usize; 7] = [1, 15, 16, 17, 26, 33, 2048];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_dot_and_hamming_match_scalar_reference(seed in 0u64..5000, dim in 1usize..400) {
        let mut rng = DetRng::new(seed);
        let a = PackedBipolar::from_signs(&sign_vec(&mut rng, dim));
        let b = PackedBipolar::from_signs(&sign_vec(&mut rng, dim));
        let dot = a.dot(&b).unwrap();
        prop_assert_eq!(dot, dot_reference(&a, &b).unwrap());
        // d = dot + 2·hamming ties the two kernels together exactly.
        prop_assert_eq!(dot, dim as i64 - 2 * i64::from(a.hamming(&b).unwrap()));
    }

    #[test]
    fn packed_batch_scoring_matches_f32_gemm_argmax(
        seed in 0u64..5000,
        dim in 1usize..200,
        classes in 1usize..8,
        rows in 1usize..12,
    ) {
        let mut rng = DetRng::new(seed);
        let query_rows: Vec<Vec<f32>> = (0..rows).map(|_| sign_vec(&mut rng, dim)).collect();
        let class_cols: Vec<Vec<f32>> = (0..classes).map(|_| sign_vec(&mut rng, dim)).collect();

        let encoded =
            Matrix::from_rows(&query_rows.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
        let class_matrix = Matrix::from_fn(dim, classes, |i, j| class_cols[j][i]);
        let scores = gemm::matmul(&encoded, &class_matrix).unwrap();
        let scalar: Vec<usize> = (0..scores.rows())
            .map(|r| ops::argmax(scores.row(r)).unwrap())
            .collect();

        let packed_classes = PackedClassHypervectors::from_sign_rows(
            &class_cols.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        )
        .unwrap();
        let queries: Vec<PackedBipolar> = query_rows
            .iter()
            .map(|r| PackedBipolar::from_signs(r))
            .collect();
        let before = kernels::stats();
        let packed = packed_classes.predict_batch(&queries).unwrap();
        prop_assert_eq!(packed, scalar);
        // The dispatch is observable: this thread's packed kernel counter
        // moved by exactly this batch (other threads count their own).
        let after = kernels::stats();
        prop_assert_eq!(after.packed_score_rows, before.packed_score_rows + rows as u64);
    }

    #[test]
    fn vertical_counter_bundle_matches_scalar_majority(
        seed in 0u64..5000,
        dim in 1usize..300,
        members in 1usize..34,
    ) {
        let mut rng = DetRng::new(seed);
        let vectors: Vec<PackedBipolar> = (0..members)
            .map(|_| PackedBipolar::from_signs(&sign_vec(&mut rng, dim)))
            .collect();
        prop_assert_eq!(
            majority_bundle(&vectors).unwrap(),
            majority_bundle_reference(&vectors).unwrap()
        );
    }

    #[test]
    fn dispatched_i8_gemm_matches_naive_reference(
        seed in 0u64..5000,
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..48,
    ) {
        let mut rng = DetRng::new(seed);
        let a = i8_vec(&mut rng, m * k);
        let b = i8_vec(&mut rng, k * n);
        prop_assert_eq!(
            gemm::matmul_i8_i32(&a, &b, m, k, n, 0).unwrap(),
            gemm::matmul_i8_i32_reference(&a, &b, m, k, n, 0).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The folded kernel, SIMD on or forced off, against the `i64` model
    /// for random and extreme input zero points.
    #[test]
    fn folded_i8_gemm_matches_i64_reference(
        seed in 0u64..5000,
        m in 1usize..10,
        (k_sel, odd_half) in (0usize..5, 2usize..40),
        n_sel in 0usize..7,
        (za_sel, za_random) in (0usize..4, any::<i8>()),
        portable in any::<bool>(),
    ) {
        let (k, n) = (pick_depth(k_sel, odd_half), WIDTHS[n_sel]);
        let za = [za_random, i8::MIN, i8::MAX, 0][za_sel];
        let mut rng = DetRng::new(seed);
        let a = full_range_i8_vec(&mut rng, m * k);
        let b = full_range_i8_vec(&mut rng, k * n);
        if portable {
            kernels::set_simd_enabled(false);
        }
        let got = gemm::matmul_i8_i32(&a, &b, m, k, n, za);
        kernels::set_simd_enabled(true);
        let got: Vec<i64> = got.unwrap().into_iter().map(i64::from).collect();
        prop_assert_eq!(got, folded_reference_i64(&a, &b, m, k, n, za));
    }
}

/// Forcing SIMD off mid-process must reroute to the portable kernel and
/// stay bit-exact. (`HD_NO_SIMD=1` takes the same switch at startup; CI
/// additionally runs this whole suite under it.)
#[test]
fn i8_gemm_with_simd_forced_off_stays_bit_exact() {
    let mut rng = DetRng::new(7);
    let (m, k, n) = (17usize, 33usize, 129usize);
    let a = i8_vec(&mut rng, m * k);
    let b = i8_vec(&mut rng, k * n);
    let dispatched = gemm::matmul_i8_i32(&a, &b, m, k, n, 0).unwrap();
    kernels::set_simd_enabled(false);
    let portable_name = kernels::i8_gemm_kernel_name().to_string();
    let portable = gemm::matmul_i8_i32(&a, &b, m, k, n, 0);
    kernels::set_simd_enabled(true);
    assert_eq!(portable_name, "portable");
    assert_eq!(dispatched, portable.unwrap());
    assert_eq!(
        dispatched,
        gemm::matmul_i8_i32_reference(&a, &b, m, k, n, 0).unwrap()
    );
}

/// The `f32` GEMM's one contract holds on non-finite input too: with
/// zeros in `a` and infinities and NaNs in `b`, the dispatched kernel and
/// the forced-portable kernel give the reference's bits in every finite
/// cell and a NaN wherever the reference has one (`0 · inf` included, so
/// no kernel may skip a zero factor).
#[test]
fn f32_gemm_with_zeros_and_non_finite_operands_matches_reference() {
    let mut rng = DetRng::new(31);
    for (m, k, n) in [(1, 1, 1), (5, 7, 17), (9, 33, 26), (4, 16, 16), (3, 65, 33)] {
        let mut a = Matrix::random_normal(m, k, &mut rng);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let mut b = Matrix::random_normal(k, n, &mut rng);
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            match i % 11 {
                0 => *v = f32::INFINITY,
                4 => *v = f32::NEG_INFINITY,
                8 => *v = f32::NAN,
                _ => {}
            }
        }
        let reference = gemm::matmul_reference(&a, &b).unwrap();
        let dispatched = gemm::matmul(&a, &b).unwrap();
        kernels::set_simd_enabled(false);
        let portable = gemm::matmul(&a, &b);
        kernels::set_simd_enabled(true);
        let portable = portable.unwrap();
        assert!(
            reference.iter().any(|v| v.is_nan()),
            "({m},{k},{n}) has no NaN cell"
        );
        for (kernel, got) in [("dispatched", &dispatched), ("portable", &portable)] {
            for (cell, (g, r)) in got.iter().zip(reference.iter()).enumerate() {
                if r.is_nan() {
                    assert!(g.is_nan(), "({m},{k},{n}) {kernel} cell {cell}: {g} vs NaN");
                } else {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "({m},{k},{n}) {kernel} cell {cell}: {g} vs {r}"
                    );
                }
            }
        }
    }
}

/// The specific tail widths around the 64-lane word boundary, pinned
/// deterministically on top of the randomized sweep above.
#[test]
fn word_boundary_tail_dims_score_exactly() {
    let mut rng = DetRng::new(11);
    for dim in [1usize, 63, 64, 65, 127, 128, 130, 1000, 7623] {
        let a_vals = sign_vec(&mut rng, dim);
        let b_vals = sign_vec(&mut rng, dim);
        let a = PackedBipolar::from_signs(&a_vals);
        let b = PackedBipolar::from_signs(&b_vals);
        assert_eq!(
            a.dot(&b).unwrap(),
            dot_reference(&a, &b).unwrap(),
            "dim {dim}"
        );
        let scalar_dot: f32 = a_vals.iter().zip(&b_vals).map(|(x, y)| x * y).sum();
        assert_eq!(a.dot(&b).unwrap(), scalar_dot as i64, "dim {dim}");
    }
}

/// Kernel attribution is per thread: a CPU training run beside a thread
/// that keeps calling the int8 GEMM must record exactly the ledger of a
/// solo run, kernel counters included.
#[test]
fn concurrent_gemm_traffic_does_not_leak_into_a_backend_ledger() {
    use hyperedge::{ExecutionSetting, Pipeline, PipelineConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut rng = DetRng::new(23);
    let classes = 3;
    let labels: Vec<usize> = (0..60).map(|i| i % classes).collect();
    let mut features = Matrix::random_normal(60, 12, &mut rng);
    for (i, &l) in labels.iter().enumerate() {
        features.row_mut(i)[l] += 2.0;
    }
    let train = || {
        let pipeline = Pipeline::new(PipelineConfig::new(256).with_iterations(3).with_seed(5));
        let outcome = pipeline
            .train(&features, &labels, classes, ExecutionSetting::CpuBaseline)
            .unwrap();
        pipeline
            .infer(&outcome.model, &features, ExecutionSetting::CpuBaseline)
            .unwrap();
        pipeline.backend(ExecutionSetting::CpuBaseline).ledger()
    };

    let solo = train();
    let stop = AtomicBool::new(false);
    let (beside, noise_calls) = std::thread::scope(|s| {
        let noise = s.spawn(|| {
            let a = i8_vec(&mut DetRng::new(1), 8 * 32);
            let b = i8_vec(&mut DetRng::new(2), 32 * 16);
            let mut calls = 0u64;
            while calls == 0 || !stop.load(Ordering::Relaxed) {
                gemm::matmul_i8_i32(&a, &b, 8, 32, 16, 0).unwrap();
                calls += 1;
            }
            calls
        });
        let ledger = train();
        stop.store(true, Ordering::Relaxed);
        (ledger, noise.join().unwrap())
    });
    assert!(noise_calls > 0);
    assert_eq!(beside, solo);
}
