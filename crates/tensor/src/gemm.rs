//! Blocked, optionally multi-threaded matrix multiplication.
//!
//! HDC encoding is "indeed a vector–matrix multiplication that is ready to
//! accelerate on most hardware accelerators" (paper, Section III-A); on the
//! host CPU baseline it is a plain SGEMM. This module provides a cache
//! blocked `f32` kernel, the `i8 x i8 -> i32` kernel behind every int8
//! product in the workspace (the quantized executor and the simulated
//! device compute through it), and a row-parallel driver — a two-stage
//! SDF schedule (plan → rows) executed through the generic runtime in
//! [`hd_dataflow::runtime`].
//!
//! Two kinds of time are reported for this work, and they are kept
//! apart. The *analytic* runtime models in the `cpu-model` and `tpu-sim`
//! crates reproduce the paper's timing figures as simulated seconds and
//! never look at this kernel's speed. Its real wall-clock speed is
//! measured by `fig_kernels` (`BENCH_kernels.json`) per kernel and shape,
//! and by the end-to-end benchmark (`e2e-bench`), whose train and serve
//! wall times are dominated by it.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use hd_dataflow::runtime::{self, Binding, ExecutablePlan, Fire};
use hd_dataflow::{Resource, SdfGraph};

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::Result;

/// Cache-block edge length used by the inner kernel.
const BLOCK: usize = 64;

/// Process-wide worker-thread cap set via [`set_thread_cap`]; `0` means
/// uncapped (use every hardware thread).
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Minimum per-thread work (in output elements) before threads are spawned.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

fn check_compatible(a: &Matrix, b: &Matrix, op: &'static str) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// Multiplies `a (m x k)` by `b (k x n)`, producing an `m x n` matrix.
///
/// Uses a blocked kernel, and splits rows across threads when the output is
/// large enough to amortize thread startup.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use hd_tensor::{Matrix, gemm};
/// # fn main() -> Result<(), hd_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0]])?;
/// let b = Matrix::from_rows(&[&[3.0], &[4.0]])?;
/// let c = gemm::matmul(&a, &b)?;
/// assert_eq!(c[(0, 0)], 11.0);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_compatible(a, b, "matmul")?;
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out)?;
    Ok(out)
}

/// Multiplies `a` by `b`, writing into the caller-provided `out` matrix to
/// reuse its allocation across training iterations.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the operand shapes are
/// incompatible or `out` has the wrong shape.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    check_compatible(a, b, "matmul_into")?;
    if out.shape() != (a.rows(), b.cols()) {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_into (output)",
            lhs: out.shape(),
            rhs: (a.rows(), b.cols()),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    out.as_mut_slice().fill(0.0);

    let work = m.saturating_mul(n);
    let threads = available_threads();
    if work >= PARALLEL_THRESHOLD && threads > 1 && m > 1 {
        parallel_rows(a, b, out, threads);
    } else {
        block_kernel(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
    }
    Ok(())
}

/// Vector–matrix product `x (1 x k) * b (k x n)`, returning a length-`n`
/// vector. This is the per-sample encoding step `E = F x B`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != b.rows()`.
pub fn matvec(x: &[f32], b: &Matrix) -> Result<Vec<f32>> {
    if x.len() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matvec",
            lhs: (1, x.len()),
            rhs: b.shape(),
        });
    }
    let n = b.cols();
    let mut out = vec![0.0f32; n];
    // Row-major b: accumulate row-by-row, which is sequential in memory.
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = b.row(i);
        for (o, &bv) in out.iter_mut().zip(row) {
            *o += xi * bv;
        }
    }
    Ok(out)
}

/// Caps the number of worker threads the parallel kernels may use; `0`
/// clears the cap. `1` forces the exact sequential kernel, which callers
/// use to pin bit-exact reproductions and to keep wall-clock measurements
/// of *other* parallelism (e.g. per-member training threads) honest.
pub fn set_thread_cap(threads: usize) {
    THREAD_CAP.store(threads, Ordering::Relaxed);
}

/// The worker-thread budget currently in effect: hardware parallelism,
/// clamped by [`set_thread_cap`] and by the `HD_THREADS` environment
/// variable (when set to a positive integer).
///
/// The hardware count and `HD_THREADS` are read once per process:
/// `available_parallelism` reads cgroup files, which costs more than a
/// small GEMM, and every GEMM call asks for the budget.
pub fn available_threads() -> usize {
    static STARTUP_BUDGET: OnceLock<usize> = OnceLock::new();
    let mut threads = *STARTUP_BUDGET.get_or_init(|| {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::var("HD_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .map_or(hardware, |env_cap| hardware.min(env_cap))
    });
    let cap = THREAD_CAP.load(Ordering::Relaxed);
    if cap > 0 {
        threads = threads.min(cap);
    }
    threads.max(1)
}

/// One row-band of the output, paired with the matching band of `a`.
struct RowJob<'a> {
    a: &'a [f32],
    out: &'a mut [f32],
    rows: usize,
}

fn parallel_rows(a: &Matrix, b: &Matrix, out: &mut Matrix, threads: usize) {
    let (m, k) = a.shape();
    let n = b.cols();
    let rows_per_chunk = m.div_ceil(threads).max(1);
    let a_data = a.as_slice();
    let b_data = b.as_slice();

    // Carve the output into disjoint row bands up front; the plan stage
    // hands one band per firing to the worker-pooled rows stage.
    let mut jobs = Vec::new();
    let mut remaining = out.as_mut_slice();
    let mut row_start = 0;
    while row_start < m {
        let rows_here = rows_per_chunk.min(m - row_start);
        let (chunk, rest) = remaining.split_at_mut(rows_here * n);
        remaining = rest;
        jobs.push(RowJob {
            a: &a_data[row_start * k..(row_start + rows_here) * k],
            out: chunk,
            rows: rows_here,
        });
        row_start += rows_here;
    }

    let bands = jobs.len();
    let mut graph = SdfGraph::new("gemm-rows");
    let plan = graph.add_stage("plan", Resource::Host, 0.0);
    let rows = graph.add_stage("rows", Resource::Host, 0.0);
    graph.add_channel(plan, rows, bands, 1, Some(bands));
    let plan = ExecutablePlan::validate(graph).expect("gemm row schedule is statically valid");

    let mut jobs = Some(jobs);
    let bindings: Vec<Binding<'_, RowJob<'_>, Infallible>> = vec![
        Binding::Map(Box::new(move |_, _| {
            Ok((jobs.take().unwrap_or_default(), Fire::Continue))
        })),
        Binding::ParMap {
            workers: threads,
            f: Box::new(move |_, mut inputs| {
                let job = inputs.pop().expect("one row band per firing");
                block_kernel(job.a, b_data, job.out, job.rows, k, n);
                Ok(Vec::new())
            }),
        },
    ];
    runtime::run(&plan, 1, bindings).expect("gemm row schedule cannot fail");
}

/// The serial blocked kernel: `out (m x n) += a (m x k) * b (k x n)`.
///
/// `out` must be zeroed by the caller. Iteration order is (i, p, j) within
/// blocks so the innermost loop streams both `b` and `out` rows.
fn block_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for ib in (0..m).step_by(BLOCK) {
        let i_end = (ib + BLOCK).min(m);
        for pb in (0..k).step_by(BLOCK) {
            let p_end = (pb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * n + jb..i * n + j_end];
                    for p in pb..p_end {
                        let av = a_row[p];
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[p * n + jb..p * n + j_end];
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Checks the slice lengths for an `m x k` by `k x n` int8 product.
fn check_i8_shapes(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Result<()> {
    if a.len() != m.saturating_mul(k) {
        return Err(TensorError::LengthMismatch {
            expected: m * k,
            actual: a.len(),
        });
    }
    if b.len() != k.saturating_mul(n) {
        return Err(TensorError::LengthMismatch {
            expected: k * n,
            actual: b.len(),
        });
    }
    Ok(())
}

/// Whether the SIMD `i8` kernel would be selected right now: policy
/// (`set_simd_enabled` / `HD_NO_SIMD`) plus runtime feature detection.
fn i8_simd_selected() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        crate::kernels::simd_permitted() && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// Name of the `i8` GEMM kernel the dispatcher would select right now
/// (`"avx2"` or `"portable"`). Exposed via
/// [`crate::kernels::i8_gemm_kernel_name`].
pub(crate) fn selected_i8_kernel() -> &'static str {
    if i8_simd_selected() {
        "avx2"
    } else {
        "portable"
    }
}

/// Blocked `i8 x i8 -> i32` GEMM with the left operand's zero point
/// folded in: multiplies row-major `a (m x k)`, centred by `za`, by
/// `b (k x n)` and returns the `m x n` matrix
/// `out[i,j] = Σ_p (a[i,p] - za) · b[p,j]` as a flat vector. `za = 0`
/// gives the raw product.
///
/// Dispatches to a runtime-detected AVX2 kernel when permitted (see
/// [`crate::kernels::set_simd_enabled`] and the `HD_NO_SIMD` variable)
/// and to a portable kernel otherwise; both are bit-exact with
/// [`matmul_i8_i32_reference`]. Large products split into row bands
/// across worker threads under the same [`set_thread_cap`] /
/// `HD_THREADS` budget as the `f32` kernel.
///
/// The caller owns overflow. A centred factor `a - za` lies in
/// `[-255, 255]`, so every product lies in `[-32_640, 32_640]`
/// (`255 · 128`) and the `i32` result is exact for any operands and
/// zero point while `k * 32_640 <= 2^31 - 1`, i.e. `k <= 65_793`. With
/// `za = 0` every product lies in `[-16_256, 16_384]` and the bound
/// relaxes to `k <= 131_071`. Callers that also centre `b`
/// (`hd_quant::gemm`) need a tighter depth bound, which they state and
/// enforce themselves.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length does not
/// match its declared shape.
pub fn matmul_i8_i32(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, za: i8) -> Result<Vec<i32>> {
    check_i8_shapes(a, b, m, k, n)?;
    let mut out = vec![0i32; m.saturating_mul(n)];
    let use_simd = i8_simd_selected();
    if use_simd {
        crate::kernels::note_simd_gemm();
    } else {
        crate::kernels::note_portable_gemm();
    }
    let shape = I8Shape { k, n, za, use_simd };
    let threads = available_threads();
    if m.saturating_mul(n) >= PARALLEL_THRESHOLD && threads > 1 && m > 1 {
        parallel_rows_i8(a, b, &mut out, m, shape, threads);
    } else {
        shape.band(a, b, &mut out, m);
    }
    Ok(out)
}

/// Reference (naive triple-loop) `i8` multiplication used by the
/// equivalence suites to pin [`matmul_i8_i32`] bit-exact; same contract,
/// `za` included.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length does not
/// match its declared shape.
pub fn matmul_i8_i32_reference(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    za: i8,
) -> Result<Vec<i32>> {
    check_i8_shapes(a, b, m, k, n)?;
    let mut out = vec![0i32; m.saturating_mul(n)];
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0i32;
            for p in 0..k {
                sum += (i32::from(a[i * k + p]) - i32::from(za)) * i32::from(b[p * n + j]);
            }
            out[i * n + j] = sum;
        }
    }
    Ok(out)
}

/// Everything about one `i8` product but the rows of `a` a band holds.
#[derive(Clone, Copy)]
struct I8Shape {
    k: usize,
    n: usize,
    za: i8,
    use_simd: bool,
}

impl I8Shape {
    /// Serial band kernel: `out (m x n) = (a - za) (m x k) * b (k x n)`
    /// through the AVX2 or portable implementation. `out` must be zeroed
    /// by the caller.
    fn band(self, a: &[i8], b: &[i8], out: &mut [i32], m: usize) {
        let I8Shape { k, n, za, use_simd } = self;
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if use_simd {
            // SAFETY: `use_simd` is only true after the dispatcher observed
            // `is_x86_feature_detected!("avx2")`; slice bounds are checked by
            // `check_i8_shapes` and the band carving in `parallel_rows_i8`.
            #[allow(unsafe_code)]
            unsafe {
                simd::gemm_i8_avx2(a, b, out, m, k, n, za)
            };
            return;
        }
        let _ = use_simd;
        i8_portable_kernel(a, b, out, m, k, n, za);
    }
}

/// One row-band of an `i8` product.
struct RowJobI8<'a> {
    a: &'a [i8],
    out: &'a mut [i32],
    rows: usize,
}

/// Row-band parallel driver for the `i8` kernel: the same two-stage SDF
/// schedule (plan -> rows) as the `f32` path, executed through the
/// generic runtime.
fn parallel_rows_i8(a: &[i8], b: &[i8], out: &mut [i32], m: usize, shape: I8Shape, threads: usize) {
    let (k, n) = (shape.k, shape.n);
    let rows_per_chunk = m.div_ceil(threads).max(1);
    let mut jobs = Vec::new();
    let mut remaining = out;
    let mut row_start = 0;
    while row_start < m {
        let rows_here = rows_per_chunk.min(m - row_start);
        let (chunk, rest) = remaining.split_at_mut(rows_here * n);
        remaining = rest;
        jobs.push(RowJobI8 {
            a: &a[row_start * k..(row_start + rows_here) * k],
            out: chunk,
            rows: rows_here,
        });
        row_start += rows_here;
    }

    let bands = jobs.len();
    let mut graph = SdfGraph::new("gemm-i8-rows");
    let plan = graph.add_stage("plan", Resource::Host, 0.0);
    let rows = graph.add_stage("rows", Resource::Host, 0.0);
    graph.add_channel(plan, rows, bands, 1, Some(bands));
    let plan = ExecutablePlan::validate(graph).expect("gemm row schedule is statically valid");

    let mut jobs = Some(jobs);
    let bindings: Vec<Binding<'_, RowJobI8<'_>, Infallible>> = vec![
        Binding::Map(Box::new(move |_, _| {
            Ok((jobs.take().unwrap_or_default(), Fire::Continue))
        })),
        Binding::ParMap {
            workers: threads,
            f: Box::new(move |_, mut inputs| {
                let job = inputs.pop().expect("one row band per firing");
                shape.band(job.a, b, job.out, job.rows);
                Ok(Vec::new())
            }),
        },
    ];
    runtime::run(&plan, 1, bindings).expect("gemm row schedule cannot fail");
}

/// Portable blocked `i8` kernel: (i, p, j) loops with `i32` accumulation,
/// written so the inner `j` loop is a flat multiply-add stream LLVM can
/// autovectorize on any target. Rows whose centred factor `a - za` is
/// zero are skipped.
fn i8_portable_kernel(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize, za: i8) {
    let za = i32::from(za);
    for ib in (0..m).step_by(BLOCK) {
        let i_end = (ib + BLOCK).min(m);
        for pb in (0..k).step_by(BLOCK) {
            let p_end = (pb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * n + jb..i * n + j_end];
                    for p in pb..p_end {
                        let av = i32::from(a_row[p]) - za;
                        if av == 0 {
                            continue;
                        }
                        let b_row = &b[p * n + jb..p * n + j_end];
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += av * i32::from(bv);
                        }
                    }
                }
            }
        }
    }
}

/// The AVX2 `i8` kernel: a register-blocked microkernel. Isolated in its
/// own module so the crate-level `deny(unsafe_code)` stays intact
/// everywhere else; this is the only unsafe code in the workspace's
/// algorithm crates, and it is compiled out under Miri.
///
/// Rows of `a` go in blocks of 64. Within a block the outer loop walks
/// 64-column slabs of `b`. Each slab is first copied into a per-call
/// scratch buffer as one contiguous run of k-pairs per 16-column panel,
/// rows `p` and `p + 1` interleaved byte by byte
/// (`_mm_unpack{lo,hi}_epi8`). Then, panel by panel, the inner loop walks
/// 4-row groups of `a` over that copy. A 4 x 16 output tile lives in
/// eight `i32` accumulators for the whole reduction, so `out` is written
/// once per element and never read. Each step loads one k-pair of the
/// panel, sign-extends it to `i16` and multiplies it by
/// `_mm256_madd_epi16` against the broadcast centred pair
/// `(a[i,p] - za, a[i,p+1] - za)`, which adds the two products into one
/// `i32` lane. A centred factor lies in `[-255, 255]` and fits `i16`;
/// each product is at most `255 · 128 = 32_640` in magnitude and each
/// pair sum at most `65_280`, so `madd` is exact and the lane sums are
/// exact under the caller's depth bound (`k * 32_640 <= 2^31 - 1`).
///
/// The copy reads `b` once per row block; the 4-row groups then stream
/// each panel contiguously from L1. Reading the panels in place, at the
/// row stride and once per 4-row group, made the kernel's speed depend on
/// where `b` happened to land in the caches, which differed from one
/// process to the next. The copy also zero-pads an odd `k` and the
/// columns past `n`, so every shape takes this one path. The scratch
/// lives for one call: no packed copy of the weights outlives it.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod simd {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Output columns per panel: one 16-byte load of a `b` row.
    const PANEL: usize = 16;
    /// Panels per slab: one 64-byte cache line of a `b` row.
    const SLAB_PANELS: usize = 4;
    /// Rows of `a` per register tile.
    const TILE_ROWS: usize = 4;
    /// Rows of `a` centred and paired at a time, which bounds the
    /// kernel's scratch to `ROW_BLOCK * k * 2` bytes however tall `a` is.
    const ROW_BLOCK: usize = 64;

    /// `out (m x n) = (a - za) (m x k) * b (k x n)`. `out` must be zeroed
    /// by the caller: an empty product leaves it untouched.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 is available and that slice lengths
    /// match the declared shapes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_i8_avx2(
        a: &[i8],
        b: &[i8],
        out: &mut [i32],
        m: usize,
        k: usize,
        n: usize,
        za: i8,
    ) {
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        // A panel is kp interleaved k-pairs of 2 x PANEL bytes.
        let kp = k.div_ceil(2);
        let panel_len = kp * 2 * PANEL;
        let mut slab = vec![0i8; n.div_ceil(PANEL).min(SLAB_PANELS) * panel_len];
        let mut pairs = Vec::with_capacity(ROW_BLOCK.min(m) * kp);
        for (a, out) in a.chunks(ROW_BLOCK * k).zip(out.chunks_mut(ROW_BLOCK * n)) {
            let m = out.len() / n;
            centred_pairs(a, k, za, &mut pairs);
            for j0 in (0..n).step_by(SLAB_PANELS * PANEL) {
                let cols = (n - j0).min(SLAB_PANELS * PANEL);
                // SAFETY: AVX2 is available, columns j0 .. j0 + cols exist
                // in every row of `b`, and `slab` holds a panel for every
                // 16 of them.
                unsafe { pack_slab(b, k, n, j0, cols, &mut slab) };
                for (packed, c) in slab.chunks_exact(panel_len).zip((0..cols).step_by(PANEL)) {
                    let width = (cols - c).min(PANEL);
                    for i in (0..m).step_by(TILE_ROWS) {
                        let rows = (m - i).min(TILE_ROWS);
                        let pairs = &pairs[i * kp..(i + rows) * kp];
                        let out = &mut out[i * n + j0 + c..];
                        // SAFETY: AVX2 is available, `packed` holds the kp
                        // k-pairs of this panel, and each of the `rows`
                        // rows of `out` has `width` lanes from j0 + c.
                        unsafe {
                            match rows {
                                4 => tile::<4>(pairs, kp, packed, out, n, width),
                                3 => tile::<3>(pairs, kp, packed, out, n, width),
                                2 => tile::<2>(pairs, kp, packed, out, n, width),
                                _ => tile::<1>(pairs, kp, packed, out, n, width),
                            }
                        }
                    }
                }
            }
        }
    }

    /// Centres each `k`-wide row of `a` by `za` and packs it into `pairs`
    /// as `i16` pairs, one `i32` per k-pair: `a[i,p] - za` in the low
    /// half, `a[i,p+1] - za` in the high half, and `0` past an odd `k`.
    /// This is the broadcast operand of `madd`.
    fn centred_pairs(a: &[i8], k: usize, za: i8, pairs: &mut Vec<i32>) {
        let za = i32::from(za);
        pairs.clear();
        for row in a.chunks_exact(k) {
            for pair in row.chunks(2) {
                let lo = i32::from(pair[0]) - za;
                let hi = pair.get(1).map_or(0, |&q| i32::from(q) - za);
                pairs.push((lo & 0xFFFF) | (hi << 16));
            }
        }
    }

    /// Copies columns `j0 .. j0 + cols` of `b` into `slab`, one panel of
    /// k-pairs per 16 columns: pair `q` of a panel starting at column `j`
    /// is the 32 bytes `b[2q, j], b[2q+1, j], b[2q, j+1], ...`, zero past
    /// `cols` and past an odd `k`.
    ///
    /// # Safety
    ///
    /// AVX2 is available; `b` holds `k x n` bytes, `j0 + cols <= n`, and
    /// `slab` holds `cols.div_ceil(PANEL)` panels of
    /// `k.div_ceil(2) * 2 * PANEL` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_slab(b: &[i8], k: usize, n: usize, j0: usize, cols: usize, slab: &mut [i8]) {
        let kp = k.div_ceil(2);
        let panel_len = kp * 2 * PANEL;
        assert!(j0 + cols <= n && slab.len() >= cols.div_ceil(PANEL) * panel_len);
        for (packed, j) in slab
            .chunks_exact_mut(panel_len)
            .zip((j0..j0 + cols).step_by(PANEL))
        {
            let width = (j0 + cols - j).min(PANEL);
            let mut mask = [0i8; PANEL];
            mask[..width].fill(-1);
            // SAFETY: `mask` holds PANEL = 16 bytes.
            let keep = unsafe { _mm_loadu_si128(mask.as_ptr().cast()) };
            // Columns j .. j + width of row p, zero past `width`.
            let row = |p: usize| -> __m128i {
                if p >= k {
                    return _mm_setzero_si128();
                }
                let start = p * n + j;
                if start + PANEL <= b.len() {
                    // SAFETY: b[start .. start + PANEL] is in bounds; the
                    // bytes past `width` are masked off.
                    let lanes = unsafe { _mm_loadu_si128(b.as_ptr().add(start).cast()) };
                    return _mm_and_si128(lanes, keep);
                }
                // The last row of `b` may hold fewer than PANEL bytes from
                // column j on.
                let mut lanes = [0i8; PANEL];
                lanes[..width].copy_from_slice(&b[start..start + width]);
                // SAFETY: `lanes` holds PANEL = 16 bytes.
                unsafe { _mm_loadu_si128(lanes.as_ptr().cast()) }
            };
            for q in 0..kp {
                let (r0, r1) = (row(2 * q), row(2 * q + 1));
                // SAFETY: k-pair q spans bytes 32q .. 32q + 32 of
                // `packed`, which holds kp of them.
                unsafe {
                    let dst = packed.as_mut_ptr().add(q * 2 * PANEL);
                    _mm_storeu_si128(dst.cast(), _mm_unpacklo_epi8(r0, r1));
                    _mm_storeu_si128(dst.add(PANEL).cast(), _mm_unpackhi_epi8(r0, r1));
                }
            }
        }
    }

    /// An `R x 16` register tile: accumulates the whole reduction in
    /// `2 R` `i32` vectors, then stores the first `width` columns of each
    /// row.
    ///
    /// # Safety
    ///
    /// AVX2 is available; `pairs` holds `R` rows of `kp` centred pairs,
    /// `packed` holds `kp` k-pairs of one panel, and every row `r < R` of
    /// `out` has `width <= PANEL` writable lanes at `r * ldo`.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize>(
        pairs: &[i32],
        kp: usize,
        packed: &[i8],
        out: &mut [i32],
        ldo: usize,
        width: usize,
    ) {
        assert!(pairs.len() >= R * kp && packed.len() >= kp * 2 * PANEL);
        let mut acc = [[_mm256_setzero_si256(); 2]; R];
        for q in 0..kp {
            // SAFETY: k-pair q spans bytes 32q .. 32q + 32 of `packed`,
            // and r * kp + q < R * kp <= pairs.len(), both asserted above.
            unsafe {
                let pair = packed.as_ptr().add(q * 2 * PANEL);
                let lo = _mm256_cvtepi8_epi16(_mm_loadu_si128(pair.cast()));
                let hi = _mm256_cvtepi8_epi16(_mm_loadu_si128(pair.add(PANEL).cast()));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let va = _mm256_set1_epi32(*pairs.get_unchecked(r * kp + q));
                    acc_r[0] = _mm256_add_epi32(acc_r[0], _mm256_madd_epi16(va, lo));
                    acc_r[1] = _mm256_add_epi32(acc_r[1], _mm256_madd_epi16(va, hi));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let row = &mut out[r * ldo..];
            let mut lanes = [0i32; PANEL];
            // SAFETY: `lanes` holds PANEL = 2 x 8 lanes.
            unsafe {
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc_r[0]);
                _mm256_storeu_si256(lanes.as_mut_ptr().add(8).cast(), acc_r[1]);
            }
            row[..width].copy_from_slice(&lanes[..width]);
        }
    }
}

/// Reference (naive triple-loop) multiplication used by tests to validate
/// the blocked/parallel kernels.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_compatible(a, b, "matmul_reference")?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0;
            for p in 0..k {
                sum += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = sum;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = DetRng::new(1);
        let a = Matrix::random_normal(5, 5, &mut rng);
        let c = matmul(&a, &Matrix::identity(5)).unwrap();
        assert_close(&c, &a, 0.0);
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn blocked_matches_reference_non_square() {
        let mut rng = DetRng::new(2);
        let a = Matrix::random_normal(17, 93, &mut rng);
        let b = Matrix::random_normal(93, 41, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert_close(&fast, &slow, 1e-3);
    }

    #[test]
    fn parallel_path_matches_reference() {
        // Large enough to cross PARALLEL_THRESHOLD.
        let mut rng = DetRng::new(3);
        let a = Matrix::random_normal(192, 80, &mut rng);
        let b = Matrix::random_normal(80, 512, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert_close(&fast, &slow, 1e-3);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(2, 3);
        assert!(matmul_into(&a, &b, &mut out).is_err());
    }

    #[test]
    fn matmul_into_overwrites_previous_contents() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 2.0);
        let mut out = Matrix::filled(2, 2, 99.0);
        matmul_into(&a, &b, &mut out).unwrap();
        assert_close(&out, &b, 0.0);
    }

    #[test]
    fn matvec_matches_matmul_row() {
        let mut rng = DetRng::new(4);
        let b = Matrix::random_normal(30, 17, &mut rng);
        let x = Matrix::random_normal(1, 30, &mut rng);
        let via_matmul = matmul(&x, &b).unwrap();
        let via_matvec = matvec(x.row(0), &b).unwrap();
        for (a, b) in via_matmul.row(0).iter().zip(&via_matvec) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_rejects_mismatch() {
        let b = Matrix::zeros(3, 2);
        assert!(matvec(&[1.0, 2.0], &b).is_err());
    }

    #[test]
    fn matvec_skips_zero_inputs() {
        let b = Matrix::from_rows(&[&[1.0], &[f32::NAN]]).unwrap();
        // The zero coefficient must not propagate the NaN row.
        let out = matvec(&[1.0, 0.0], &b).unwrap();
        assert_eq!(out, vec![1.0]);
    }

    #[test]
    fn multiply_by_zero_matrix_is_zero() {
        let mut rng = DetRng::new(5);
        let a = Matrix::random_normal(8, 8, &mut rng);
        let z = Matrix::zeros(8, 8);
        let c = matmul(&a, &z).unwrap();
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn one_by_one_product() {
        let a = Matrix::from_vec(1, 1, vec![3.0]).unwrap();
        let b = Matrix::from_vec(1, 1, vec![4.0]).unwrap();
        assert_eq!(matmul(&a, &b).unwrap()[(0, 0)], 12.0);
    }

    #[test]
    fn thread_cap_clamps_and_clears() {
        set_thread_cap(1);
        assert_eq!(available_threads(), 1);
        // A parallel-sized product must stay correct on the forced
        // sequential path.
        let mut rng = DetRng::new(7);
        let a = Matrix::random_normal(192, 80, &mut rng);
        let b = Matrix::random_normal(80, 512, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert_close(&fast, &slow, 1e-3);
        set_thread_cap(0);
        assert!(available_threads() >= 1);
    }

    fn random_i8(len: usize, rng: &mut DetRng) -> Vec<i8> {
        (0..len)
            .map(|_| (rng.next_normal() * 50.0).clamp(-127.0, 127.0) as i8)
            .collect()
    }

    #[test]
    fn i8_gemm_matches_reference_all_kernels() {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut rng = DetRng::new(8);
        // Shapes cross the 4-row tile, the 64-row block, the 16-column
        // panel (full, padded and both), the 64-column slab (full, and a
        // second one that is one column or a partial panel wide) and
        // odd/even depths.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (17, 93, 41),
            (64, 64, 64),
            (3, 5, 65),
            (6, 11, 100),
            (5, 40, 33),
            (9, 617, 26),
            (4, 2, 16),
            (70, 9, 20),
            (2, 0, 3),
        ] {
            for za in [0i8, 37, -128, 127] {
                let a = random_i8(m * k, &mut rng);
                let b = random_i8(k * n, &mut rng);
                let slow = matmul_i8_i32_reference(&a, &b, m, k, n, za).unwrap();
                let fast = matmul_i8_i32(&a, &b, m, k, n, za).unwrap();
                assert_eq!(fast, slow, "({m},{k},{n}) za {za} selected kernel");
                // Force the portable kernel and re-check bit-exactness.
                crate::kernels::set_simd_enabled(false);
                let portable = matmul_i8_i32(&a, &b, m, k, n, za).unwrap();
                crate::kernels::set_simd_enabled(true);
                assert_eq!(portable, slow, "({m},{k},{n}) za {za} portable kernel");
            }
        }
    }

    #[test]
    fn i8_gemm_parallel_path_matches_reference() {
        let mut rng = DetRng::new(9);
        let (m, k, n) = (192, 80, 512);
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        for za in [0i8, -5] {
            let slow = matmul_i8_i32_reference(&a, &b, m, k, n, za).unwrap();
            let fast = matmul_i8_i32(&a, &b, m, k, n, za).unwrap();
            assert_eq!(fast, slow, "za {za}");
        }
    }

    #[test]
    fn i8_gemm_rejects_bad_lengths() {
        assert!(matmul_i8_i32(&[0; 5], &[0; 6], 2, 3, 2, 0).is_err());
        assert!(matmul_i8_i32(&[0; 6], &[0; 5], 2, 3, 2, 0).is_err());
        assert!(matmul_i8_i32_reference(&[0; 5], &[0; 6], 2, 3, 2, 0).is_err());
    }

    #[test]
    fn i8_gemm_extreme_values_do_not_overflow_within_contract() {
        // At the documented depth bound every product is the extreme
        // 2^14 and the sum lands just under i32::MAX (overflow-checked in
        // debug builds).
        let k = 131_071;
        let a = vec![-128i8; k];
        let b = vec![-128i8; k];
        let out = matmul_i8_i32(&a, &b, 1, k, 1, 0).unwrap();
        assert_eq!(i64::from(out[0]), 16_384 * k as i64);
    }

    #[test]
    fn i8_gemm_folded_extremes_are_exact_at_the_depth_bound() {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // k = 65_793 is the largest depth with k * 32_640 <= i32::MAX.
        // Each corner makes every centred product +-32_640, so the sum
        // sits at the rail; the portable run is overflow-checked in
        // debug builds.
        let k = 65_793;
        for (qa, za, qb) in [(-128i8, 127i8, -128i8), (127, -128, -128), (-128, 127, 127)] {
            let a = vec![qa; 2 * k];
            let b = vec![qb; 17 * k];
            let centred = (i64::from(qa) - i64::from(za)) * i64::from(qb);
            assert!(centred.abs() >= 255 * 127);
            let exact = vec![i32::try_from(k as i64 * centred).unwrap(); 2 * 17];
            assert_eq!(matmul_i8_i32(&a, &b, 2, k, 17, za).unwrap(), exact);
            crate::kernels::set_simd_enabled(false);
            let portable = matmul_i8_i32(&a, &b, 2, k, 17, za);
            crate::kernels::set_simd_enabled(true);
            assert_eq!(portable.unwrap(), exact, "({qa}, {za}, {qb}) portable");
        }
    }

    #[test]
    fn i8_kernel_name_is_reported() {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let name = selected_i8_kernel();
        assert!(name == "avx2" || name == "portable");
        crate::kernels::set_simd_enabled(false);
        assert_eq!(selected_i8_kernel(), "portable");
        crate::kernels::set_simd_enabled(true);
    }

    #[test]
    fn block_boundary_sizes() {
        // Sizes straddling the 64-wide block boundary.
        for &(m, k, n) in &[(63, 65, 64), (64, 64, 64), (65, 63, 66), (1, 128, 1)] {
            let mut rng = DetRng::new(6);
            let a = Matrix::random_normal(m, k, &mut rng);
            let b = Matrix::random_normal(k, n, &mut rng);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_reference(&a, &b).unwrap();
            assert_close(&fast, &slow, 1e-3);
        }
    }
}
