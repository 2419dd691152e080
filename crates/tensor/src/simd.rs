//! The AVX2 host kernels: register-blocked `i8` and `f32` GEMM
//! microkernels and the interleaved multi-row `f32` dot product. This is
//! the crate's only `unsafe` module (the crate-level `deny(unsafe_code)`
//! stays intact everywhere else), and it is compiled out under Miri.
//!
//! Every kernel here computes exactly what its portable counterpart
//! computes, bit for bit: [`gemm_i8_avx2`] matches
//! `gemm::matmul_i8_i32_reference`, [`gemm_f32_avx2`] matches
//! `gemm::matmul_reference` and [`dots_avx2`] matches `ops::dot` row by
//! row. The dispatchers in `gemm` and `ops` call them only after
//! `kernels::simd_selected` observed AVX2 and the SIMD switch.
//!
//! The `f32` kernels round every product and every sum exactly where the
//! scalar loops do: they multiply with `mulps` and then add with `addps`,
//! never with a fused multiply-add, and each accumulator lane sums its
//! products in the scalar loop's order.
//!
//! **`i8` GEMM.** Rows of `a` go in blocks of 64. Within a block the
//! outer loop walks 64-column slabs of `b`. Each slab is first copied into
//! a per-call scratch buffer as one contiguous run of k-pairs per
//! 16-column panel, rows `p` and `p + 1` interleaved byte by byte
//! (`_mm_unpack{lo,hi}_epi8`). Then, panel by panel, the inner loop walks
//! 4-row groups of `a` over that copy. A 4 x 16 output tile lives in
//! eight `i32` accumulators for the whole reduction, so `out` is written
//! once per element and never read. Each step loads one k-pair of the
//! panel, sign-extends it to `i16` and multiplies it by
//! `_mm256_madd_epi16` against the broadcast centred pair
//! `(a[i,p] - za, a[i,p+1] - za)`, which adds the two products into one
//! `i32` lane. A centred factor lies in `[-255, 255]` and fits `i16`;
//! each product is at most `255 · 128 = 32_640` in magnitude and each
//! pair sum at most `65_280`, so `madd` is exact and the lane sums are
//! exact under the caller's depth bound (`k * 32_640 <= 2^31 - 1`).
//!
//! The copy reads `b` once per row block; the 4-row groups then stream
//! each panel contiguously from L1. Reading the panels in place, at the
//! row stride and once per 4-row group, made the kernel's speed depend on
//! where `b` happened to land in the caches, which differed from one
//! process to the next. The copy also zero-pads an odd `k` and the
//! columns past `n`, so every shape takes this one path. The scratch
//! lives for one call: no packed copy of the weights outlives it.
//!
//! **`f32` GEMM.** The same shape without the k-pairs: each 16-column
//! panel of `b` is copied into a `k x 16` scratch, zero past `n`, and
//! 4-row groups of `a` walk it with a 4 x 16 tile in eight `__m256`
//! accumulators. Each step broadcasts `a[i,p]`, multiplies it by row `p`
//! of the panel and adds the product, so `out[i,j]` is
//! `((0 + a[i,0]·b[0,j]) + a[i,1]·b[1,j]) + …` in ascending `p`: the
//! reference's sum, term for term.
//!
//! **Multi-row dot.** `ops::dot` keeps four running sums, lane `l` adding
//! the products at indices `≡ l (mod 4)` in order, then reduces them as
//! `((l0 + l1) + l2) + l3` and adds the tail. One `__m128` per row is
//! exactly that accumulator. Eight rows share each load of `x`, so eight
//! independent add chains run at once instead of one.

#![allow(unsafe_code)]

#[allow(clippy::wildcard_imports)]
use std::arch::x86_64::*;

/// Output columns per panel: one 16-byte load of an `i8` row of `b`, two
/// `__m256` of an `f32` row.
const PANEL: usize = 16;
/// `i8` panels per slab: one 64-byte cache line of a `b` row.
const SLAB_PANELS: usize = 4;
/// Rows of `a` per register tile.
const TILE_ROWS: usize = 4;
/// Rows of `a` centred and paired at a time, which bounds the `i8`
/// kernel's scratch to `ROW_BLOCK * k * 2` bytes however tall `a` is.
const ROW_BLOCK: usize = 64;
/// Rows scored per pass over `x` by [`dots_avx2`].
const DOT_ROWS: usize = 8;

/// `out (m x n) = (a - za) (m x k) * b (k x n)`. `out` must be zeroed by
/// the caller: an empty product leaves it untouched.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and that slice lengths match
/// the declared shapes.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gemm_i8_avx2(
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
            // SAFETY: AVX2 is available, columns j0 .. j0 + cols exist in
            // every row of `b`, and `slab` holds a panel for every 16 of
            // them.
            unsafe { pack_slab(b, k, n, j0, cols, &mut slab) };
            for (packed, c) in slab.chunks_exact(panel_len).zip((0..cols).step_by(PANEL)) {
                let width = (cols - c).min(PANEL);
                for i in (0..m).step_by(TILE_ROWS) {
                    let rows = (m - i).min(TILE_ROWS);
                    let pairs = &pairs[i * kp..(i + rows) * kp];
                    let out = &mut out[i * n + j0 + c..];
                    // SAFETY: AVX2 is available, `packed` holds the kp
                    // k-pairs of this panel, and each of the `rows` rows
                    // of `out` has `width` lanes from j0 + c.
                    unsafe {
                        match rows {
                            4 => tile_i8::<4>(pairs, kp, packed, out, n, width),
                            3 => tile_i8::<3>(pairs, kp, packed, out, n, width),
                            2 => tile_i8::<2>(pairs, kp, packed, out, n, width),
                            _ => tile_i8::<1>(pairs, kp, packed, out, n, width),
                        }
                    }
                }
            }
        }
    }
}

/// Centres each `k`-wide row of `a` by `za` and packs it into `pairs` as
/// `i16` pairs, one `i32` per k-pair: `a[i,p] - za` in the low half,
/// `a[i,p+1] - za` in the high half, and `0` past an odd `k`. This is the
/// broadcast operand of `madd`.
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
/// k-pairs per 16 columns: pair `q` of a panel starting at column `j` is
/// the 32 bytes `b[2q, j], b[2q+1, j], b[2q, j+1], ...`, zero past `cols`
/// and past an odd `k`.
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
                // SAFETY: b[start .. start + PANEL] is in bounds; the bytes
                // past `width` are masked off.
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
            // SAFETY: k-pair q spans bytes 32q .. 32q + 32 of `packed`,
            // which holds kp of them.
            unsafe {
                let dst = packed.as_mut_ptr().add(q * 2 * PANEL);
                _mm_storeu_si128(dst.cast(), _mm_unpacklo_epi8(r0, r1));
                _mm_storeu_si128(dst.add(PANEL).cast(), _mm_unpackhi_epi8(r0, r1));
            }
        }
    }
}

/// An `R x 16` `i32` register tile: accumulates the whole reduction in
/// `2 R` vectors, then stores the first `width` columns of each row.
///
/// # Safety
///
/// AVX2 is available; `pairs` holds `R` rows of `kp` centred pairs,
/// `packed` holds `kp` k-pairs of one panel, and every row `r < R` of
/// `out` has `width <= PANEL` writable lanes at `r * ldo`.
#[target_feature(enable = "avx2")]
unsafe fn tile_i8<const R: usize>(
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
        // SAFETY: k-pair q spans bytes 32q .. 32q + 32 of `packed`, and
        // r * kp + q < R * kp <= pairs.len(), both asserted above.
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

/// `out (m x n) = a (m x k) * b (k x n)` in `f32`, every element summed
/// in ascending `p` from `+0.0`. `out` must be zeroed by the caller: an
/// empty product leaves it untouched.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and that slice lengths match
/// the declared shapes.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gemm_f32_avx2(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let mut panel = vec![0.0f32; k * PANEL];
    for j in (0..n).step_by(PANEL) {
        let width = (n - j).min(PANEL);
        for (dst, src) in panel.chunks_exact_mut(PANEL).zip(b.chunks_exact(n)) {
            dst[..width].copy_from_slice(&src[j..j + width]);
            dst[width..].fill(0.0);
        }
        for i in (0..m).step_by(TILE_ROWS) {
            let rows = (m - i).min(TILE_ROWS);
            let a = &a[i * k..(i + rows) * k];
            let out = &mut out[i * n + j..];
            // SAFETY: AVX2 is available, `panel` holds k rows of PANEL
            // columns, `a` holds `rows` rows of `k`, and each of the
            // `rows` rows of `out` has `width` lanes from column j.
            unsafe {
                match rows {
                    4 => tile_f32::<4>(a, k, &panel, out, n, width),
                    3 => tile_f32::<3>(a, k, &panel, out, n, width),
                    2 => tile_f32::<2>(a, k, &panel, out, n, width),
                    _ => tile_f32::<1>(a, k, &panel, out, n, width),
                }
            }
        }
    }
}

/// An `R x 16` `f32` register tile: accumulates the whole reduction in
/// `2 R` vectors, then stores the first `width` columns of each row.
///
/// # Safety
///
/// AVX2 is available; `a` holds `R` rows of `k`, `panel` holds `k` rows
/// of PANEL columns, and every row `r < R` of `out` has `width <= PANEL`
/// writable lanes at `r * ldo`.
#[target_feature(enable = "avx2")]
unsafe fn tile_f32<const R: usize>(
    a: &[f32],
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    ldo: usize,
    width: usize,
) {
    assert!(a.len() >= R * k && panel.len() >= k * PANEL);
    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    for p in 0..k {
        // SAFETY: row p of the panel spans floats 16p .. 16p + 16 of
        // `panel`, and r * k + p < R * k <= a.len(), both asserted above.
        unsafe {
            let row = panel.as_ptr().add(p * PANEL);
            let lo = _mm256_loadu_ps(row);
            let hi = _mm256_loadu_ps(row.add(8));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*a.get_unchecked(r * k + p));
                acc_r[0] = _mm256_add_ps(acc_r[0], _mm256_mul_ps(va, lo));
                acc_r[1] = _mm256_add_ps(acc_r[1], _mm256_mul_ps(va, hi));
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let row = &mut out[r * ldo..];
        let mut lanes = [0.0f32; PANEL];
        // SAFETY: `lanes` holds PANEL = 2 x 8 lanes.
        unsafe {
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc_r[0]);
            _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc_r[1]);
        }
        row[..width].copy_from_slice(&lanes[..width]);
    }
}

/// `out[r] = ops::dot(x, rows[r])` for every row, bit for bit.
///
/// # Panics
///
/// Panics if `out` does not hold one value per row or a row's length
/// differs from `x`'s.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dots_avx2<R: AsRef<[f32]>>(x: &[f32], rows: &[R], out: &mut [f32]) {
    assert_eq!(rows.len(), out.len());
    for (block, out) in rows.chunks(DOT_ROWS).zip(out.chunks_mut(DOT_ROWS)) {
        // A short last block repeats its last row: an 8-row pass over `x`
        // costs no more than a shorter one, which waits on its add chains.
        let last = block.len() - 1;
        let block: [&[f32]; DOT_ROWS] = std::array::from_fn(|r| block[r.min(last)].as_ref());
        // SAFETY: AVX2 is available.
        let sums = unsafe { dot_tile(x, &block) };
        out.copy_from_slice(&sums[..out.len()]);
    }
}

/// Dot products of `x` with `DOT_ROWS` rows at once, each with
/// `ops::dot`'s four lanes and reduction order.
///
/// # Safety
///
/// AVX2 is available. Lengths are checked here.
#[target_feature(enable = "avx2")]
unsafe fn dot_tile(x: &[f32], rows: &[&[f32]; DOT_ROWS]) -> [f32; DOT_ROWS] {
    assert!(rows.iter().all(|row| row.len() == x.len()));
    let chunks = x.len() / 4;
    let mut acc = [_mm_setzero_ps(); DOT_ROWS];
    for c in 0..chunks {
        // SAFETY: floats 4c .. 4c + 4 exist in `x` and, asserted above,
        // in every row.
        unsafe {
            let xv = _mm_loadu_ps(x.as_ptr().add(4 * c));
            for (acc, row) in acc.iter_mut().zip(rows) {
                let rv = _mm_loadu_ps(row.as_ptr().add(4 * c));
                *acc = _mm_add_ps(*acc, _mm_mul_ps(xv, rv));
            }
        }
    }
    std::array::from_fn(|r| {
        let mut lanes = [0.0f32; 4];
        // SAFETY: `lanes` holds 4 floats.
        unsafe { _mm_storeu_ps(lanes.as_mut_ptr(), acc[r]) };
        let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for (xi, ri) in x[chunks * 4..].iter().zip(&rows[r][chunks * 4..]) {
            sum += xi * ri;
        }
        sum
    })
}
