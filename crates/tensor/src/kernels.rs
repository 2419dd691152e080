//! Kernel-selection switches and per-thread kernel counters.
//!
//! The packed-bipolar and SIMD int8 kernels are drop-in replacements for
//! scalar math, so nothing in an experiment's *output* reveals which
//! kernel actually ran. This module makes the selection observable: every
//! kernel entry point bumps a monotone counter of the *calling thread*,
//! and callers (the execution backends, the serving pipeline) wrap a
//! workload in [`counted`] on the thread that runs it to attribute kernel
//! activity in the `BackendLedger` or `ServeReport`. The counters are
//! thread-local, so two workloads running at the same time — parallel
//! tests, or a server scoring while a pipeline trains — never count each
//! other's calls. Every `note_*` hook runs on the calling thread before
//! any row-band fan-out, so a kernel call is counted exactly once, on the
//! thread that made it.
//!
//! It also owns the SIMD escape hatch: [`set_simd_enabled`] (wired to the
//! CLI's `--no-simd` flag) and the `HD_NO_SIMD` environment variable both
//! force the portable fallback, which is how the equivalence suite pins
//! the non-SIMD path on machines where AVX2 would otherwise be selected.
//! Unlike the counters, this switch is process-wide; the variable is
//! read once, at the first kernel dispatch.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// This thread's monotone kernel counters.
    static COUNTERS: Cell<KernelStats> = const { Cell::new(KernelStats::ZERO) };
}

/// Process-wide SIMD kill switch; `true` forces the portable kernels.
static SIMD_DISABLED: AtomicBool = AtomicBool::new(false);

/// Serializes tests that toggle the process-wide SIMD switch so they
/// cannot race each other inside one test binary.
#[cfg(test)]
pub(crate) static TEST_SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Snapshot of one thread's kernel counters; subtract two snapshots
/// (see [`KernelStats::delta_since`]) to attribute activity to one
/// workload on that thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Rows scored through the packed XOR+popcount class scan.
    pub packed_score_rows: u64,
    /// `i8` GEMM calls dispatched to the SIMD kernel.
    pub simd_gemm_calls: u64,
    /// `i8` GEMM calls dispatched to the portable fallback kernel.
    pub portable_gemm_calls: u64,
    /// Packed words accumulated by the vertical-counter bundler.
    pub bundle_words: u64,
}

impl KernelStats {
    const ZERO: KernelStats = KernelStats {
        packed_score_rows: 0,
        simd_gemm_calls: 0,
        portable_gemm_calls: 0,
        bundle_words: 0,
    };

    /// Counter increments since `earlier` (saturating, so a stale
    /// snapshot can never underflow).
    #[must_use]
    pub fn delta_since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            packed_score_rows: self
                .packed_score_rows
                .saturating_sub(earlier.packed_score_rows),
            simd_gemm_calls: self.simd_gemm_calls.saturating_sub(earlier.simd_gemm_calls),
            portable_gemm_calls: self
                .portable_gemm_calls
                .saturating_sub(earlier.portable_gemm_calls),
            bundle_words: self.bundle_words.saturating_sub(earlier.bundle_words),
        }
    }
}

impl std::ops::AddAssign for KernelStats {
    fn add_assign(&mut self, other: KernelStats) {
        self.packed_score_rows += other.packed_score_rows;
        self.simd_gemm_calls += other.simd_gemm_calls;
        self.portable_gemm_calls += other.portable_gemm_calls;
        self.bundle_words += other.bundle_words;
    }
}

/// This thread's kernel counters: every kernel call made on the calling
/// thread since it started, and nothing any other thread ran.
pub fn stats() -> KernelStats {
    COUNTERS.with(Cell::get)
}

/// Runs `f` on the calling thread and returns its result together with
/// the kernel activity it caused there.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, KernelStats) {
    let before = stats();
    let out = f();
    (out, stats().delta_since(&before))
}

fn bump(update: impl FnOnce(&mut KernelStats)) {
    COUNTERS.with(|cell| {
        let mut counters = cell.get();
        update(&mut counters);
        cell.set(counters);
    });
}

pub(crate) fn note_packed_score(rows: usize) {
    bump(|c| c.packed_score_rows += rows as u64);
}

pub(crate) fn note_simd_gemm() {
    bump(|c| c.simd_gemm_calls += 1);
}

pub(crate) fn note_portable_gemm() {
    bump(|c| c.portable_gemm_calls += 1);
}

pub(crate) fn note_bundle_word(words: usize) {
    bump(|c| c.bundle_words += words as u64);
}

/// Enables or disables the SIMD kernels process-wide; `false` forces the
/// portable fallback (the CLI's `--no-simd` escape hatch).
pub fn set_simd_enabled(enabled: bool) {
    SIMD_DISABLED.store(!enabled, Ordering::Relaxed);
}

/// Whether SIMD kernels are permitted right now: not disabled via
/// [`set_simd_enabled`] and not vetoed by the `HD_NO_SIMD` environment
/// variable, which is read once per process. Target-feature detection
/// happens separately at the dispatch site; this is only the policy half.
pub fn simd_permitted() -> bool {
    static ENV_VETO: OnceLock<bool> = OnceLock::new();
    let vetoed = *ENV_VETO
        .get_or_init(|| std::env::var_os("HD_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0"));
    !vetoed && !SIMD_DISABLED.load(Ordering::Relaxed)
}

/// Name of the `i8` GEMM kernel the dispatcher would select right now.
pub fn i8_gemm_kernel_name() -> &'static str {
    crate::gemm::selected_i8_kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_saturating_and_monotone() {
        let before = stats();
        note_packed_score(3);
        note_bundle_word(5);
        let after = stats();
        let delta = after.delta_since(&before);
        assert_eq!(delta.packed_score_rows, 3);
        assert_eq!(delta.bundle_words, 5);
        // A stale (future) snapshot saturates to zero instead of wrapping.
        assert_eq!(before.delta_since(&after).packed_score_rows, 0);
    }

    #[test]
    fn counters_are_per_thread() {
        let ((), delta) = counted(|| {
            std::thread::scope(|s| {
                s.spawn(note_simd_gemm);
            });
            note_portable_gemm();
        });
        // The spawned thread's call lands in its own counters only.
        assert_eq!(delta.simd_gemm_calls, 0);
        assert_eq!(delta.portable_gemm_calls, 1);
    }

    #[test]
    fn simd_switch_round_trips() {
        let _guard = TEST_SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_simd_enabled(false);
        assert!(!simd_permitted());
        set_simd_enabled(true);
        // HD_NO_SIMD may veto in the environment; only assert the switch
        // itself no longer blocks.
        if std::env::var_os("HD_NO_SIMD").is_none() {
            assert!(simd_permitted());
        }
    }
}
