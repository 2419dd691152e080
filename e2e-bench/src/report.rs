//! Metric records, summary statistics, provenance and a small JSON writer.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `q`-quantile of `samples` (linear interpolation between closest
/// ranks); NaN for an empty sample.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of `samples`; 0 for an empty sample (used for per-operation
/// counts, where "no operation" means "nothing counted").
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[must_use]
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times `f`, returning its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Where a result came from.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub git_rev: String,
    pub source_hash: String,
    pub nproc: usize,
    pub i8_kernel: &'static str,
    pub seed: u64,
    pub scale: &'static str,
}

impl Provenance {
    /// Collects provenance for a run over the sources under `root`.
    #[must_use]
    pub fn collect(root: &Path, seed: u64, smoke: bool) -> Self {
        Provenance {
            git_rev: git_rev(root),
            source_hash: source_hash(root),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            i8_kernel: hd_tensor::kernels::i8_gemm_kernel_name(),
            seed,
            scale: if smoke { "smoke" } else { "full" },
        }
    }

    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": {}, \"source_hash\": {}, \"nproc\": {}, \"i8_kernel\": {}, \
             \"seed\": {}, \"scale\": {}}}",
            json_str(&self.git_rev),
            json_str(&self.source_hash),
            self.nproc,
            json_str(self.i8_kernel),
            self.seed,
            json_str(self.scale)
        )
    }
}

/// `git rev-parse HEAD` when `root` is a git checkout, or a marker when it
/// is not (the source hash still identifies the sources). Without the
/// `.git` check, git would report an enclosing repository's revision.
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unavailable".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a over the relative path and bytes of every library source file
/// (`crates/`, `compat/`, the root manifest and lock file), in sorted
/// order: identifies the measured program without git.
fn source_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "compat"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv1a64:{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; `null` for a non-finite value.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(0.125), "0.125");
        assert_eq!(json_num(f64::NAN), "null");
        let m = [metric("x", 1.5, "ms")];
        assert_eq!(
            metrics_json(&m),
            "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }
}
