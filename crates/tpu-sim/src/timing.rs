//! Analytic timing formulas shared by the functional device and the
//! paper-scale benchmark harness.
//!
//! The accuracy experiments execute reduced-size workloads functionally,
//! but the *runtime* figures (paper Figs. 5, 6, 8, 9, 10 and Table II) are
//! computed from these closed-form models at the paper's full scale — the
//! same separation the paper itself relies on when normalizing runtimes.
//! [`Device::invoke`](crate::Device::invoke) takes its compute cycles
//! from [`stage_costs`], so the device and the estimates agree by
//! construction; a unit test still pins the two paths to equality.

use serde::{Deserialize, Serialize};

use wide_nn::{CompiledModel, QuantizedModel};

use crate::config::DeviceConfig;
use crate::systolic::SystolicArray;

/// Shape summary of a model: everything the timing model needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelDims {
    /// Feature width consumed per sample.
    pub input_dim: usize,
    /// `(k, n)` of each fully-connected layer, in order.
    pub fc_layers: Vec<(usize, usize)>,
    /// Output width of each activation (LUT) layer, in order.
    pub lut_widths: Vec<usize>,
    /// Width produced per sample.
    pub output_dim: usize,
}

impl ModelDims {
    /// Dimensions of the paper's encoder half: `n -> d` with a `tanh`.
    #[must_use]
    pub fn encoder(n: usize, d: usize) -> Self {
        ModelDims {
            input_dim: n,
            fc_layers: vec![(n, d)],
            lut_widths: vec![d],
            output_dim: d,
        }
    }

    /// Dimensions of the paper's full three-layer inference network:
    /// `n -> d -> k` with a `tanh` in the middle.
    #[must_use]
    pub fn inference(n: usize, d: usize, k: usize) -> Self {
        ModelDims {
            input_dim: n,
            fc_layers: vec![(n, d), (d, k)],
            lut_widths: vec![d],
            output_dim: k,
        }
    }

    /// Extracts dimensions from a quantized model.
    #[must_use]
    pub fn from_quantized(model: &QuantizedModel) -> Self {
        let mut dims = ModelDims {
            input_dim: model.input_dim(),
            fc_layers: Vec::new(),
            lut_widths: Vec::new(),
            output_dim: model.output_dim(),
        };
        let mut width = model.input_dim();
        for stage in model.stages() {
            match stage {
                wide_nn::QuantStage::FullyConnected { weights, .. } => {
                    dims.fc_layers.push(weights.shape());
                    width = weights.cols();
                }
                wide_nn::QuantStage::FullyConnectedPerChannel { weights, .. } => {
                    dims.fc_layers.push((weights.rows(), weights.cols()));
                    width = weights.cols();
                }
                wide_nn::QuantStage::Lut(_) => dims.lut_widths.push(width),
            }
        }
        dims
    }

    /// Extracts dimensions from a compiled model (its quantized stages).
    #[must_use]
    pub fn from_compiled(compiled: &CompiledModel) -> Self {
        Self::from_quantized(compiled.quantized())
    }

    /// Total quantized parameter bytes (weights plus 256-byte LUTs).
    pub fn param_bytes(&self) -> usize {
        self.fc_layers.iter().map(|(k, n)| k * n).sum::<usize>() + 256 * self.lut_widths.len()
    }
}

/// Per-invocation time breakdown, all in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvokeEstimate {
    /// Samples in the invocation.
    pub samples: usize,
    /// Fixed dispatch overhead.
    pub overhead_s: f64,
    /// Host-to-device input payload time.
    pub input_transfer_s: f64,
    /// MXU + activation-unit time.
    pub compute_s: f64,
    /// Device-to-host output payload time.
    pub output_transfer_s: f64,
    /// Total MXU/activation cycles.
    pub compute_cycles: u64,
    /// Sum of all components.
    pub total_s: f64,
}

/// Per-firing cost of each pipeline stage of one invocation, in seconds
/// — the raw inputs a dataflow scheduler (or the static schedule
/// analyzer in `hd-analysis`) needs, without committing to any
/// serial/overlapped composition. [`invoke_estimate`] composes these
/// serially; a double-buffered driver overlaps the link stages with
/// compute ([`invoke_estimate_pipelined`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCosts {
    /// Fixed per-invocation dispatch overhead (cannot be hidden).
    pub overhead_s: f64,
    /// Host-to-device input DMA time on the link.
    pub input_transfer_s: f64,
    /// MXU + activation-unit time on the device.
    pub compute_s: f64,
    /// Device-to-host output DMA time on the link.
    pub output_transfer_s: f64,
    /// Total MXU/activation cycles behind `compute_s`.
    pub compute_cycles: u64,
}

/// Per-stage costs of invoking a model with the given dimensions on
/// `samples` rows. This is the cost model that parameterizes declared
/// SDF schedule graphs; [`invoke_estimate`] is its serial composition.
pub fn stage_costs(cfg: &DeviceConfig, dims: &ModelDims, samples: usize) -> StageCosts {
    let array = SystolicArray::new(cfg.target.array_rows, cfg.target.array_cols);
    let bw = cfg.link.bandwidth_bytes_per_sec;

    let mut cycles: u64 = 0;
    for &(k, n) in &dims.fc_layers {
        cycles += array.stream_cycles(samples, k, n);
    }
    for &w in &dims.lut_widths {
        cycles += array.activation_cycles(samples * w);
    }

    StageCosts {
        overhead_s: cfg.link.per_invoke_latency_s,
        input_transfer_s: (samples * dims.input_dim) as f64 / bw,
        compute_s: cycles as f64 / cfg.clock_hz,
        output_transfer_s: (samples * dims.output_dim) as f64 / bw,
        compute_cycles: cycles,
    }
}

/// Estimates one invocation of a model with the given dimensions on
/// `samples` rows.
///
/// # Examples
///
/// ```
/// use tpu_sim::{timing, DeviceConfig};
///
/// let cfg = DeviceConfig::default();
/// let dims = timing::ModelDims::encoder(784, 10_000);
/// let est = timing::invoke_estimate(&cfg, &dims, 256);
/// assert!(est.total_s > 0.0);
/// // Output transfer (256 x 10000 bytes) dominates the input transfer.
/// assert!(est.output_transfer_s > est.input_transfer_s);
/// ```
pub fn invoke_estimate(cfg: &DeviceConfig, dims: &ModelDims, samples: usize) -> InvokeEstimate {
    let costs = stage_costs(cfg, dims, samples);
    InvokeEstimate {
        samples,
        overhead_s: costs.overhead_s,
        input_transfer_s: costs.input_transfer_s,
        compute_s: costs.compute_s,
        output_transfer_s: costs.output_transfer_s,
        compute_cycles: costs.compute_cycles,
        total_s: costs.overhead_s
            + costs.input_transfer_s
            + costs.compute_s
            + costs.output_transfer_s,
    }
}

/// [`invoke_estimate`] under a double-buffered driver that overlaps the
/// host-link transfers of one chunk with the MXU compute of the previous
/// one: per steady-state chunk the cost is the *maximum* of transfer and
/// compute instead of their sum (dispatch overhead cannot be hidden).
pub fn invoke_estimate_pipelined(
    cfg: &DeviceConfig,
    dims: &ModelDims,
    samples: usize,
) -> InvokeEstimate {
    let serial = invoke_estimate(cfg, dims, samples);
    let transfer = serial.input_transfer_s + serial.output_transfer_s;
    let overlapped = transfer.max(serial.compute_s);
    InvokeEstimate {
        total_s: serial.overhead_s + overlapped,
        ..serial
    }
}

/// Estimates processing `total_samples` rows through a double-buffered
/// driver (see [`invoke_estimate_pipelined`]).
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn batched_time_pipelined_s(
    cfg: &DeviceConfig,
    dims: &ModelDims,
    total_samples: usize,
    batch: usize,
) -> f64 {
    assert!(batch > 0, "batch must be positive");
    let full_chunks = total_samples / batch;
    let remainder = total_samples % batch;
    let mut t = full_chunks as f64 * invoke_estimate_pipelined(cfg, dims, batch).total_s;
    if remainder > 0 {
        t += invoke_estimate_pipelined(cfg, dims, remainder).total_s;
    }
    t
}

/// Estimates processing `total_samples` rows in invocations of at most
/// `batch` rows (the last chunk may be partial), returning total seconds.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn batched_time_s(
    cfg: &DeviceConfig,
    dims: &ModelDims,
    total_samples: usize,
    batch: usize,
) -> f64 {
    assert!(batch > 0, "batch must be positive");
    let full_chunks = total_samples / batch;
    let remainder = total_samples % batch;
    let mut t = full_chunks as f64 * invoke_estimate(cfg, dims, batch).total_s;
    if remainder > 0 {
        t += invoke_estimate(cfg, dims, remainder).total_s;
    }
    t
}

/// Estimates the one-time model load: parameter transfer over the link
/// plus shifting the weights into the array.
pub fn load_time_s(cfg: &DeviceConfig, dims: &ModelDims) -> f64 {
    let array = SystolicArray::new(cfg.target.array_rows, cfg.target.array_cols);
    let transfer = dims.param_bytes() as f64 / cfg.link.bandwidth_bytes_per_sec;
    let mut cycles = 0u64;
    for &(k, n) in &dims.fc_layers {
        cycles += array.weight_load_cycles(k, n);
    }
    transfer + cycles as f64 / cfg.clock_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_and_inference_dims() {
        let e = ModelDims::encoder(784, 10_000);
        assert_eq!(e.fc_layers, vec![(784, 10_000)]);
        assert_eq!(e.output_dim, 10_000);
        let i = ModelDims::inference(784, 10_000, 10);
        assert_eq!(i.fc_layers, vec![(784, 10_000), (10_000, 10)]);
        assert_eq!(i.output_dim, 10);
    }

    #[test]
    fn invoke_estimate_components_sum() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::inference(128, 1024, 8);
        let est = invoke_estimate(&cfg, &dims, 16);
        let sum = est.overhead_s + est.input_transfer_s + est.compute_s + est.output_transfer_s;
        assert!((est.total_s - sum).abs() < 1e-12);
    }

    #[test]
    fn stage_costs_match_invoke_estimate_components() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::inference(128, 1024, 8);
        for samples in [1usize, 7, 64] {
            let costs = stage_costs(&cfg, &dims, samples);
            let est = invoke_estimate(&cfg, &dims, samples);
            assert!((costs.overhead_s - est.overhead_s).abs() < 1e-15);
            assert!((costs.input_transfer_s - est.input_transfer_s).abs() < 1e-15);
            assert!((costs.compute_s - est.compute_s).abs() < 1e-15);
            assert!((costs.output_transfer_s - est.output_transfer_s).abs() < 1e-15);
            assert_eq!(costs.compute_cycles, est.compute_cycles);
        }
    }

    #[test]
    fn larger_batch_amortizes_overhead() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(784, 10_000);
        let per_sample_small = invoke_estimate(&cfg, &dims, 8).total_s / 8.0;
        let per_sample_big = invoke_estimate(&cfg, &dims, 256).total_s / 256.0;
        assert!(per_sample_big < per_sample_small);
    }

    #[test]
    fn batched_time_handles_remainder() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(64, 256);
        let t_exact = batched_time_s(&cfg, &dims, 100, 32);
        let expected = 3.0 * invoke_estimate(&cfg, &dims, 32).total_s
            + invoke_estimate(&cfg, &dims, 4).total_s;
        assert!((t_exact - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(4, 8);
        let _ = batched_time_s(&cfg, &dims, 10, 0);
    }

    #[test]
    fn pipelined_is_never_slower_and_hides_the_smaller_term() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(784, 10_000);
        for samples in [1usize, 16, 256] {
            let serial = invoke_estimate(&cfg, &dims, samples);
            let piped = invoke_estimate_pipelined(&cfg, &dims, samples);
            assert!(piped.total_s <= serial.total_s + 1e-15);
            let transfer = serial.input_transfer_s + serial.output_transfer_s;
            let expected = serial.overhead_s + transfer.max(serial.compute_s);
            assert!((piped.total_s - expected).abs() < 1e-15);
        }
    }

    #[test]
    fn pipelined_batched_time_sums_chunks() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(64, 512);
        let t = batched_time_pipelined_s(&cfg, &dims, 70, 32);
        let expected = 2.0 * invoke_estimate_pipelined(&cfg, &dims, 32).total_s
            + invoke_estimate_pipelined(&cfg, &dims, 6).total_s;
        assert!((t - expected).abs() < 1e-12);
    }

    #[test]
    fn load_time_scales_with_params() {
        let cfg = DeviceConfig::default();
        let small = load_time_s(&cfg, &ModelDims::encoder(64, 256));
        let big = load_time_s(&cfg, &ModelDims::encoder(784, 10_000));
        assert!(big > small * 10.0);
    }

    #[test]
    fn paper_scale_encode_speedup_shape() {
        // The headline calibration: MNIST-like encoding (784 features,
        // d = 10000) on the accelerator at batch 256 lands in the high
        // single digits of speedup against a 35 GFLOP/s host — Fig. 10's
        // upper end and Fig. 5's MNIST bar.
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(784, 10_000);
        let tpu_per_sample = invoke_estimate(&cfg, &dims, 256).total_s / 256.0;
        let cpu_per_sample = 2.0 * 784.0 * 10_000.0 / 35.0e9;
        let speedup = cpu_per_sample / tpu_per_sample;
        assert!(
            (5.0..20.0).contains(&speedup),
            "encode speedup {speedup} outside the paper's regime"
        );
    }

    #[test]
    fn few_feature_encode_loses_to_cpu() {
        // The PAMAP2 effect: with 27 features the fixed output transfer
        // dominates and the accelerator stops paying off (paper Fig. 5's
        // counterexample dataset).
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(27, 10_000);
        let tpu_per_sample = invoke_estimate(&cfg, &dims, 256).total_s / 256.0;
        let cpu_per_sample = 2.0 * 27.0 * 10_000.0 / 35.0e9;
        assert!(
            tpu_per_sample > cpu_per_sample,
            "PAMAP2-like encode should not speed up"
        );
    }

    #[test]
    fn param_bytes_counts_luts() {
        let dims = ModelDims::inference(10, 20, 3);
        assert_eq!(dims.param_bytes(), 10 * 20 + 20 * 3 + 256);
    }
}
