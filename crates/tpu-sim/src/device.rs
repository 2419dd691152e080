use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use hd_tensor::Matrix;
use wide_nn::CompiledModel;

use crate::buffer::UnifiedBuffer;
use crate::config::DeviceConfig;
use crate::error::SimError;
use crate::fault::{FaultKind, FaultPlan, FaultTrace, LinkDirection};
use crate::link::HostLink;
use crate::systolic::SystolicArray;
use crate::timing::{self, ModelDims};
use crate::Result;

/// Timing breakdown of one [`Device::invoke`] call, all in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvokeStats {
    /// Number of samples processed.
    pub samples: usize,
    /// MXU + activation-unit cycles consumed.
    pub compute_cycles: u64,
    /// Compute time at the device clock.
    pub compute_s: f64,
    /// Host-to-device input payload time.
    pub input_transfer_s: f64,
    /// Device-to-host output payload time.
    pub output_transfer_s: f64,
    /// Fixed per-invocation dispatch latency.
    pub overhead_s: f64,
    /// Sum of all components.
    pub total_s: f64,
}

/// One-time cost report from [`Device::load_model`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Parameter bytes moved onto the device.
    pub param_bytes: usize,
    /// Link time for the parameter transfer.
    pub transfer_s: f64,
    /// Cycles spent shifting weights into the array.
    pub weight_load_cycles: u64,
    /// Total load time.
    pub total_s: f64,
}

/// Accumulated device activity since construction or the last reset.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimingLedger {
    /// Number of invocations served.
    pub invocations: u64,
    /// Total samples processed.
    pub samples: u64,
    /// Total compute seconds.
    pub compute_s: f64,
    /// Total transfer seconds (both directions).
    pub transfer_s: f64,
    /// Total dispatch-overhead seconds.
    pub overhead_s: f64,
    /// Total model-load seconds.
    pub load_s: f64,
    /// Invocation attempts that failed with an injected fault (or a
    /// watchdog-deadline overrun).
    #[serde(default)]
    pub faulted_invocations: u64,
    /// Seconds consumed by failed attempts plus injected hang stalls.
    /// Failed-attempt seconds are counted here and in `total_s`, never in
    /// the per-phase success buckets.
    #[serde(default)]
    pub fault_s: f64,
    /// Transfer seconds hidden behind compute by a double-buffered
    /// (pipelined) invocation. Serial invocations contribute zero.
    #[serde(default)]
    pub overlapped_s: f64,
    /// Transfer seconds left on the critical path: `transfer_s` minus
    /// `overlapped_s`. For pipelined invocations `total_s` decomposes as
    /// `overhead_s + compute_s + exposed_transfer_s` (plus fault stalls);
    /// serial invocations expose their full transfer time.
    #[serde(default)]
    pub exposed_transfer_s: f64,
    /// Grand total (loads + invocations + failed attempts).
    pub total_s: f64,
}

impl TimingLedger {
    fn record_invoke(&mut self, stats: &InvokeStats, overlapped_s: f64) {
        self.invocations += 1;
        self.samples += stats.samples as u64;
        self.compute_s += stats.compute_s;
        let transfer_s = stats.input_transfer_s + stats.output_transfer_s;
        self.transfer_s += transfer_s;
        self.overhead_s += stats.overhead_s;
        self.overlapped_s += overlapped_s;
        self.exposed_transfer_s += transfer_s - overlapped_s;
        self.total_s += stats.total_s;
    }

    fn record_load(&mut self, report: &LoadReport) {
        self.load_s += report.total_s;
        self.total_s += report.total_s;
    }

    fn record_failed_attempt(&mut self, charged_s: f64) {
        self.faulted_invocations += 1;
        self.fault_s += charged_s;
        self.total_s += charged_s;
    }
}

struct DeviceState {
    model: Option<CompiledModel>,
    buffer: UnifiedBuffer,
    ledger: TimingLedger,
    faults: FaultPlan,
    weights_corrupt: bool,
}

/// A simulated edge accelerator.
///
/// The device holds at most one model at a time ("Most Edge TPU only take
/// one model at a time, and the weights have to be loaded to the on-chip
/// buffer every time" — paper, Section III-B); loading a new model evicts
/// the previous one and pays the full parameter-transfer cost again. This
/// is exactly the overhead that motivates the paper's merged single
/// inference model for bagging.
///
/// The device is `Send + Sync`; invocations serialize on an internal lock,
/// like a real single-queue accelerator.
pub struct Device {
    config: DeviceConfig,
    array: SystolicArray,
    link: HostLink,
    ordinal: usize,
    state: Mutex<DeviceState>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Device")
            .field("config", &self.config)
            .field("model_loaded", &state.model.is_some())
            .field("buffer_used", &state.buffer.used_bytes())
            .finish()
    }
}

impl Device {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the link or fault configuration is invalid (see
    /// [`crate::HostLinkConfig::validate`] and
    /// [`crate::FaultConfig::validate`]).
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_ordinal(config, 0)
    }

    /// Creates a device bound to the given schedule-resource ordinal:
    /// stage graphs refer to this handle as
    /// [`Resource::Device(ordinal)`](hd_dataflow::Resource), so a
    /// multi-device schedule can pin each stage to a concrete simulated
    /// accelerator. [`Device::new`] binds ordinal 0, the classic
    /// single-device resource.
    ///
    /// # Panics
    ///
    /// Same as [`Device::new`].
    #[must_use]
    pub fn with_ordinal(config: DeviceConfig, ordinal: usize) -> Self {
        let array = SystolicArray::new(config.target.array_rows, config.target.array_cols);
        let link = HostLink::new(config.link);
        if let Err(e) = config.fault.validate() {
            panic!("{e}");
        }
        let buffer = UnifiedBuffer::new(config.target.param_buffer_bytes);
        let faults = FaultPlan::new(config.fault);
        Device {
            config,
            array,
            link,
            ordinal,
            state: Mutex::new(DeviceState {
                model: None,
                buffer,
                ledger: TimingLedger::default(),
                faults,
                weights_corrupt: false,
            }),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The SDF-schedule resource this device handle is bindable as:
    /// a stage tagged with this resource executes on this device.
    pub fn resource(&self) -> hd_dataflow::Resource {
        hd_dataflow::Resource::Device(self.ordinal)
    }

    /// Whether a model is currently resident.
    pub fn model_loaded(&self) -> bool {
        self.state.lock().model.is_some()
    }

    /// Loads a compiled model, evicting any previous one, and returns the
    /// one-time cost report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BufferOverflow`] if the model's parameters do
    /// not fit the on-chip buffer. The previous model remains loaded in
    /// that case.
    pub fn load_model(&self, compiled: CompiledModel) -> Result<LoadReport> {
        let mut state = self.state.lock();
        let bytes = compiled.param_bytes();
        if bytes > state.buffer.capacity() {
            return Err(SimError::BufferOverflow {
                required: bytes,
                available: state.buffer.capacity(),
            });
        }

        let dims = ModelDims::from_compiled(&compiled);
        let transfer_s = self.link.transfer_time_s(bytes);
        let weight_load_cycles: u64 = dims
            .fc_layers
            .iter()
            .map(|&(k, n)| self.array.weight_load_cycles(k, n))
            .sum();
        let report = LoadReport {
            param_bytes: bytes,
            transfer_s,
            weight_load_cycles,
            total_s: transfer_s + weight_load_cycles as f64 / self.config.clock_hz,
        };

        state.buffer.reset();
        if state.buffer.allocate(bytes).is_err() {
            // Unreachable given the capacity check above, but propagate a
            // typed error rather than poison the device lock by panicking.
            return Err(SimError::BufferOverflow {
                required: bytes,
                available: state.buffer.capacity(),
            });
        }
        state.model = Some(compiled);
        state.weights_corrupt = false;
        state.ledger.record_load(&report);
        Ok(report)
    }

    /// Unloads the resident model, freeing the parameter buffer.
    pub fn unload_model(&self) {
        let mut state = self.state.lock();
        state.model = None;
        state.buffer.reset();
    }

    /// Runs the resident model on a batch of `f32` samples (one per row),
    /// returning the dequantized outputs and the timing breakdown of this
    /// single invocation.
    ///
    /// The numeric path *is* the reference executor,
    /// [`wide_nn::QuantizedModel::forward`]: quantize inputs with the
    /// model's calibrated input parameters, run every stage through the
    /// shared int8 kernel and activation LUTs, dequantize the outputs. The
    /// device adds only time: compute cycles from
    /// [`timing::stage_costs`], which depend on layer shapes alone.
    ///
    /// Host-side costs (the quantize/dequantize themselves) are *not*
    /// charged here — they belong to the host CPU model, exactly as in the
    /// paper's co-design accounting.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoModelLoaded`] — no model resident.
    /// * [`SimError::BatchWidth`] — batch width mismatch.
    /// * Any fault error of [`Device::invoke_with_deadline`] when the
    ///   device's [`crate::FaultConfig`] is armed.
    pub fn invoke(&self, batch: &Matrix) -> Result<(Matrix, InvokeStats)> {
        self.invoke_with_deadline(batch, None)
    }

    /// Like [`Device::invoke`], but with an optional per-invocation
    /// watchdog deadline and the device's seeded fault schedule applied.
    ///
    /// When the device's [`crate::FaultConfig`] is armed, each attempt may
    /// fail with a typed, *detected* fault; the failed attempt's simulated
    /// seconds are charged to the ledger (`fault_s`) but never to the
    /// success buckets, and the fault is appended to the
    /// [`Device::fault_trace`]. A retried attempt that succeeds returns
    /// output bit-identical to the fault-free run.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoModelLoaded`] / [`SimError::BatchWidth`] — caller
    ///   bugs; these never consume a fault-schedule attempt.
    /// * [`SimError::TransientInvokeFailure`] — dispatch failed before any
    ///   payload moved; only the dispatch overhead is charged.
    /// * [`SimError::LinkCorruption`] — a payload failed its CRC; the
    ///   wasted transfer time is charged.
    /// * [`SimError::WeightCorruption`] — the resident weights failed
    ///   parity (a new or earlier SRAM upset); every invocation fails
    ///   until a pristine model is reloaded via [`Device::load_model`].
    /// * [`SimError::DeviceHang`] — the invocation exceeded `deadline_s`
    ///   (an injected stall or a naturally slow invocation); exactly the
    ///   deadline is charged, as the watchdog kills the attempt there.
    pub fn invoke_with_deadline(
        &self,
        batch: &Matrix,
        deadline_s: Option<f64>,
    ) -> Result<(Matrix, InvokeStats)> {
        self.invoke_inner(batch, deadline_s, false)
    }

    /// Like [`Device::invoke`], but timed under the double-buffered DMA
    /// schedule: the input DMA of the next tile and the output DMA of the
    /// previous tile both run while the MXU computes, so the invocation's
    /// elapsed time is the critical-path max of the transfer and compute
    /// legs (plus the once-per-invocation dispatch overhead).
    ///
    /// Outputs are bit-identical to [`Device::invoke`] — only the clock
    /// model changes. The returned [`InvokeStats`] keeps the raw per-stage
    /// times; `total_s` is the pipelined elapsed time, so the stages no
    /// longer sum to it. The hidden transfer seconds land in the ledger's
    /// `overlapped_s` bucket.
    ///
    /// # Errors
    ///
    /// Same as [`Device::invoke`].
    pub fn invoke_overlapped(&self, batch: &Matrix) -> Result<(Matrix, InvokeStats)> {
        self.invoke_overlapped_with_deadline(batch, None)
    }

    /// [`Device::invoke_overlapped`] with an optional watchdog deadline;
    /// fault semantics match [`Device::invoke_with_deadline`] draw for
    /// draw — one fault-schedule attempt per call, identical charge rules
    /// (a fatal hang still charges exactly the deadline; a corrupted
    /// output charges the pipelined elapsed time).
    ///
    /// # Errors
    ///
    /// Same as [`Device::invoke_with_deadline`].
    pub fn invoke_overlapped_with_deadline(
        &self,
        batch: &Matrix,
        deadline_s: Option<f64>,
    ) -> Result<(Matrix, InvokeStats)> {
        self.invoke_inner(batch, deadline_s, true)
    }

    fn invoke_inner(
        &self,
        batch: &Matrix,
        deadline_s: Option<f64>,
        overlapped: bool,
    ) -> Result<(Matrix, InvokeStats)> {
        let mut state = self.state.lock();
        let state = &mut *state;
        let model = state.model.as_ref().ok_or(SimError::NoModelLoaded)?;
        let quantized = model.quantized();
        if batch.cols() != quantized.input_dim() {
            return Err(SimError::BatchWidth {
                expected: quantized.input_dim(),
                actual: batch.cols(),
            });
        }

        let samples = batch.rows();
        let (attempt, faults) = state.faults.begin_attempt();
        let overhead_s = self.link.invoke_latency_s();
        let input_bytes = samples * quantized.input_dim();
        let input_transfer_s = self.link.transfer_time_s(input_bytes);

        if faults.transient {
            state
                .faults
                .record(attempt, FaultKind::TransientInvokeFailure, overhead_s);
            state.ledger.record_failed_attempt(overhead_s);
            return Err(SimError::TransientInvokeFailure);
        }
        if faults.corrupt_input {
            let charged = overhead_s + input_transfer_s;
            state.faults.record(
                attempt,
                FaultKind::LinkCorruption {
                    direction: LinkDirection::HostToDevice,
                    bytes: input_bytes,
                },
                charged,
            );
            state.ledger.record_failed_attempt(charged);
            return Err(SimError::LinkCorruption {
                direction: LinkDirection::HostToDevice,
                bytes: input_bytes,
            });
        }
        if faults.weight_upset {
            // Parity trips as the weights stream into the array, after the
            // input payload already landed.
            state.weights_corrupt = true;
            state.faults.record(
                attempt,
                FaultKind::WeightUpset,
                overhead_s + input_transfer_s,
            );
        }
        if state.weights_corrupt {
            state
                .ledger
                .record_failed_attempt(overhead_s + input_transfer_s);
            return Err(SimError::WeightCorruption);
        }
        // Cycles depend only on layer shapes, so they come from the same
        // analytic formula the schedule estimates use; the output itself is
        // computed once the attempt has survived every fault check.
        let cycles =
            timing::stage_costs(&self.config, &ModelDims::from_quantized(quantized), samples)
                .compute_cycles;

        let output_bytes = samples * quantized.output_dim();
        let output_transfer_s = self.link.transfer_time_s(output_bytes);
        let compute_s = cycles as f64 / self.config.clock_hz;
        let stall_s = if faults.hang {
            state.faults.config().hang_stall_s
        } else {
            0.0
        };
        let transfer_s = input_transfer_s + output_transfer_s;
        let staged_s = if overlapped {
            // Double-buffered DMA: transfers ride under compute, so only
            // the longer leg is on the critical path.
            transfer_s.max(compute_s)
        } else {
            transfer_s + compute_s
        };
        let elapsed_s = overhead_s + staged_s + stall_s;

        if let Some(deadline) = deadline_s {
            if elapsed_s > deadline {
                // The watchdog kills the attempt at the deadline, so that
                // is all the simulated time the attempt can consume.
                if faults.hang {
                    state.faults.record(
                        attempt,
                        FaultKind::Hang {
                            stall_s,
                            fatal: true,
                        },
                        deadline,
                    );
                }
                state.ledger.record_failed_attempt(deadline);
                return Err(SimError::DeviceHang {
                    elapsed_s,
                    deadline_s: deadline,
                });
            }
        }
        if faults.hang {
            // Survivable stall: the invocation completes, just late. The
            // stall rides in the overhead bucket so `total_s` stays the
            // sum of the parts.
            state.faults.record(
                attempt,
                FaultKind::Hang {
                    stall_s,
                    fatal: false,
                },
                stall_s,
            );
        }
        if faults.corrupt_output {
            let charged = elapsed_s;
            state.faults.record(
                attempt,
                FaultKind::LinkCorruption {
                    direction: LinkDirection::DeviceToHost,
                    bytes: output_bytes,
                },
                charged,
            );
            state.ledger.record_failed_attempt(charged);
            return Err(SimError::LinkCorruption {
                direction: LinkDirection::DeviceToHost,
                bytes: output_bytes,
            });
        }

        let output = quantized.forward(batch)?;
        let stats = InvokeStats {
            samples,
            compute_cycles: cycles,
            compute_s,
            input_transfer_s,
            output_transfer_s,
            overhead_s: overhead_s + stall_s,
            total_s: elapsed_s,
        };
        let overlapped_s = if overlapped {
            transfer_s.min(compute_s)
        } else {
            0.0
        };
        state.ledger.record_invoke(&stats, overlapped_s);
        state.ledger.fault_s += stall_s;
        Ok((output, stats))
    }

    /// Runs a batch in chunks of at most `chunk` rows, as a host driver
    /// would, returning the stitched outputs and per-chunk stats.
    ///
    /// # Errors
    ///
    /// Same as [`Device::invoke`].
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn invoke_chunked(
        &self,
        batch: &Matrix,
        chunk: usize,
    ) -> Result<(Matrix, Vec<InvokeStats>)> {
        self.run_chunked(batch, chunk, false)
    }

    /// Runs a batch in chunks of at most `chunk` rows under the
    /// double-buffered DMA schedule: while the MXU computes chunk *i*, the
    /// link streams chunk *i+1* in and chunk *i-1* out. Each chunk's
    /// simulated elapsed time is therefore the critical-path max of its
    /// transfer and compute legs (dispatch overhead still paid once per
    /// chunk), and the outputs are bit-identical to
    /// [`Device::invoke_chunked`].
    ///
    /// # Errors
    ///
    /// Same as [`Device::invoke`].
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn invoke_pipelined(
        &self,
        batch: &Matrix,
        chunk: usize,
    ) -> Result<(Matrix, Vec<InvokeStats>)> {
        self.run_chunked(batch, chunk, true)
    }

    fn run_chunked(
        &self,
        batch: &Matrix,
        chunk: usize,
        overlapped: bool,
    ) -> Result<(Matrix, Vec<InvokeStats>)> {
        assert!(chunk > 0, "chunk must be positive");
        if batch.rows() == 0 {
            let empty = Matrix::vstack(&[]).map_err(wide_nn::NnError::from)?;
            return Ok((empty, Vec::new()));
        }
        // Stitch into one preallocated buffer instead of vstack-reallocating
        // the collected chunks; output width is known after the first chunk.
        let mut stitched: Option<Matrix> = None;
        let mut all_stats = Vec::with_capacity(batch.rows().div_ceil(chunk));
        let mut start = 0;
        while start < batch.rows() {
            let end = (start + chunk).min(batch.rows());
            let part = batch
                .slice_rows(start, end)
                .map_err(wide_nn::NnError::from)?;
            let (out, stats) = self.invoke_inner(&part, None, overlapped)?;
            let cols = out.cols();
            let dest = stitched.get_or_insert_with(|| Matrix::zeros(batch.rows(), cols));
            dest.as_mut_slice()[start * cols..end * cols].copy_from_slice(out.as_slice());
            all_stats.push(stats);
            start = end;
        }
        let stitched = stitched.expect("non-empty batch produced at least one chunk");
        Ok((stitched, all_stats))
    }

    /// Injects random bit flips into the resident model's weights — a
    /// fault-injection hook modeling on-chip SRAM upsets, for the
    /// robustness experiments the paper's "hardware failure" motivation
    /// implies. Returns the number of bits flipped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoModelLoaded`] if no model is resident.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn inject_weight_faults(
        &self,
        rate: f64,
        rng: &mut hd_tensor::rng::DetRng,
    ) -> Result<usize> {
        let mut state = self.state.lock();
        let model = state.model.as_mut().ok_or(SimError::NoModelLoaded)?;
        Ok(model.inject_weight_faults(rate, rng))
    }

    /// A snapshot of the ordered record of every injected fault since
    /// device construction.
    pub fn fault_trace(&self) -> FaultTrace {
        self.state.lock().faults.trace().clone()
    }

    /// Whether the resident weights are currently parity-failed. Cleared
    /// by reloading a pristine model via [`Device::load_model`].
    pub fn weights_corrupt(&self) -> bool {
        self.state.lock().weights_corrupt
    }

    /// A snapshot of accumulated device activity.
    pub fn ledger(&self) -> TimingLedger {
        self.state.lock().ledger
    }

    /// Clears the activity ledger (models stay loaded).
    pub fn reset_ledger(&self) {
        self.state.lock().ledger = TimingLedger::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing;
    use hd_tensor::rng::DetRng;
    use wide_nn::{compile, Activation, ModelBuilder, TargetSpec};

    fn compiled_model(n: usize, d: usize, k: usize, seed: u64) -> (CompiledModel, Matrix) {
        let mut rng = DetRng::new(seed);
        let model = ModelBuilder::new(n)
            .fully_connected(Matrix::random_normal(n, d, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(d, k, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let calib = Matrix::random_normal(24, n, &mut rng);
        let compiled = compile::compile(&model, &calib, &TargetSpec::default()).unwrap();
        (compiled, calib)
    }

    #[test]
    fn invoke_without_model_fails() {
        let device = Device::new(DeviceConfig::default());
        assert_eq!(
            device.invoke(&Matrix::zeros(1, 4)).unwrap_err(),
            SimError::NoModelLoaded
        );
    }

    #[test]
    fn device_output_matches_reference_executor_bit_exact() {
        let (compiled, calib) = compiled_model(20, 96, 5, 1);
        let reference = compiled.quantized().clone();
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (device_out, _) = device.invoke(&calib).unwrap();
        assert_eq!(
            device_out,
            crate::systolic::tests::scalar_reference(&reference, &calib),
            "device datapath diverged from the scalar reference"
        );
    }

    #[test]
    fn batch_width_is_checked() {
        let (compiled, _) = compiled_model(20, 64, 4, 2);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        assert!(matches!(
            device.invoke(&Matrix::zeros(1, 21)).unwrap_err(),
            SimError::BatchWidth {
                expected: 20,
                actual: 21
            }
        ));
    }

    #[test]
    fn invoke_stats_match_analytic_estimate() {
        let (compiled, calib) = compiled_model(20, 96, 5, 3);
        let dims = ModelDims::from_compiled(&compiled);
        let cfg = DeviceConfig::default();
        let device = Device::new(cfg.clone());
        device.load_model(compiled).unwrap();
        let (_, stats) = device.invoke(&calib).unwrap();
        let est = timing::invoke_estimate(&cfg, &dims, calib.rows());
        assert_eq!(stats.compute_cycles, est.compute_cycles);
        assert!((stats.total_s - est.total_s).abs() < 1e-12);
    }

    #[test]
    fn oversized_model_rejected_at_load() {
        let mut cfg = DeviceConfig::default();
        cfg.target.param_buffer_bytes = 64;
        // compile() against a permissive target, load against the tiny one.
        let (compiled, _) = compiled_model(20, 64, 4, 4);
        let device = Device::new(cfg);
        assert!(matches!(
            device.load_model(compiled).unwrap_err(),
            SimError::BufferOverflow { .. }
        ));
        assert!(!device.model_loaded());
    }

    #[test]
    fn loading_second_model_evicts_first() {
        let (first, calib1) = compiled_model(20, 64, 4, 5);
        let (second, _) = compiled_model(30, 64, 4, 6);
        let device = Device::new(DeviceConfig::default());
        device.load_model(first).unwrap();
        device.load_model(second).unwrap();
        // Old 20-wide batches no longer fit; new model expects 30.
        assert!(matches!(
            device.invoke(&calib1).unwrap_err(),
            SimError::BatchWidth { expected: 30, .. }
        ));
    }

    #[test]
    fn unload_frees_buffer() {
        let (compiled, _) = compiled_model(20, 64, 4, 7);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        assert!(device.model_loaded());
        device.unload_model();
        assert!(!device.model_loaded());
    }

    #[test]
    fn ledger_accumulates() {
        let (compiled, calib) = compiled_model(20, 64, 4, 8);
        let device = Device::new(DeviceConfig::default());
        let report = device.load_model(compiled).unwrap();
        device.invoke(&calib).unwrap();
        device.invoke(&calib).unwrap();
        let ledger = device.ledger();
        assert_eq!(ledger.invocations, 2);
        assert_eq!(ledger.samples, 2 * calib.rows() as u64);
        assert!(ledger.load_s > 0.0);
        assert!((ledger.load_s - report.total_s).abs() < 1e-12);
        device.reset_ledger();
        assert_eq!(device.ledger().invocations, 0);
    }

    #[test]
    fn chunked_invoke_matches_single_invoke_functionally() {
        let (compiled, calib) = compiled_model(20, 96, 5, 9);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (single, _) = device.invoke(&calib).unwrap();
        let (chunked, stats) = device.invoke_chunked(&calib, 7).unwrap();
        assert_eq!(single, chunked);
        assert_eq!(stats.len(), calib.rows().div_ceil(7));
    }

    #[test]
    fn chunked_invoke_pays_overhead_per_chunk() {
        let (compiled, calib) = compiled_model(20, 96, 5, 10);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        device.reset_ledger();
        let (_, stats) = device.invoke_chunked(&calib, 6).unwrap();
        let total_overhead: f64 = stats.iter().map(|s| s.overhead_s).sum();
        let expected = stats.len() as f64 * DeviceConfig::default().link.per_invoke_latency_s;
        assert!((total_overhead - expected).abs() < 1e-12);
    }

    #[test]
    fn device_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
    }

    #[test]
    fn load_report_charges_transfer_and_cycles() {
        let (compiled, _) = compiled_model(64, 128, 8, 11);
        let bytes = compiled.param_bytes();
        let device = Device::new(DeviceConfig::default());
        let report = device.load_model(compiled).unwrap();
        assert_eq!(report.param_bytes, bytes);
        assert!(report.transfer_s > 0.0);
        assert!(report.weight_load_cycles > 0);
        assert!(report.total_s >= report.transfer_s);
    }

    #[test]
    fn second_load_keeps_previous_model_on_failure() {
        let (good, calib) = compiled_model(20, 64, 4, 12);
        let device = Device::new(DeviceConfig::default());
        device.load_model(good).unwrap();

        // Build a model too big for the default 8 MiB buffer.
        let mut rng = DetRng::new(13);
        let model = ModelBuilder::new(1000)
            .fully_connected(Matrix::random_normal(1000, 9000, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let big_calib = Matrix::random_normal(4, 1000, &mut rng);
        let big_target = TargetSpec::new("big", 64, 64, 32 * 1024 * 1024);
        let big = compile::compile(&model, &big_calib, &big_target).unwrap();
        assert!(device.load_model(big).is_err());
        // Original model still answers.
        assert!(device.invoke(&calib).is_ok());
    }

    fn fault_device(fault: crate::FaultConfig) -> (Device, Matrix) {
        let (compiled, calib) = compiled_model(20, 96, 5, 21);
        let device = Device::new(DeviceConfig {
            fault,
            ..DeviceConfig::default()
        });
        device.load_model(compiled).unwrap();
        (device, calib)
    }

    #[test]
    fn transient_fault_retry_converges_bit_exact() {
        let fault = crate::FaultConfig::default()
            .with_seed(77)
            .with_transient_rate(0.5);
        let (device, calib) = fault_device(fault);
        let (clean, _) = fault_device(crate::FaultConfig::default());
        let (want, _) = clean.invoke(&calib).unwrap();

        let mut failures = 0;
        let got = loop {
            match device.invoke(&calib) {
                Ok((out, _)) => break out,
                Err(e) => {
                    assert_eq!(e, SimError::TransientInvokeFailure);
                    failures += 1;
                    assert!(failures < 64, "transient faults never cleared");
                }
            }
        };
        assert!(failures > 0, "rate 0.5 never fired in 64 attempts");
        assert_eq!(got, want, "retried invoke diverged from fault-free run");
        let ledger = device.ledger();
        assert_eq!(ledger.faulted_invocations, failures);
        assert_eq!(device.fault_trace().len() as u64, failures);
        // Each transient failure charges exactly the dispatch overhead.
        let overhead = DeviceConfig::default().link.per_invoke_latency_s;
        assert!((ledger.fault_s - failures as f64 * overhead).abs() < 1e-12);
        // Success buckets saw exactly one invocation.
        assert_eq!(ledger.invocations, 1);
    }

    #[test]
    fn weight_upset_rejects_until_reload() {
        let fault = crate::FaultConfig::default().with_weight_upset_rate(1.0);
        let (device, calib) = fault_device(fault);
        assert_eq!(
            device.invoke(&calib).unwrap_err(),
            SimError::WeightCorruption
        );
        assert!(device.weights_corrupt());
        // Still corrupt on the next attempt, independent of new draws.
        assert_eq!(
            device.invoke(&calib).unwrap_err(),
            SimError::WeightCorruption
        );
        let (pristine, _) = compiled_model(20, 96, 5, 21);
        device.load_model(pristine).unwrap();
        assert!(!device.weights_corrupt());
        assert_eq!(
            device
                .fault_trace()
                .count_kind(|k| matches!(k, FaultKind::WeightUpset)),
            2
        );
    }

    #[test]
    fn link_corruption_charges_overhead_plus_transfer() {
        let fault = crate::FaultConfig::default().with_link_corruption_rate(1.0);
        let (device, calib) = fault_device(fault);
        let err = device.invoke(&calib).unwrap_err();
        assert_eq!(
            err,
            SimError::LinkCorruption {
                direction: LinkDirection::HostToDevice,
                bytes: calib.rows() * calib.cols(),
            }
        );
        let cfg = DeviceConfig::default();
        let expected = cfg.link.per_invoke_latency_s
            + calib.rows() as f64 * calib.cols() as f64 / cfg.link.bandwidth_bytes_per_sec;
        let ledger = device.ledger();
        assert!((ledger.fault_s - expected).abs() < 1e-12);
        assert_eq!(device.fault_trace().records()[0].charged_s, expected);
    }

    #[test]
    fn fatal_hang_charges_exactly_the_deadline() {
        let fault = crate::FaultConfig::default().with_hang(1.0, 2.0);
        let (device, calib) = fault_device(fault);
        let deadline = 1e-3;
        let err = device
            .invoke_with_deadline(&calib, Some(deadline))
            .unwrap_err();
        match err {
            SimError::DeviceHang {
                elapsed_s,
                deadline_s,
            } => {
                assert!(elapsed_s > 2.0, "stall not included in elapsed");
                assert_eq!(deadline_s, deadline);
            }
            other => panic!("expected DeviceHang, got {other}"),
        }
        let ledger = device.ledger();
        assert_eq!(ledger.faulted_invocations, 1);
        assert!((ledger.fault_s - deadline).abs() < 1e-15);
        assert!(
            device
                .fault_trace()
                .count_kind(|k| matches!(k, FaultKind::Hang { fatal: true, .. }))
                == 1
        );
    }

    #[test]
    fn survivable_hang_slows_but_succeeds() {
        let stall = 0.25;
        let fault = crate::FaultConfig::default().with_hang(1.0, stall);
        let (device, calib) = fault_device(fault);
        let (clean, _) = fault_device(crate::FaultConfig::default());
        let (want, clean_stats) = clean.invoke(&calib).unwrap();
        let (got, stats) = device.invoke(&calib).unwrap();
        assert_eq!(got, want);
        assert!((stats.total_s - (clean_stats.total_s + stall)).abs() < 1e-12);
        assert_eq!(
            device
                .fault_trace()
                .count_kind(|k| matches!(k, FaultKind::Hang { fatal: false, .. })),
            1
        );
        assert!((device.ledger().fault_s - stall).abs() < 1e-15);
    }

    #[test]
    fn natural_deadline_overrun_hangs_without_trace() {
        let (device, calib) = fault_device(crate::FaultConfig::default());
        let err = device.invoke_with_deadline(&calib, Some(0.0)).unwrap_err();
        assert!(matches!(err, SimError::DeviceHang { .. }));
        assert!(device.fault_trace().is_empty());
        assert_eq!(device.ledger().faulted_invocations, 1);
    }

    #[test]
    fn same_seed_reproduces_identical_fault_trace() {
        let fault = crate::FaultConfig::default()
            .with_seed(5150)
            .with_transient_rate(0.2)
            .with_link_corruption_rate(0.1)
            .with_hang(0.1, 0.01);
        let (a, calib) = fault_device(fault);
        let (b, _) = fault_device(fault);
        for _ in 0..32 {
            let ra = a.invoke(&calib);
            let rb = b.invoke(&calib);
            assert_eq!(ra.is_ok(), rb.is_ok());
        }
        assert_eq!(a.fault_trace(), b.fault_trace());
        assert!(!a.fault_trace().is_empty(), "rates too low to exercise");
    }

    #[test]
    fn pipelined_outputs_bit_exact_with_chunked() {
        let (compiled, calib) = compiled_model(20, 96, 5, 15);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (serial, _) = device.invoke_chunked(&calib, 7).unwrap();
        let (pipelined, stats) = device.invoke_pipelined(&calib, 7).unwrap();
        assert_eq!(serial, pipelined, "pipelining changed the datapath");
        assert_eq!(stats.len(), calib.rows().div_ceil(7));
    }

    #[test]
    fn overlapped_stats_match_analytic_pipelined_estimate() {
        let (compiled, calib) = compiled_model(20, 96, 5, 16);
        let dims = ModelDims::from_compiled(&compiled);
        let cfg = DeviceConfig::default();
        let device = Device::new(cfg.clone());
        device.load_model(compiled).unwrap();
        let (_, stats) = device.invoke_overlapped(&calib).unwrap();
        let est = timing::invoke_estimate_pipelined(&cfg, &dims, calib.rows());
        assert_eq!(stats.compute_cycles, est.compute_cycles);
        assert!((stats.total_s - est.total_s).abs() < 1e-12);
    }

    #[test]
    fn pipelined_ledger_matches_batched_pipelined_formula() {
        let (compiled, calib) = compiled_model(20, 96, 5, 17);
        let dims = ModelDims::from_compiled(&compiled);
        let cfg = DeviceConfig::default();
        let device = Device::new(cfg.clone());
        device.load_model(compiled).unwrap();
        device.reset_ledger();
        let (_, stats) = device.invoke_pipelined(&calib, 7).unwrap();
        let total: f64 = stats.iter().map(|s| s.total_s).sum();
        let expected = timing::batched_time_pipelined_s(&cfg, &dims, calib.rows(), 7);
        assert!((total - expected).abs() < 1e-12);
        let ledger = device.ledger();
        assert!((ledger.total_s - expected).abs() < 1e-12);
        // The overlap buckets partition the transfer time ...
        let parts = ledger.overlapped_s + ledger.exposed_transfer_s;
        assert!((parts - ledger.transfer_s).abs() < 1e-15);
        assert!(ledger.overlapped_s > 0.0, "nothing overlapped");
        // ... and the pipelined total decomposes along the critical path.
        let critical = ledger.overhead_s + ledger.compute_s + ledger.exposed_transfer_s;
        assert!((ledger.total_s - critical).abs() < 1e-12);
    }

    #[test]
    fn serial_invocations_expose_their_full_transfer() {
        let (compiled, calib) = compiled_model(20, 96, 5, 18);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        device.reset_ledger();
        device.invoke_chunked(&calib, 7).unwrap();
        let ledger = device.ledger();
        assert_eq!(ledger.overlapped_s, 0.0);
        assert!((ledger.exposed_transfer_s - ledger.transfer_s).abs() < 1e-15);
    }

    #[test]
    fn pipelined_survivable_hang_charges_stall() {
        let stall = 0.25;
        let fault = crate::FaultConfig::default().with_hang(1.0, stall);
        let (device, calib) = fault_device(fault);
        let (clean, _) = fault_device(crate::FaultConfig::default());
        let (want, clean_stats) = clean.invoke_overlapped(&calib).unwrap();
        let (got, stats) = device.invoke_overlapped(&calib).unwrap();
        assert_eq!(got, want);
        assert!((stats.total_s - (clean_stats.total_s + stall)).abs() < 1e-12);
        assert!((device.ledger().fault_s - stall).abs() < 1e-15);
    }

    #[test]
    fn quantized_model_reference_and_device_agree_on_argmax() {
        let (compiled, calib) = compiled_model(16, 80, 6, 14);
        let reference: wide_nn::QuantizedModel = compiled.quantized().clone();
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (out, _) = device.invoke(&calib).unwrap();
        let ref_out = reference.forward(&calib).unwrap();
        for r in 0..calib.rows() {
            assert_eq!(
                hd_tensor::ops::argmax(out.row(r)).unwrap(),
                hd_tensor::ops::argmax(ref_out.row(r)).unwrap()
            );
        }
    }
}
