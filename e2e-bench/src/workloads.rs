//! The four workloads: their inputs, set-up, reference outputs and the
//! untraced measurement loops that produce the end-to-end metrics.

use std::time::Instant;

use hd_datasets::{registry, Dataset, SampleBudget};
use hd_tensor::Matrix;
use hdc::HdcModel;
use hyperedge::serving::TwoDeviceServer;
use hyperedge::{ExecutionSetting, Pipeline, PipelineConfig, TrainingOutcome};
use tpu_sim::FaultConfig;

use crate::report::{median, metric, peak_rss_mib, quantile, secs, timed, Metric};
use crate::speed::Probe;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// A benchmark workload. Each variant's doc comment is the reason it is in
/// the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's method (`TpuBagging`: M = 4 sub-models of d' = 512,
    /// merged to d = 2048). Most of its train time is device functional
    /// simulation; it also compiles four encoders and merges them.
    TrainBagged,
    /// The same job under `CpuBaseline`. It never touches `tpu-sim`,
    /// `hd-quant` or `wide-nn`, so it is the bypass workload for any
    /// device-datapath change; its time goes to the host f32 GEMM and the
    /// class-hypervector update.
    TrainCpu,
    /// A closed loop with one client sending 64-row requests through the
    /// supervised two-device server. It exercises the `hd-dataflow` stage
    /// threads, `fleet` seats and device invocation on every request and
    /// does no host update: the read path beside the two train workloads.
    Serve,
    /// `serve` with one spare device and a fault plan seeded from the
    /// workload seed (10% transient faults, 2% weight upsets per
    /// invocation). The only workload that runs the supervision
    /// retry/backoff path and the fleet's pristine reload.
    ServeFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainBagged,
        Workload::TrainCpu,
        Workload::Serve,
        Workload::ServeFaults,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainBagged => "train-bagged",
            Workload::TrainCpu => "train-cpu",
            Workload::Serve => "serve",
            Workload::ServeFaults => "serve-faults",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The execution setting the workload trains under (serve workloads
    /// train their model under `Tpu` at set-up).
    #[must_use]
    pub fn setting(self) -> ExecutionSetting {
        match self {
            Workload::TrainBagged => ExecutionSetting::TpuBagging,
            Workload::TrainCpu => ExecutionSetting::CpuBaseline,
            Workload::Serve | Workload::ServeFaults => ExecutionSetting::Tpu,
        }
    }

    #[must_use]
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::Serve | Workload::ServeFaults)
    }
}

/// Problem sizes. `full` is the CLI's defaults on an isolet-shaped dataset
/// (617 features, 26 classes); `smoke` is a reduced scale for self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
    pub dim: usize,
    pub iterations: usize,
    pub train_rows: usize,
    pub test_rows: usize,
    pub pool_rows: usize,
    pub window: usize,
    pub chunk: usize,
    /// Set-ups per run of a train (dataset generation only) and of a
    /// serve workload; `setup_s` is their median.
    pub train_setups: usize,
    pub serve_setups: usize,
    /// Serve requests whose simulated device time `sim_predict_us_per_row`
    /// is taken over: a fixed prefix, so it repeats exactly for a seed
    /// even though the number of requests in a run depends on wall speed.
    pub sim_requests: usize,
}

impl Scale {
    #[must_use]
    pub fn full() -> Self {
        Scale {
            smoke: false,
            dim: 2048,
            iterations: 10,
            train_rows: 600,
            test_rows: 200,
            pool_rows: 2000,
            window: 64,
            chunk: 16,
            train_setups: 15,
            serve_setups: 3,
            sim_requests: 100,
        }
    }

    #[must_use]
    pub fn smoke() -> Self {
        Scale {
            smoke: true,
            dim: 512,
            iterations: 3,
            train_rows: 260,
            test_rows: 80,
            pool_rows: 160,
            window: 32,
            chunk: 16,
            train_setups: 1,
            serve_setups: 1,
            sim_requests: 2,
        }
    }

    /// The pipeline configuration of `hyperedge train` at this scale
    /// (threads = 1, bagging at its paper defaults for `dim`).
    #[must_use]
    pub fn pipeline_config(&self, seed: u64) -> PipelineConfig {
        PipelineConfig::new(self.dim)
            .with_iterations(self.iterations)
            .with_seed(seed)
            .with_threads(1)
    }
}

/// Least test accuracy a trained model must reach for the run to count as
/// correct (chance is 1/26; the CLI defaults reach about 0.89 on isolet).
const MIN_ACCURACY: f64 = 0.5;
const MIN_ACCURACY_SMOKE: f64 = 0.2;

/// An isolet-shaped dataset with `test` held-out rows, every split
/// normalised with the statistics of its own training split.
fn generate(scale: &Scale, seed: u64, test: usize) -> BenchResult<Dataset> {
    let spec = registry::by_name("isolet").ok_or("isolet is not a registered dataset")?;
    let mut data = spec.generate(
        SampleBudget::Reduced {
            train: scale.train_rows,
            test,
        },
        seed,
    )?;
    data.normalize();
    Ok(data)
}

/// Counts of attempted and failed operations and of failed set-up checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub setup_failures: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.setup_failures == 0 && self.attempted > 0
    }
}

/// The outcome of one run: its metrics, the unscaled wall-time versions
/// of the end-to-end ones (for the result record), and sample counts.
pub struct RunOutcome {
    pub metrics: Vec<Metric>,
    pub raw_metrics: Vec<Metric>,
    pub samples: Vec<(&'static str, usize)>,
    pub tally: Tally,
}

/// Wall-time samples as `(raw seconds, probe factor)` pairs; see `speed`.
pub type Walls = Vec<(f64, f64)>;

/// The samples times `per`, scaled by their probe factors or raw.
#[must_use]
pub fn wall_values(samples: &[(f64, f64)], scaled: bool, per: f64) -> Vec<f64> {
    samples
        .iter()
        .map(|&(raw, factor)| per * if scaled { raw * factor } else { raw })
        .collect()
}

fn check_accuracy(scale: &Scale, accuracy: f64, tally: &mut Tally, what: &str) {
    let floor = if scale.smoke {
        MIN_ACCURACY_SMOKE
    } else {
        MIN_ACCURACY
    };
    if accuracy.is_nan() || accuracy < floor {
        eprintln!("check failed: {what} accuracy {accuracy} is below {floor}");
        tally.setup_failures += 1;
    }
}

// ---------------------------------------------------------------- train --

/// A train workload after set-up.
pub struct TrainSetup {
    pub workload: Workload,
    pub data: Dataset,
    pub config: PipelineConfig,
    pub setup: Walls,
    /// The warm-up job, run once after set-up and outside every timing:
    /// every later job must reproduce its model and accuracy bit for bit.
    pub reference: TrainingOutcome,
    pub reference_accuracy: f64,
}

pub fn setup_train(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    probe: &mut Probe,
    tally: &mut Tally,
) -> BenchResult<TrainSetup> {
    let mut setup = Vec::new();
    let mut data = None;
    for _ in 0..scale.train_setups {
        let ((generated, raw_s), factor) =
            probe.measure(|| timed(|| generate(scale, seed, scale.test_rows)));
        data = Some(generated?);
        setup.push((raw_s, factor));
    }
    let data = data.ok_or("at least one set-up is required")?;
    let config = scale.pipeline_config(seed);
    let pipeline = Pipeline::new(config.clone());
    let reference = pipeline.train(
        &data.train.features,
        &data.train.labels,
        data.classes,
        workload.setting(),
    )?;
    let reference_accuracy = pipeline
        .evaluate(&reference, &data.test.features, &data.test.labels)?
        .accuracy;
    check_accuracy(scale, reference_accuracy, tally, workload.name());
    Ok(TrainSetup {
        workload,
        data,
        config,
        setup,
        reference,
        reference_accuracy,
    })
}

/// One train job, timed: `(train wall s, evaluate wall s, simulated
/// inference s, matches the reference)`, or the job's error. The train
/// time covers `Pipeline::new` + `train`, the evaluate time `evaluate`.
pub fn timed_train_job(setup: &TrainSetup) -> BenchResult<(f64, f64, f64, bool)> {
    let data = &setup.data;
    let setting = setup.workload.setting();
    let start = Instant::now();
    let pipeline = Pipeline::new(setup.config.clone());
    let outcome = pipeline.train(
        &data.train.features,
        &data.train.labels,
        data.classes,
        setting,
    )?;
    let train_s = secs(start);
    let (report, eval_s) =
        timed(|| pipeline.evaluate(&outcome, &data.test.features, &data.test.labels));
    let report = report?;
    let sim_infer_s = pipeline.backend(setting).ledger().infer_s;
    let matches = outcome.model == setup.reference.model
        && report.accuracy.to_bits() == setup.reference_accuracy.to_bits();
    Ok((train_s, eval_s, sim_infer_s, matches))
}

pub fn run_train(
    setup: &TrainSetup,
    seconds: f64,
    probe: &mut Probe,
    mut tally: Tally,
) -> RunOutcome {
    let mut train = Vec::new();
    let mut eval = Vec::new();
    let mut sim_infer_s = Vec::new();
    let start = Instant::now();
    while train.is_empty() || secs(start) < seconds {
        match probe.measure(|| timed_train_job(setup)) {
            (Ok((t, e, sim, matches)), factor) => {
                if !matches {
                    eprintln!("check failed: a train job diverged from the reference model");
                }
                tally.record(matches);
                train.push((t, factor));
                eval.push((e, factor));
                sim_infer_s.push(sim);
            }
            (Err(e), _) => {
                eprintln!("check failed: train job error: {e}");
                tally.record(false);
                if tally.failed > 3 && train.is_empty() {
                    break;
                }
            }
        }
    }
    let test_rows = setup.data.test.len() as f64;
    let e2e = EndToEnd {
        setup: &setup.setup,
        op: &train,
        predict: &eval,
        rows_per_predict: test_rows,
        rows_per_op: setup.data.train.len() as f64,
        accuracy: setup.reference_accuracy,
        sim_train_s: setup.reference.ledger.breakdown().total_s(),
        sim_predict_s_per_row: median(&sim_infer_s) / test_rows,
    };
    RunOutcome {
        metrics: e2e.metrics(true),
        raw_metrics: e2e.metrics(false),
        samples: vec![
            ("setups", setup.setup.len()),
            ("train jobs", train.len()),
            ("evaluates", eval.len()),
        ],
        tally,
    }
}

// ---------------------------------------------------------------- serve --

/// A serve workload after set-up.
pub struct ServeSetup {
    pub scale: Scale,
    pub data: Dataset,
    pub model: HdcModel,
    /// The server under test (with a spare and faults on `serve-faults`).
    pub server: TwoDeviceServer,
    /// A fault-free twin of the server: reference outputs and the traced
    /// run's direct device calls run here, so they neither fault nor
    /// advance the served devices' fault streams.
    pub twin: TwoDeviceServer,
    /// `predict_sequential` on the twin over the whole pool.
    pub reference: Vec<usize>,
    pub accuracy: f64,
    pub sim_train_s: f64,
    pub setup: Walls,
    pub generate_s: Vec<f64>,
}

impl ServeSetup {
    /// Request `i`: the `scale.window` pool rows from `i * window` on,
    /// wrapping around the pool, and their reference predictions.
    pub fn request(&self, i: usize) -> BenchResult<(Matrix, Vec<usize>)> {
        let pool = self.data.test.len();
        let start = i * self.scale.window;
        let rows: Vec<usize> = (start..start + self.scale.window)
            .map(|r| r % pool)
            .collect();
        let batch = self.data.test.features.select_rows(&rows)?;
        let expected = rows.iter().map(|&r| self.reference[r]).collect();
        Ok((batch, expected))
    }
}

/// The serving configuration, with the fault plan of `serve-faults` when
/// `faults` carries its seed. Under faults the retry budget is 6 (breaker
/// at 7 consecutive failures) instead of 3: with the default, a run of
/// four faults quarantines a device, and a seed that quarantines both the
/// spare and a primary drains a stage to the host int8 path, which is
/// about four times faster than the simulated device. Such a run measures
/// another program path (seen on 1 seed in 10); seven faults in a row
/// (p = 0.12^7 per firing) keep every run on the retry/reload path the
/// workload is for.
fn serve_config(scale: &Scale, faults: Option<u64>) -> PipelineConfig {
    let mut config = PipelineConfig::new(scale.dim).with_batches(scale.chunk, scale.chunk);
    if let Some(seed) = faults {
        config.device.fault = FaultConfig::default()
            .with_seed(seed)
            .with_transient_rate(0.10)
            .with_weight_upset_rate(0.02);
        config.resilience = config
            .resilience
            .with_max_retries(6)
            .with_breaker_threshold(7);
    }
    config
}

pub fn setup_serve(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    probe: &mut Probe,
    tally: &mut Tally,
) -> BenchResult<ServeSetup> {
    let faulty = workload == Workload::ServeFaults;
    let spares = usize::from(faulty);
    let mut setup = Vec::new();
    let mut generate_s = Vec::new();
    let mut built = None;
    for _ in 0..scale.serve_setups {
        let (result, factor) = probe.measure(|| -> BenchResult<_> {
            let start = Instant::now();
            let data = generate(scale, seed, scale.pool_rows)?;
            let generated_s = secs(start);
            let pipeline = Pipeline::new(scale.pipeline_config(seed));
            let outcome = pipeline.train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::Tpu,
            )?;
            let server = TwoDeviceServer::with_spares(
                &outcome.model,
                &serve_config(scale, faulty.then_some(seed)),
                &data.test.features,
                spares,
            )?;
            Ok((data, outcome, server, generated_s, secs(start)))
        });
        let (data, outcome, server, generated_s, raw_s) = result?;
        generate_s.push(generated_s);
        setup.push((raw_s, factor));
        built = Some((data, outcome, server));
    }
    let (data, outcome, server) = built.ok_or("at least one set-up is required")?;

    let twin = TwoDeviceServer::new(
        &outcome.model,
        &serve_config(scale, None),
        &data.test.features,
    )?;
    let reference = twin.predict_sequential(&data.test.features)?;
    twin.reset_ledgers();
    let accuracy = hdc::eval::accuracy(&reference, &data.test.labels)?;
    check_accuracy(scale, accuracy, tally, workload.name());

    let setup = ServeSetup {
        scale: *scale,
        data,
        model: outcome.model,
        server,
        twin,
        reference,
        accuracy,
        sim_train_s: outcome.ledger.breakdown().total_s(),
        setup,
        generate_s,
    };
    // Warm-up request, outside every timing.
    let (batch, expected) = setup.request(0)?;
    if setup
        .server
        .predict_supervised(&batch)?
        .report()
        .predictions
        != expected
    {
        eprintln!("check failed: warm-up request diverged from predict_sequential");
        tally.setup_failures += 1;
    }
    setup.server.reset_ledgers();
    Ok(setup)
}

/// One supervised request: `(wall s, matches the reference, degraded)`.
pub fn timed_request(setup: &ServeSetup, batch: &Matrix, expected: &[usize]) -> (f64, bool, bool) {
    let (outcome, wall_s) = timed(|| setup.server.predict_supervised(batch));
    match outcome {
        Ok(outcome) => (
            wall_s,
            outcome.report().predictions == expected,
            outcome.is_degraded(),
        ),
        Err(e) => {
            eprintln!("check failed: request error: {e}");
            (wall_s, false, false)
        }
    }
}

pub fn run_serve(
    setup: &ServeSetup,
    seconds: f64,
    probe: &mut Probe,
    mut tally: Tally,
) -> BenchResult<RunOutcome> {
    let mut latency = Vec::new();
    let mut sim_busiest_s = None;
    let start = Instant::now();
    let mut i = 1;
    while latency.is_empty() || secs(start) < seconds {
        let (batch, expected) = setup.request(i)?;
        let ((wall_s, ok, _), factor) = probe.measure(|| timed_request(setup, &batch, &expected));
        if !ok {
            eprintln!("check failed: request {i} diverged from predict_sequential");
        }
        tally.record(ok);
        latency.push((wall_s, factor));
        if latency.len() == setup.scale.sim_requests {
            sim_busiest_s = Some(setup.server.measured_elapsed_s());
        }
        i += 1;
    }
    let window = setup.scale.window as f64;
    let sim_rows = match sim_busiest_s {
        Some(_) => setup.scale.sim_requests,
        None => latency.len(),
    } as f64
        * window;
    let sim_busiest_s = sim_busiest_s.unwrap_or_else(|| setup.server.measured_elapsed_s());
    let e2e = EndToEnd {
        setup: &setup.setup,
        op: &latency,
        predict: &latency,
        rows_per_predict: window,
        rows_per_op: window,
        accuracy: setup.accuracy,
        sim_train_s: setup.sim_train_s,
        sim_predict_s_per_row: sim_busiest_s / sim_rows,
    };
    Ok(RunOutcome {
        metrics: e2e.metrics(true),
        raw_metrics: e2e.metrics(false),
        samples: vec![("setups", setup.setup.len()), ("requests", latency.len())],
        tally,
    })
}

// -------------------------------------------------------------- metrics --

/// The end-to-end metric inputs. The operation is a train job
/// (`Pipeline::new` + `train`) on train workloads and one request on serve
/// workloads; the predict call is `evaluate` on the test split and the
/// request itself.
struct EndToEnd<'a> {
    setup: &'a [(f64, f64)],
    op: &'a [(f64, f64)],
    predict: &'a [(f64, f64)],
    rows_per_predict: f64,
    rows_per_op: f64,
    accuracy: f64,
    sim_train_s: f64,
    sim_predict_s_per_row: f64,
}

impl EndToEnd<'_> {
    /// The metrics, with wall times scaled by the speed probe or raw.
    fn metrics(&self, scaled: bool) -> Vec<Metric> {
        let op_ms = wall_values(self.op, scaled, 1e3);
        let op_total_s = op_ms.iter().sum::<f64>() / 1e3;
        vec![
            metric(
                "setup_s",
                median(&wall_values(self.setup, scaled, 1.0)),
                "s",
            ),
            metric("wall_op_p50_ms", median(&op_ms), "ms"),
            metric("wall_op_p75_ms", quantile(&op_ms, 0.75), "ms"),
            metric(
                "wall_predict_us_per_row",
                median(&wall_values(
                    self.predict,
                    scaled,
                    1e6 / self.rows_per_predict,
                )),
                "us",
            ),
            metric(
                "wall_rows_per_s",
                self.rows_per_op * self.op.len() as f64 / op_total_s,
                "rows/s",
            ),
            metric("accuracy", self.accuracy, "ratio"),
            metric("sim_train_s", self.sim_train_s, "sim_s"),
            metric(
                "sim_predict_us_per_row",
                1e6 * self.sim_predict_s_per_row,
                "sim_us",
            ),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]
    }
}
