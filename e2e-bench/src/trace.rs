//! The traced run. It drives the same jobs through the layers' public entry
//! points, records a span around each call from this file, and turns the
//! spans and the layers' own counters into the per-layer metrics. The
//! end-to-end metrics never come from here: the traced and untraced
//! operations alternate, and their ratio is reported as tracing overhead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hd_bagging::{bagged_member_specs, train_members_parallel, MemberSpec};
use hd_tensor::kernels::{self, KernelStats};
use hd_tensor::rng::DetRng;
use hd_tensor::{ops, Matrix};
use hdc::{
    BaseHypervectors, ClassHypervectors, Encoder, Executor, NonlinearEncoder, TrainConfig,
    TrainStats,
};
use hyperedge::backend::CALIBRATION_ROWS;
use hyperedge::serving::TwoDeviceServer;
use hyperedge::{wide_model, BackendLedger, ExecutionBackend, ExecutionSetting, Pipeline};
use tpu_sim::TimingLedger;
use wide_nn::compile;

use crate::report::{json_num, json_str, mean, median, metric, secs, timed, Metric};
use crate::workloads::{
    timed_request, timed_train_job, wall_values, BenchResult, ServeSetup, Tally, TrainSetup,
};

/// One timed call: name, start and end (seconds since the recorder's
/// epoch), the enclosing span and the operation (job or request) it
/// belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Keeps spans in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a new span; `f` receives the span's id so that
    /// calls it makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_s = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end_s = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            op,
            name,
            start_s,
            end_s,
        });
        out
    }

    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per span name: calls, total time, and self time (total minus the time
/// of its direct children; children of one span never overlap here, as
/// every traced call runs on the benchmark's thread).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut child_s: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_s.entry(p).or_default() += s.duration_s();
        }
    }
    let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.duration_s();
        row.2 += (s.duration_s() - child_s.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    table
}

/// The span file: every span plus the per-name self-time table.
#[must_use]
pub fn spans_json(provenance: &str, spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_s\": {}, \"end_s\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                json_str(s.name),
                json_num(s.start_s),
                json_num(s.end_s)
            )
        })
        .collect();
    let table: Vec<String> = self_times(spans)
        .into_iter()
        .map(|(name, (calls, total, own))| {
            format!(
                "{{\"name\": {}, \"calls\": {calls}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(name),
                json_num(total),
                json_num(own)
            )
        })
        .collect();
    format!(
        "{{\"provenance\": {provenance},\n\"self_time\": [\n{}\n],\n\"spans\": [\n{}\n]}}\n",
        table.join(",\n"),
        rows.join(",\n")
    )
}

/// Per-layer metric names, in report order. `BENCHMARK.json` lists the
/// same names. Times are medians per operation (a train job or a serve
/// request); counts are means per operation.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("datasets.generate_s", "s"),
    ("backend.encode_s", "s"),
    ("backend.encode_calls", "count"),
    ("backend.update_s", "s"),
    ("backend.predict_s", "s"),
    ("bagging.merge_s", "s"),
    ("nn.compile_s", "s"),
    ("ledger.compilations", "count"),
    ("ledger.cache_hits", "count"),
    ("ledger.model_loads", "count"),
    ("ledger.invocations", "count"),
    ("ledger.sim_encode_s", "sim_s"),
    ("ledger.sim_update_s", "sim_s"),
    ("ledger.sim_model_gen_s", "sim_s"),
    ("ledger.sim_infer_s", "sim_s"),
    ("runtime.closed_form_train_s", "sim_s"),
    ("runtime.closed_form_gap", "ratio"),
    ("tpu.encode_invoke_ms", "ms"),
    ("tpu.score_invoke_ms", "ms"),
    ("tpu.host_s_per_sim_s", "s/sim_s"),
    ("tpu.sim_compute_s", "sim_s"),
    ("tpu.sim_transfer_s", "sim_s"),
    ("tpu.sim_exposed_transfer_s", "sim_s"),
    ("tpu.sim_overhead_s", "sim_s"),
    ("tpu.invocations", "count"),
    ("serve.sequential_ms", "ms"),
    ("serve.runtime_overhead_ms", "ms"),
    ("supervision.faults", "count"),
    ("supervision.retries", "count"),
    ("supervision.backoff_s", "sim_s"),
    ("supervision.rebinds", "count"),
    ("supervision.substitutions", "count"),
    ("fleet.useful_invoke_ratio", "ratio"),
    ("fleet.quarantined", "count"),
    ("fleet.degraded_share", "ratio"),
    ("kernels.simd_gemm_calls", "count"),
    ("kernels.portable_gemm_calls", "count"),
    ("kernels.packed_score_rows", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
];

/// Standalone compilations timed per traced run; `nn.compile_s` is their
/// median.
const COMPILE_SAMPLES: usize = 3;

/// Collects per-layer values by name; names never set report 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Median per-operation sum of the named spans' durations.
fn per_op_sum_s(spans: &[Span], name: &str) -> f64 {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per_op.entry(s.op).or_default() += s.duration_s();
    }
    median(&per_op.into_values().collect::<Vec<_>>())
}

fn per_op_calls(spans: &[Span], name: &str, ops: usize) -> f64 {
    spans.iter().filter(|s| s.name == name).count() as f64 / ops.max(1) as f64
}

fn span_durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .collect()
}

fn set_kernels(layers: &mut Layers, deltas: &[KernelStats]) {
    let avg =
        |f: fn(&KernelStats) -> u64| mean(&deltas.iter().map(|d| f(d) as f64).collect::<Vec<_>>());
    layers.set("kernels.simd_gemm_calls", avg(|d| d.simd_gemm_calls));
    layers.set(
        "kernels.portable_gemm_calls",
        avg(|d| d.portable_gemm_calls),
    );
    layers.set("kernels.packed_score_rows", avg(|d| d.packed_score_rows));
}

// ---------------------------------------------------------------- train --

/// Delegates to a backend and records one span per `encode_batch` /
/// `train_classes` call. It keeps the trait's default `encode_train`
/// (encode, then update), which is the backends' own path at threads = 1.
struct TimedExecutor<'a> {
    inner: &'a dyn ExecutionBackend,
    rec: &'a Recorder,
    parent: usize,
    op: u64,
}

impl Executor for TimedExecutor<'_> {
    fn encode_batch(&self, encoder: &dyn Encoder, batch: &Matrix) -> hdc::Result<Matrix> {
        self.rec
            .span("backend.encode_batch", Some(self.parent), self.op, |_| {
                self.inner.encode_batch(encoder, batch)
            })
    }

    fn train_classes(
        &self,
        encoded: &Matrix,
        labels: &[usize],
        classes: usize,
        config: &TrainConfig,
    ) -> hdc::Result<(ClassHypervectors, TrainStats)> {
        self.rec
            .span("backend.train_classes", Some(self.parent), self.op, |_| {
                self.inner.train_classes(encoded, labels, classes, config)
            })
    }
}

/// The member plan `Pipeline::train` builds for `setting`: the bagging
/// plan, or one member over the whole dataset. The bit-identity check
/// against `Pipeline::train`'s model keeps the two in step.
fn member_specs(
    setup: &TrainSetup,
    setting: ExecutionSetting,
) -> Result<Vec<MemberSpec>, hd_bagging::BaggingError> {
    let features = &setup.data.train.features;
    let config = &setup.config;
    match setting {
        ExecutionSetting::TpuBagging => {
            bagged_member_specs(features.rows(), features.cols(), &config.bagging)
        }
        ExecutionSetting::CpuBaseline | ExecutionSetting::Tpu => {
            let mut rng = DetRng::new(config.seed);
            Ok(vec![MemberSpec {
                index: 0,
                rows: None,
                sampled_features: features.cols(),
                encoder: NonlinearEncoder::new(BaseHypervectors::generate(
                    features.cols(),
                    config.dim,
                    &mut rng,
                )),
                train: TrainConfig::new(config.dim)
                    .with_iterations(config.iterations)
                    .with_learning_rate(config.learning_rate)
                    .with_seed(config.seed),
            }])
        }
    }
}

struct TracedJob {
    wall_s: f64,
    matches: bool,
    ledger: BackendLedger,
    kernels: KernelStats,
}

/// One job through the public entry points, spans around each call.
fn traced_train_job(setup: &TrainSetup, rec: &Recorder, op: u64) -> BenchResult<TracedJob> {
    let data = &setup.data;
    let setting = setup.workload.setting();
    let kernels_before = kernels::stats();
    let start = Instant::now();
    let (model, predictions, ledger) = rec.span("job", None, op, |job| -> BenchResult<_> {
        let pipeline = Pipeline::new(setup.config.clone());
        let backend = pipeline.backend(setting);
        let specs = rec.span("bagging.plan", Some(job), op, |_| {
            member_specs(setup, setting)
        })?;
        let (bagged, _stats) = rec.span("bagging.train_members", Some(job), op, |parent| {
            let exec = TimedExecutor {
                inner: backend,
                rec,
                parent,
                op,
            };
            train_members_parallel(
                &data.train.features,
                &data.train.labels,
                data.classes,
                specs,
                &exec,
                setup.config.member_recovery,
                1,
            )
        })?;
        let model = rec.span("bagging.merge", Some(job), op, |_| bagged.merge())?;
        let predictions = rec.span("backend.predict", Some(job), op, |_| {
            backend.predict(&model, &data.test.features)
        })?;
        Ok((model, predictions, backend.ledger()))
    })?;
    let wall_s = secs(start);
    let kernels = kernels::stats().delta_since(&kernels_before);
    let accuracy = hdc::eval::accuracy(&predictions, &data.test.labels)?;
    let matches =
        model == setup.reference.model && accuracy.to_bits() == setup.reference_accuracy.to_bits();
    Ok(TracedJob {
        wall_s,
        matches,
        ledger,
        kernels,
    })
}

/// Standalone compilation of the networks a train job compiles: each
/// member's encoder, calibrated on its first rows as the device backend
/// does, and the merged model's inference network.
fn compile_train_networks(setup: &TrainSetup) -> BenchResult<f64> {
    let data = &setup.data;
    let target = &setup.config.device.target;
    let specs = member_specs(setup, setup.workload.setting())?;
    let (compiled, seconds) = timed(|| -> BenchResult<()> {
        for spec in &specs {
            let member = match &spec.rows {
                Some(rows) => data.train.features.select_rows(rows)?,
                None => data.train.features.clone(),
            };
            let calibration = member.slice_rows(0, member.rows().min(CALIBRATION_ROWS))?;
            compile::compile(
                &wide_model::encoder_network(&spec.encoder)?,
                &calibration,
                target,
            )?;
        }
        let test = &data.test.features;
        let calibration = test.slice_rows(0, test.rows().min(CALIBRATION_ROWS))?;
        compile::compile(
            &wide_model::inference_network(&setup.reference.model)?,
            &calibration,
            target,
        )?;
        Ok(())
    });
    compiled?;
    Ok(seconds)
}

pub fn trace_train(
    setup: &TrainSetup,
    seconds: f64,
    rec: &Recorder,
    mut tally: Tally,
) -> BenchResult<(Vec<Metric>, Tally)> {
    let device_path = setup.workload.setting() != ExecutionSetting::CpuBaseline;
    let mut compile_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut op = 0;
    while traced.is_empty() || secs(start) < seconds {
        if device_path && compile_s.len() < COMPILE_SAMPLES {
            compile_s.push(compile_train_networks(setup)?);
        }
        let (t, e, _, ok) = timed_train_job(setup)?;
        tally.record(ok);
        untraced_s.push(t + e);
        let job = traced_train_job(setup, rec, op)?;
        if !job.matches {
            eprintln!("check failed: traced job {op} diverged from Pipeline::train's model");
        }
        tally.record(job.matches);
        traced.push(job);
        op += 1;
    }

    let spans = rec.spans();
    let ops = traced.len();
    let mut layers = Layers::default();
    layers.set(
        "datasets.generate_s",
        median(&wall_values(&setup.setup, false, 1.0)),
    );
    layers.set(
        "backend.encode_s",
        per_op_sum_s(&spans, "backend.encode_batch"),
    );
    layers.set(
        "backend.encode_calls",
        per_op_calls(&spans, "backend.encode_batch", ops),
    );
    layers.set(
        "backend.update_s",
        per_op_sum_s(&spans, "backend.train_classes"),
    );
    layers.set("backend.predict_s", per_op_sum_s(&spans, "backend.predict"));
    layers.set("bagging.merge_s", per_op_sum_s(&spans, "bagging.merge"));
    if !compile_s.is_empty() {
        layers.set("nn.compile_s", median(&compile_s));
    }
    let ledger = |f: fn(&BackendLedger) -> f64| {
        mean(&traced.iter().map(|j| f(&j.ledger)).collect::<Vec<_>>())
    };
    layers.set("ledger.compilations", ledger(|l| l.compilations as f64));
    layers.set("ledger.cache_hits", ledger(|l| l.cache_hits as f64));
    layers.set("ledger.model_loads", ledger(|l| l.model_loads as f64));
    layers.set("ledger.invocations", ledger(|l| l.invocations as f64));
    layers.set("ledger.sim_encode_s", ledger(|l| l.encode_s));
    layers.set("ledger.sim_update_s", ledger(|l| l.update_s));
    layers.set("ledger.sim_model_gen_s", ledger(|l| l.model_gen_s));
    layers.set("ledger.sim_infer_s", ledger(|l| l.infer_s));
    let closed_form_s = setup.reference.runtime.total_s();
    layers.set("runtime.closed_form_train_s", closed_form_s);
    layers.set(
        "runtime.closed_form_gap",
        closed_form_s / setup.reference.ledger.breakdown().total_s(),
    );
    set_kernels(
        &mut layers,
        &traced.iter().map(|j| j.kernels).collect::<Vec<_>>(),
    );
    let traced_s: Vec<f64> = traced.iter().map(|j| j.wall_s).collect();
    layers.set(
        "trace.overhead_ratio",
        median(&traced_s) / median(&untraced_s),
    );
    layers.set("trace.ops", ops as f64);
    layers.set("trace.spans", spans.len() as f64);
    Ok((layers.into_metrics(), tally))
}

// ---------------------------------------------------------------- serve --

fn ledger_sum(server: &TwoDeviceServer) -> TimingLedger {
    let pool = server.pool();
    let mut sum = TimingLedger::default();
    for i in 0..pool.len() {
        let l = pool.device(i).ledger();
        sum.invocations += l.invocations;
        sum.faulted_invocations += l.faulted_invocations;
        sum.compute_s += l.compute_s;
        sum.transfer_s += l.transfer_s;
        sum.exposed_transfer_s += l.exposed_transfer_s;
        sum.overhead_s += l.overhead_s;
    }
    sum
}

struct TracedRequest {
    supervised_s: f64,
    sequential_s: f64,
    device: TimingLedger,
    kernels: KernelStats,
    supervision: [f64; 5],
    degraded: bool,
    invoke_wall_s: f64,
    invoke_sim_s: f64,
}

/// The direct device path on the fault-free twin: each chunk through the
/// encode device's then the score device's `invoke_overlapped`.
fn direct_invokes(
    setup: &ServeSetup,
    rec: &Recorder,
    parent: usize,
    op: u64,
    batch: &Matrix,
) -> BenchResult<(Vec<usize>, f64, f64)> {
    let (mut wall_s, mut sim_s) = (0.0, 0.0);
    let mut predictions = Vec::with_capacity(batch.rows());
    let chunk = setup.scale.chunk;
    for start in (0..batch.rows()).step_by(chunk) {
        let part = batch.slice_rows(start, (start + chunk).min(batch.rows()))?;
        let (encoded, enc_s) = timed(|| {
            rec.span("tpu.encode_invoke", Some(parent), op, |_| {
                setup.twin.encode_device().invoke_overlapped(&part)
            })
        });
        let (encoded, enc) = encoded?;
        let (scored, score_s) = timed(|| {
            rec.span("tpu.score_invoke", Some(parent), op, |_| {
                setup.twin.score_device().invoke_overlapped(&encoded)
            })
        });
        let (scores, score) = scored?;
        wall_s += enc_s + score_s;
        sim_s += enc.total_s + score.total_s;
        for r in 0..scores.rows() {
            predictions.push(ops::argmax(scores.row(r))?);
        }
    }
    Ok((predictions, wall_s, sim_s))
}

fn traced_request(
    setup: &ServeSetup,
    rec: &Recorder,
    op: u64,
    batch: &Matrix,
    expected: &[usize],
) -> BenchResult<(TracedRequest, bool)> {
    rec.span("request", None, op, |root| {
        let ledger_before = ledger_sum(&setup.server);
        let kernels_before = kernels::stats();
        let (outcome, supervised_s) = timed(|| {
            rec.span("serve.predict_supervised", Some(root), op, |_| {
                setup.server.predict_supervised(batch)
            })
        });
        let kernels = kernels::stats().delta_since(&kernels_before);
        let ledger_after = ledger_sum(&setup.server);
        let outcome = outcome?;
        let report = outcome.report();
        let mut supervision = [0.0; 5];
        for s in &report.supervision {
            supervision[0] += s.faults as f64;
            supervision[1] += s.retries as f64;
            supervision[2] += s.backoff_s;
            supervision[3] += s.rebinds as f64;
            supervision[4] += s.substitutions as f64;
        }
        let (sequential, sequential_s) = timed(|| {
            rec.span("serve.predict_sequential", Some(root), op, |_| {
                setup.twin.predict_sequential(batch)
            })
        });
        let (direct, invoke_wall_s, invoke_sim_s) =
            rec.span("serve.direct_invokes", Some(root), op, |parent| {
                direct_invokes(setup, rec, parent, op, batch)
            })?;
        let ok = report.predictions == expected && sequential? == expected && direct == expected;
        let device = TimingLedger {
            invocations: ledger_after.invocations - ledger_before.invocations,
            faulted_invocations: ledger_after.faulted_invocations
                - ledger_before.faulted_invocations,
            compute_s: ledger_after.compute_s - ledger_before.compute_s,
            transfer_s: ledger_after.transfer_s - ledger_before.transfer_s,
            exposed_transfer_s: ledger_after.exposed_transfer_s - ledger_before.exposed_transfer_s,
            overhead_s: ledger_after.overhead_s - ledger_before.overhead_s,
            ..TimingLedger::default()
        };
        Ok((
            TracedRequest {
                supervised_s,
                sequential_s,
                device,
                kernels,
                supervision,
                degraded: outcome.is_degraded(),
                invoke_wall_s,
                invoke_sim_s,
            },
            ok,
        ))
    })
}

/// Standalone compilation of the server's two networks, calibrated as
/// `TwoDeviceServer` calibrates them.
fn compile_serve_networks(setup: &ServeSetup) -> BenchResult<f64> {
    let pool = &setup.data.test.features;
    let target = &hyperedge::PipelineConfig::new(setup.scale.dim)
        .device
        .target;
    let calibration = pool.slice_rows(0, pool.rows().min(CALIBRATION_ROWS))?;
    let encoded = setup.model.encoder().encode(&calibration)?;
    let (compiled, seconds) = timed(|| -> BenchResult<()> {
        compile::compile(
            &wide_model::encoder_network(setup.model.encoder())?,
            &calibration,
            target,
        )?;
        compile::compile(
            &wide_model::scoring_network(&setup.model)?,
            &encoded,
            target,
        )?;
        Ok(())
    });
    compiled?;
    Ok(seconds)
}

pub fn trace_serve(
    setup: &ServeSetup,
    seconds: f64,
    rec: &Recorder,
    mut tally: Tally,
) -> BenchResult<(Vec<Metric>, Tally)> {
    let mut compile_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced = Vec::new();
    let mut degraded = 0usize;
    setup.server.reset_ledgers();
    let start = Instant::now();
    let mut i = 1;
    while traced.is_empty() || secs(start) < seconds {
        if compile_s.len() < COMPILE_SAMPLES {
            compile_s.push(compile_serve_networks(setup)?);
        }
        let (batch, expected) = setup.request(i)?;
        let (wall_s, ok, was_degraded) = timed_request(setup, &batch, &expected);
        tally.record(ok);
        untraced_s.push(wall_s);
        degraded += usize::from(was_degraded);
        let (batch, expected) = setup.request(i + 1)?;
        let (request, ok) = traced_request(setup, rec, i as u64 + 1, &batch, &expected)?;
        if !ok {
            eprintln!(
                "check failed: traced request {} diverged from the reference",
                i + 1
            );
        }
        tally.record(ok);
        degraded += usize::from(request.degraded);
        traced.push(request);
        i += 2;
    }

    let spans = rec.spans();
    let ops = traced.len();
    let total = ledger_sum(&setup.server);
    let per_op = |f: &dyn Fn(&TracedRequest) -> f64| traced.iter().map(f).collect::<Vec<_>>();
    let mut layers = Layers::default();
    layers.set("datasets.generate_s", median(&setup.generate_s));
    layers.set("nn.compile_s", median(&compile_s));
    layers.set(
        "tpu.encode_invoke_ms",
        1e3 * median(&span_durations_s(&spans, "tpu.encode_invoke")),
    );
    layers.set(
        "tpu.score_invoke_ms",
        1e3 * median(&span_durations_s(&spans, "tpu.score_invoke")),
    );
    layers.set(
        "tpu.host_s_per_sim_s",
        median(&per_op(&|r| r.invoke_wall_s / r.invoke_sim_s)),
    );
    layers.set(
        "tpu.sim_compute_s",
        median(&per_op(&|r| r.device.compute_s)),
    );
    layers.set(
        "tpu.sim_transfer_s",
        median(&per_op(&|r| r.device.transfer_s)),
    );
    layers.set(
        "tpu.sim_exposed_transfer_s",
        median(&per_op(&|r| r.device.exposed_transfer_s)),
    );
    layers.set(
        "tpu.sim_overhead_s",
        median(&per_op(&|r| r.device.overhead_s)),
    );
    layers.set(
        "tpu.invocations",
        mean(&per_op(&|r| r.device.invocations as f64)),
    );
    let sequential_s = median(&per_op(&|r| r.sequential_s));
    let supervised_s = median(&per_op(&|r| r.supervised_s));
    layers.set("serve.sequential_ms", 1e3 * sequential_s);
    layers.set(
        "serve.runtime_overhead_ms",
        1e3 * (supervised_s - sequential_s),
    );
    let names = [
        "supervision.faults",
        "supervision.retries",
        "supervision.backoff_s",
        "supervision.rebinds",
        "supervision.substitutions",
    ];
    for (k, name) in names.into_iter().enumerate() {
        layers.set(name, mean(&per_op(&|r| r.supervision[k])));
    }
    let attempted_invokes = (total.invocations + total.faulted_invocations) as f64;
    layers.set(
        "fleet.useful_invoke_ratio",
        total.invocations as f64 / attempted_invokes.max(1.0),
    );
    layers.set(
        "fleet.quarantined",
        setup.server.pool().quarantined().len() as f64,
    );
    layers.set(
        "fleet.degraded_share",
        degraded as f64 / (traced.len() + untraced_s.len()) as f64,
    );
    set_kernels(
        &mut layers,
        &traced.iter().map(|r| r.kernels).collect::<Vec<_>>(),
    );
    layers.set("trace.overhead_ratio", supervised_s / median(&untraced_s));
    layers.set("trace.ops", ops as f64);
    layers.set("trace.spans", spans.len() as f64);
    Ok((layers.into_metrics(), tally))
}
