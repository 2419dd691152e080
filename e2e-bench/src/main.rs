//! Wall-clock benchmark of HyperEdge training and serving, driven through
//! the library's public API from one process.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <train-bagged|train-cpu|serve|serve-faults> \
//!     [--seed 42] [--seconds 20] [--trace 0|1] [--smoke 0|1]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run and writes its spans to
//! `e2e-bench/out/`. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 1 when
//! any output check fails. See `e2e-bench/README.md` for what each
//! workload and metric means.

mod report;
mod speed;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{metrics_json, Provenance};
use speed::Probe;
use workloads::{BenchResult, RunOutcome, Scale, Tally, Workload};

const USAGE: &str = "usage: e2e-bench --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke 0|1]";

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::TrainBagged,
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("flag {flag}: `{value}` is not valid");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" | "--smoke" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                if flag == "--trace" {
                    parsed.trace = on;
                } else {
                    parsed.smoke = on;
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &Args, provenance: &Provenance) -> BenchResult<RunOutcome> {
    // The CLI's default: the exact sequential host GEMM path.
    hd_tensor::gemm::set_thread_cap(1);
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let mut tally = Tally::default();
    let mut probe = Probe::new();
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    if !args.trace {
        return if w.is_serve() {
            let setup = workloads::setup_serve(w, &scale, seed, &mut probe, &mut tally)?;
            workloads::run_serve(&setup, seconds, &mut probe, tally)
        } else {
            let setup = workloads::setup_train(w, &scale, seed, &mut probe, &mut tally)?;
            Ok(workloads::run_train(&setup, seconds, &mut probe, tally))
        };
    }

    let rec = trace::Recorder::new();
    let (metrics, tally) = if w.is_serve() {
        let setup = workloads::setup_serve(w, &scale, seed, &mut probe, &mut tally)?;
        trace::trace_serve(&setup, seconds, &rec, tally)?
    } else {
        let setup = workloads::setup_train(w, &scale, seed, &mut probe, &mut tally)?;
        trace::trace_train(&setup, seconds, &rec, tally)?
    };
    let spans = rec.spans();
    let path = out_path(args, "spans");
    write_file(&path, &trace::spans_json(&provenance.to_json(), &spans))?;
    eprintln!("spans written to {}", path.display());
    let ops = metrics
        .iter()
        .find(|m| m.name == "trace.ops")
        .map_or(0, |m| m.value as usize);
    Ok(RunOutcome {
        metrics,
        raw_metrics: Vec::new(),
        samples: vec![("traced ops", ops), ("spans", spans.len())],
        tally,
    })
}

fn out_path(args: &Args, kind: &str) -> PathBuf {
    let scale = if args.smoke { "-smoke" } else { "" };
    bench_dir().join("out").join(format!(
        "{kind}-{}-seed{}-trace{}{scale}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ))
}

fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        println!("{USAGE}\nworkloads: {}", names.join(", "));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = bench_dir().join("..");
    let provenance = Provenance::collect(&root, args.seed, args.smoke);
    let outcome = match run(&args, &provenance) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };

    let tally = outcome.tally;
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        metrics_json(&outcome.metrics)
    );
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(what, n)| format!("{}: {n}", report::json_str(what)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seconds\": {}, \"provenance\": {},\n\
         \"samples\": {{{}}},\n\"unscaled_wall_metrics\": {},\n\"result\": {result}}}\n",
        report::json_str(args.workload.name()),
        report::json_num(args.seconds),
        provenance.to_json(),
        samples.join(", "),
        metrics_json(&outcome.raw_metrics)
    );
    if let Err(e) = write_file(&out_path(&args, "result"), &record) {
        eprintln!("warning: could not write the result record: {e}");
    }

    println!(
        "workload {} ({}), seed {}, {} s, trace {}",
        args.workload.name(),
        provenance.scale,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {}", provenance.to_json());
    for (what, n) in &outcome.samples {
        println!("samples    {what}: {n}");
    }
    for m in &outcome.metrics {
        println!("metric     {:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.raw_metrics {
        println!("unscaled   {:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("{result}");
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
