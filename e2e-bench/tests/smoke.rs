//! Smoke-scale self-test: every workload, untraced and traced, must pass
//! its output checks and report exactly the metrics `BENCHMARK.json`
//! names, with the units it names.
//!
//! Run with `cargo test --release --offline --manifest-path e2e-bench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value (just enough of JSON for the benchmark's files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    other => panic!("bad literal {other}"),
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let Json::Arr(items) = Parser::parse(&text).get(section).clone() else {
        panic!("{section} is not an array")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs one smoke-scale workload; returns its metrics by name.
fn run(workload: &str, trace: bool) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e-bench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "1"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Parser::parse(stdout.lines().last().expect("a result line"));
    let Json::Obj(fields) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(*result.get("correct"), Json::Bool(true), "{workload}");
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);

    let section = if trace { "per_layer" } else { "end_to_end" };
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let reported: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.get("unit").str().to_string()))
        .collect();
    assert_eq!(reported, declared(section), "{workload} trace={trace}");
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").num();
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            (name.clone(), v)
        })
        .collect()
}

const WORKLOADS: [&str; 4] = ["train-bagged", "train-cpu", "serve", "serve-faults"];

#[test]
fn untraced_runs_report_every_end_to_end_metric_above_zero() {
    for workload in WORKLOADS {
        for (name, v) in run(workload, false) {
            assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_spans() {
    for workload in WORKLOADS {
        let m = run(workload, true);
        assert!(
            m["trace.ops"] >= 1.0 && m["trace.spans"] >= 1.0,
            "{workload}"
        );
        assert!(m["trace.overhead_ratio"] > 0.0, "{workload}");
        assert!(m["datasets.generate_s"] > 0.0, "{workload}");
        let spans = bench_dir().join(format!("out/spans-{workload}-seed5-trace1-smoke.json"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        let file = Parser::parse(&text);
        assert!(matches!(file.get("spans"), Json::Arr(s) if !s.is_empty()));
        assert!(matches!(file.get("self_time"), Json::Arr(s) if !s.is_empty()));

        let zero = |prefix: &str| {
            for (name, v) in m.iter().filter(|(n, _)| n.starts_with(prefix)) {
                assert_eq!(*v, 0.0, "{workload}: {name}");
            }
        };
        match workload {
            "train-cpu" => {
                zero("tpu.");
                zero("nn.");
                zero("ledger.compilations");
                assert!(m["backend.encode_s"] > 0.0 && m["backend.update_s"] > 0.0);
            }
            "train-bagged" => {
                assert_eq!(m["backend.encode_calls"], 4.0);
                assert!(m["ledger.compilations"] >= 4.0 && m["nn.compile_s"] > 0.0);
                assert!(m["bagging.merge_s"] > 0.0);
            }
            "serve" => {
                zero("supervision.");
                assert_eq!(m["fleet.useful_invoke_ratio"], 1.0);
                assert!(m["tpu.encode_invoke_ms"] > 0.0 && m["serve.sequential_ms"] > 0.0);
            }
            _ => assert!(m["tpu.invocations"] > 0.0),
        }
    }
}
