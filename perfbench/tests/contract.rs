//! The printed result line against `BENCHMARK.json`: same workloads,
//! same metric names and units, in both passes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use cohmeleon_perfbench::bench::WORKLOADS;

/// A JSON value, enough of it for `BENCHMARK.json` and the result line.
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
            Json::Obj(fields) => {
                &fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no `{key}`"))
                    .1
            }
            other => panic!("`{key}` looked up in {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected `{}` at {}", c as char, self.i);
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
                        panic!("object key")
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
                let start = self.i + 1;
                let end = start
                    + self.s[start..]
                        .iter()
                        .position(|&c| c == b'"')
                        .expect("closed string");
                self.i = end + 1;
                let s = std::str::from_utf8(&self.s[start..end]).expect("UTF-8");
                assert!(!s.contains('\\'), "escapes are not used");
                Json::Str(s.to_owned())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

/// Runs the benchmark binary and returns its result line's metrics.
fn printed(workload: &str, trace: &str) -> (Json, BTreeMap<String, String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    let Json::Obj(metrics) = result.get("metrics").clone() else {
        panic!("metrics object")
    };
    let units = metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").str().to_owned()))
        .collect();
    (result, units)
}

#[test]
fn workloads_match_the_benchmark_file() {
    let file = benchmark_json();
    let declared: Vec<&str> = file
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(declared, ours);
    // Each workload has its own test above.
    assert_eq!(ours.len(), 4);
    let command: Vec<&str> = file.get("command").arr().iter().map(Json::str).collect();
    assert!(command.contains(&"perfbench/Cargo.toml"), "{command:?}");
}

/// Both passes of `workload` print exactly the names and units of
/// `BENCHMARK.json`, pass their checks, and the end-to-end metrics
/// never read 0.
fn check_printed(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (result, units) = printed(workload, trace);
        assert_eq!(units, declared(section), "{workload} --trace {trace}");
        assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
        assert_eq!(result.get("failed"), &Json::Num(0.0), "{workload}");
        let Json::Num(attempted) = result.get("attempted") else {
            panic!("attempted")
        };
        assert!(*attempted >= 1.0, "{workload}");
        if trace == "1" {
            continue;
        }
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics object")
        };
        for (name, m) in metrics {
            let Json::Num(v) = m.get("value") else {
                panic!("{name} value")
            };
            assert!(*v > 0.0, "{workload}: {name} reads {v}");
        }
    }
}

#[test]
fn paper_grid_prints_the_benchmark_files_metrics() {
    check_printed("paper-grid");
}

#[test]
fn dma_stream_prints_the_benchmark_files_metrics() {
    check_printed("dma-stream");
}

#[test]
fn fleet_sweep_prints_the_benchmark_files_metrics() {
    check_printed("fleet-sweep");
}

#[test]
fn serve_decide_prints_the_benchmark_files_metrics() {
    check_printed("serve-decide");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
