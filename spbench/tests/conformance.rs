//! Conformance at smoke scale: every workload at 1/100 of its operation
//! counts, through the same code paths as a full run. What is printed
//! must be what `BENCHMARK.json` lists, both ways; nothing may fail; and
//! readings that derive only from the seed must repeat exactly.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use spbench::graphs;
use spbench::json::{self, Value};
use spbench::spec::{self, MetricSpec, Workload};

/// 1/100 of `spec::FULL_SECONDS`.
const SMOKE_SECONDS: &str = "0.2";

/// One pass of one workload, as printed.
struct Pass {
    /// `(metric, value)` of every metric line, in print order.
    lines: Vec<(String, f64)>,
    /// The driver's result object: the last line.
    result: Value,
}

impl Pass {
    fn value(&self, metric: &str) -> f64 {
        self.lines
            .iter()
            .find(|(name, _)| name == metric)
            .unwrap_or_else(|| panic!("{metric} was not printed"))
            .1
    }
}

fn run_pass(workload: Workload, seed: u64, trace: bool) -> Pass {
    // Scratch directories are named after workload, seed and process,
    // so passes running side by side share this without colliding.
    let data_dir = std::env::temp_dir().join(format!("spbench-conformance-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_spbench"))
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", SMOKE_SECONDS])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(&data_dir)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("output is UTF-8");
    assert!(
        output.status.success(),
        "{} exited with {}: {}",
        workload.name(),
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines = Vec::new();
    let mut last = "";
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [name, metric, value, _unit, n] = fields[..] {
            assert_eq!(name, workload.name(), "{line}");
            assert!(n.starts_with("n="), "{line}");
            lines.push((metric.to_string(), value.parse().expect("a number")));
        }
        last = line;
    }
    Pass {
        lines,
        result: json::parse(last).expect("the last line is the result object"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The pass printed exactly the listed metrics (plus `failed_share`),
/// its result object carries exactly the listed metrics, and nothing
/// failed.
fn assert_conforms(workload: Workload, pass: &Pass, listed: &[MetricSpec]) {
    let printed: BTreeSet<&str> = pass.lines.iter().map(|(name, _)| name.as_str()).collect();
    let expected: BTreeSet<&str> = listed
        .iter()
        .map(|m| m.name)
        .chain([spec::FAILED_SHARE.name])
        .collect();
    assert_eq!(printed, expected, "{}", workload.name());
    assert_eq!(
        printed.len(),
        pass.lines.len(),
        "a metric was printed twice"
    );
    assert!(printed.iter().all(|name| well_formed(name)));
    assert!(well_formed(workload.name()));

    let in_result: Vec<&str> = pass
        .result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("the result has metrics")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let listed_names: Vec<&str> = listed.iter().map(|m| m.name).collect();
    assert_eq!(in_result, listed_names, "{}", workload.name());
    for (name, reading) in pass.result.get("metrics").and_then(Value::as_obj).unwrap() {
        let spec = spec::find(name).expect("listed");
        assert_eq!(reading.get("unit").and_then(Value::as_str), Some(spec.unit));
        assert!(reading
            .get("value")
            .and_then(Value::as_f64)
            .unwrap()
            .is_finite());
    }

    assert_eq!(pass.value("failed_share"), 0.0, "{}", workload.name());
    assert_eq!(pass.result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(pass.result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        pass.result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap()
            >= 1.0
    );
}

/// Readings marked exact are equal in two passes of one seed.
fn assert_repeats(workload: Workload, a: &Pass, b: &Pass) {
    for (metric, value) in &a.lines {
        if spec::is_exact(workload, metric) {
            let again = b.value(metric);
            assert!(
                (value - again).abs() <= 1e-9 * value.abs().max(again.abs()),
                "{} {metric}: {value} then {again}",
                workload.name()
            );
        }
    }
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses");
    assert_eq!(committed, spec::manifest());
    let keys: Vec<&str> = committed
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

/// One workload's conformance: an untraced pass twice, a traced pass
/// once.
fn conforms(workload: Workload) {
    let first = run_pass(workload, 1, false);
    assert_conforms(workload, &first, &spec::END_TO_END);
    let second = run_pass(workload, 1, false);
    assert_repeats(workload, &first, &second);
    // Operation counts repeat where no loop runs until another finishes.
    if spec::is_exact(workload, "server.requests") {
        assert_eq!(
            first.result.get("attempted"),
            second.result.get("attempted"),
            "{}",
            workload.name()
        );
    }

    let traced = run_pass(workload, 1, true);
    assert_conforms(workload, &traced, &spec::PER_LAYER);
    assert_eq!(traced.value("account.reference_match"), 1.0);
    assert_eq!(traced.value("scatter.epoch_regressions"), 0.0);
    assert!(
        traced.value("server.residual_us") >= 0.0,
        "{}",
        workload.name()
    );
    if workload == Workload::ReadScan {
        assert_eq!(traced.value("service.frame_hit_rate"), 0.0);
    }
    if workload == Workload::Ingest {
        // The cheapest traced pass: again for the exact counts, and once
        // more from another seed.
        assert_repeats(workload, &traced, &run_pass(workload, 1, true));
        let other = run_pass(workload, 2, true);
        assert_ne!(
            traced.value("query.rows_per_query"),
            other.value("query.rows_per_query"),
            "seed 2 asked seed 1's questions"
        );
    }
}

#[test]
fn read_hot_conforms() {
    conforms(Workload::ReadHot);
}

#[test]
fn read_scan_conforms() {
    conforms(Workload::ReadScan);
}

#[test]
fn churn_conforms() {
    conforms(Workload::Churn);
}

#[test]
fn ingest_conforms() {
    conforms(Workload::Ingest);
}

#[test]
fn fleet_conforms() {
    conforms(Workload::Fleet);
}

#[test]
fn another_seed_draws_another_request_stream() {
    let keys = |seed| graphs::hot_set(&mut graphs::rng(seed, "hot"), graphs::G1K.nodes(), 256);
    assert_eq!(keys(1), keys(1));
    assert_ne!(keys(1), keys(2));
    // The dataset is not drawn from the seed: it is the same every time.
    assert_eq!(
        graphs::generate(graphs::G300).sensitive,
        graphs::generate(graphs::G300).sensitive
    );
}
