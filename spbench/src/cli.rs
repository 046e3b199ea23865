//! Command line.
//!
//! ```text
//! spbench run [--seed N] [--seconds S] [--data-dir DIR]
//! spbench check A.json B.json
//! spbench manifest
//! spbench --workload NAME --seed N --seconds S --trace 0|1 [--data-dir DIR]
//! ```
//!
//! The last form is what `BENCHMARK.json`'s `command` runs: one pass of
//! one workload, its metrics one per line, and the result object on the
//! last line. `run` re-executes this program in that form once per
//! workload and pass, and an untraced pass re-executes it once per round
//! (`--round I`, not for callers), so that no workload and no round
//! inherits another's allocator state or resident memory: `peak_rss_mb`
//! is the high-water mark of a process that did one set-up and one
//! window.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::compare;
use crate::harness::{Plan, Scratch};
use crate::json::{self, Value};
use crate::layers;
use crate::report::Report;
use crate::spec::{self, Workload};
use crate::trace;
use crate::workloads;

const USAGE: &str = "usage:
  spbench run [--seed N] [--seconds S] [--data-dir DIR]
  spbench check A.json B.json
  spbench manifest
  spbench --workload NAME --seed N --seconds S --trace 0|1 [--data-dir DIR]";

/// The package's own `target/`: inside the checkout, ignored by git.
fn target_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Where result and trace files go.
pub fn out_dir() -> PathBuf {
    target_dir().join("spbench")
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
    /// Run only this round of the untraced pass, in this process.
    round: Option<usize>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        data_dir: target_dir().join("spbench-run"),
        round: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => options.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--data-dir" => options.data_dir = PathBuf::from(value),
            "--round" => options.round = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(options)
}

/// Runs the program; returns its exit code.
pub fn main(args: Vec<String>) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(run_all),
        Some("check") if args.len() == 3 => {
            compare::check(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("manifest") if args.len() == 1 => {
            print!("{}", spec::manifest().to_pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => parse_options(&args).and_then(run_one),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("spbench: {message}");
            2
        }
    }
}

/// Prints a pass's readings and failure notes.
fn print_report(report: &Report) {
    print!("{}", report.lines());
    println!(
        "{} failed_share {} ratio n={}",
        report.workload.name(),
        report.tally.failed_share(),
        report.tally.attempted
    );
    for note in &report.tally.notes {
        eprintln!("spbench: {} failed a check: {note}", report.workload.name());
    }
}

/// The driver's form: one workload, one pass. Always succeeds once the
/// result line is printed; the line says whether the answers were
/// correct.
fn run_one(options: Options) -> Result<bool, String> {
    let plan = Plan {
        workload: options.workload.ok_or("--workload is required")?,
        seed: options.seed,
        seconds: options.seconds,
        data_dir: options.data_dir,
        verify: true,
    };
    let (report, metrics) = if options.trace {
        let pass = plan.tenth();
        let base = workloads::run(&pass, false)?;
        let mut traced = workloads::run(&pass, true)?;
        let scratch = Scratch::new(&Plan {
            data_dir: plan.data_dir.join("replay"),
            ..plan.clone()
        })?;
        let (mut report, replayed) = layers::attribute(&plan, &base, &mut traced, &scratch)?;
        report.tally = traced.report.tally.clone();
        let mut spans = std::mem::take(&mut traced.spans);
        spans.extend(replayed);
        let path = out_dir().join(format!("trace-{}-{}.json", plan.workload.name(), plan.seed));
        trace::write(&path, &spans)?;
        (report, &spec::PER_LAYER[..])
    } else {
        let rounds = plan.rounds();
        let report = match options.round {
            Some(index) => {
                let round = rounds
                    .get(index)
                    .ok_or_else(|| format!("this pass has no round {index}"))?;
                workloads::run(round, false)?.report
            }
            None if rounds.len() == 1 => workloads::run(&rounds[0], false)?.report,
            None => {
                let mut reports = Vec::new();
                for index in 0..rounds.len() {
                    reports.push(child_round(&plan, index)?);
                }
                Report::of_rounds(reports)
            }
        };
        (report, &spec::END_TO_END[..])
    };
    print_report(&report);
    println!("{}", report.driver_result(metrics)?.to_line());
    Ok(true)
}

/// One metric line of a child: `workload metric value unit n=<samples>`.
fn parse_line(line: &str) -> Option<(&str, f64, &str, u64)> {
    let mut fields = line.split(' ');
    let (_, metric, value, unit, n) = (
        fields.next()?,
        fields.next()?,
        fields.next()?,
        fields.next()?,
        fields.next()?,
    );
    if fields.next().is_some() {
        return None;
    }
    Some((
        metric,
        value.parse().ok()?,
        unit,
        n.strip_prefix("n=")?.parse().ok()?,
    ))
}

/// What a child process printed: its metric lines as
/// `(metric, value, unit, n)`, and its operation counts.
struct ChildOutput {
    lines: Vec<(String, f64, String, u64)>,
    attempted: f64,
    failed: f64,
}

/// Runs one pass (or one round of one) in a child process. The child's
/// standard error, where failed checks are explained, is this
/// process's.
fn child(plan: &Plan, trace: bool, round: Option<usize>) -> Result<ChildOutput, String> {
    let what = plan.workload.name();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", what])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(&plan.data_dir);
    if let Some(index) = round {
        command.args(["--round", &index.to_string()]);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {what} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("the {what} pass exited with {}", output.status));
    }
    let mut lines = Vec::new();
    let mut last = "";
    for line in stdout.lines() {
        if let Some((metric, value, unit, n)) = parse_line(line) {
            lines.push((metric.to_string(), value, unit.to_string(), n));
        }
        last = line;
    }
    let result =
        json::parse(last).map_err(|e| format!("the {what} pass printed no result: {e}"))?;
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("the {what} pass's result has no {key}"))
    };
    Ok(ChildOutput {
        lines,
        attempted: count("attempted")?,
        failed: count("failed")?,
    })
}

/// One round of an untraced pass, run in a process of its own, as a
/// report.
fn child_round(plan: &Plan, index: usize) -> Result<Report, String> {
    let output = child(plan, false, Some(index))?;
    let mut report = Report::new(plan.workload);
    for (metric, value, _, n) in output.lines {
        if metric != spec::FAILED_SHARE.name {
            let name = spec::find(&metric)
                .ok_or_else(|| format!("a round printed the unknown metric {metric}"))?
                .name;
            report.put(name, value, n);
        }
    }
    report.tally.attempted = output.attempted as u64;
    report.tally.failed = output.failed as u64;
    Ok(report)
}

/// Runs one pass of one workload in a child process; echoes its metric
/// lines and returns them as a JSON object plus its operation counts.
fn child_pass(
    options: &Options,
    workload: Workload,
    trace: bool,
) -> Result<(Value, f64, f64), String> {
    let plan = Plan {
        workload,
        seed: options.seed,
        seconds: options.seconds,
        data_dir: options.data_dir.clone(),
        verify: true,
    };
    let output = child(&plan, trace, None)?;
    let mut metrics = Vec::new();
    for (metric, value, unit, n) in output.lines {
        println!("{} {metric} {value} {unit} n={n}", workload.name());
        metrics.push((
            metric,
            Value::Obj(vec![
                ("value".to_string(), Value::Num(value)),
                ("unit".to_string(), Value::Str(unit)),
                ("n".to_string(), Value::Num(n as f64)),
            ]),
        ));
    }
    Ok((Value::Obj(metrics), output.attempted, output.failed))
}

/// Every workload untraced, then every workload traced; one result file.
fn run_all(options: Options) -> Result<bool, String> {
    if options.workload.is_some() || options.trace {
        return Err("run takes --seed, --seconds and --data-dir only".to_string());
    }
    let mut workloads = Vec::new();
    let mut failed_total = 0.0;
    for workload in Workload::ALL {
        let (end_to_end, attempted, failed) = child_pass(&options, workload, false)?;
        failed_total += failed;
        workloads.push((
            workload.name().to_string(),
            vec![
                ("attempted".to_string(), Value::Num(attempted)),
                ("failed".to_string(), Value::Num(failed)),
                ("end_to_end".to_string(), end_to_end),
            ],
        ));
    }
    for (workload, (_, fields)) in Workload::ALL.into_iter().zip(&mut workloads) {
        let (per_layer, _, failed) = child_pass(&options, workload, true)?;
        failed_total += failed;
        fields.push(("per_layer".to_string(), per_layer));
    }
    let result = Value::Obj(vec![
        ("seed".to_string(), Value::Num(options.seed as f64)),
        ("seconds".to_string(), Value::Num(options.seconds)),
        (
            "threads".to_string(),
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "workloads".to_string(),
            Value::Obj(
                workloads
                    .into_iter()
                    .map(|(name, fields)| (name, Value::Obj(fields)))
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir().join(format!("result-{}.json", options.seed));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, result.to_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spbench: wrote {}", path.display());
    if failed_total > 0.0 {
        eprintln!("spbench: {failed_total} operations failed");
    }
    Ok(failed_total == 0.0)
}
