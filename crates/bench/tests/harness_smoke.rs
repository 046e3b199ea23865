//! Guards the experiment harness against silent rot: the criterion bench
//! targets must keep compiling and the `repro` reproduction binary must
//! keep building. Runs the real cargo commands so the check is
//! exactly what a developer would type.

use std::env;
use std::path::Path;
use std::process::Command;

/// The criterion bench targets declared in this crate's manifest.
const BENCH_TARGETS: &[&str] = &["protect", "measures", "query", "store"];

/// The paper-reproduction binary (one subcommand per §6 artifact).
const REPRO_BINS: &[&str] = &["repro"];

fn cargo() -> Command {
    let cargo = env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    // Run against this crate regardless of the test's working directory.
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

/// Runs cargo with JSON output and returns the produced executables.
fn executables(args: &[&str]) -> Vec<String> {
    let output = cargo()
        .args(args)
        .arg("--message-format=json")
        .output()
        .expect("cargo invokes");
    assert!(
        output.status.success(),
        "`cargo {}` failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr),
    );
    // Each compiler-artifact message carries `"executable":"/path"`;
    // pull the paths out without a JSON dependency.
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .filter_map(|line| {
            let (_, rest) = line.split_once("\"executable\":\"")?;
            let (path, _) = rest.split_once('"')?;
            Some(path.to_owned())
        })
        .collect()
}

fn file_stem(path: &str) -> &str {
    Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default()
}

#[test]
fn criterion_benches_compile() {
    let built = executables(&["bench", "--no-run"]);
    for target in BENCH_TARGETS {
        assert!(
            built
                .iter()
                .any(|exe| file_stem(exe).starts_with(&format!("{target}-"))),
            "bench target `{target}` did not compile; built: {built:?}"
        );
    }
}

#[test]
fn repro_binaries_build() {
    let built = executables(&["build", "--bins"]);
    for bin in REPRO_BINS {
        assert!(
            built.iter().any(|exe| file_stem(exe) == *bin),
            "repro binary `{bin}` did not build; built: {built:?}"
        );
    }
}
