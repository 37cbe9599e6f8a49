//! The ringmesh benchmark: one workload per process, every output
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-figures|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! same systems through a timed copy of the simulation loop and reports
//! the per-layer metrics instead.

mod figures;
mod ledger;
mod mesh;
mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Outcome;

const USAGE: &str = "usage: perfbench --workload <paper-figures|serve-mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Builds the release `ringmesh` binary (a no-op when it is fresh) and
/// returns its path. Every workload does this, so whichever runs first
/// in a checkout pays for the build.
fn build_ringmesh(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "ringmesh",
        ])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ringmesh failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("ringmesh"))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = repo_root();
    let bin = build_ringmesh(&root)?;
    let work = root.join(".bench_work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = match (args.workload.as_str(), args.trace) {
        ("paper-figures", false) => figures::run(args.seconds),
        ("paper-figures", true) => figures::trace(args.seed),
        ("serve-mixed", false) => serve::run(&bin, &work, args.seed, args.seconds),
        ("serve-mixed", true) => serve::trace(&bin, &work, args.seed),
        (other, _) => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    // Only this run's cache directories live here, and they are gone.
    let _ = std::fs::remove_dir(&work);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|o| o.to_json()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
