//! `perfbench`: the repository's benchmark.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload task2_lines --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks its outputs, and
//! prints a detailed JSON report followed, on the last line, by the result
//! object `{"correct", "attempted", "failed", "metrics"}`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.  The
//! report and the traced run's spans are also written under
//! `perfbench/results/`.  Workloads and metrics are the ones
//! `BENCHMARK.json` declares.

mod manifest;
mod prom;
mod report;
mod rng;
mod serve_mixed;
mod stats;
mod tasks;

use report::{Report, SpanLog};
use serde::json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(manifest: &manifest::Manifest) -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = manifest.run_seconds;
    let mut traced = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => traced = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !manifest.workloads.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// The benchmark's own directory.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the tree was checked out at, when it is a git checkout.
fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(report: &mut Report, args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.info("workload", Value::Str(args.workload.clone()));
    report.info("seed", Value::Num(args.seed as f64));
    report.info("seconds", Value::Num(args.seconds as f64));
    report.info("traced", Value::Bool(args.traced));
    report.info("host_cores", Value::Num(cores as f64));
    report.info(
        "pool_threads",
        Value::Num(prdnn_par::pool_for(None).threads() as f64),
    );
    report.info("scale", Value::Str("small".into()));
    report.info("git_commit", Value::Str(git_commit()));
}

fn run(args: &Args, report: &mut Report, log: &mut SpanLog) {
    let budget = Duration::from_secs(args.seconds);
    match args.workload.as_str() {
        "task2_lines" | "task1_points" => {
            // Set-ups timed before the first pass and after each pass.
            let (build, first, per_pass): (fn() -> tasks::Task, usize, usize) =
                if args.workload == "task2_lines" {
                    (tasks::task2_lines, 6, 5)
                } else {
                    (tasks::task1_points, 2, 1)
                };
            if args.traced {
                let (task, _) = tasks::timed_setup(build, 1);
                tasks::run_traced(&task, args.seed, budget, report, log);
            } else {
                // The host's speed drifts over a run; set-ups timed between
                // the passes sample it across the whole run.
                let (task, mut setups) = tasks::timed_setup(build, first);
                let mut after_pass = || setups.extend(tasks::timed_setup(build, per_pass).1);
                tasks::run_untraced(&task, args.seed, budget, report, &mut after_pass);
                report.metric("setup_s", stats::median(&setups).expect("one setup"));
                report.info("setup_runs_s", Value::num_array(&setups));
            }
        }
        "serve_mixed" => {
            let dir = bench_dir()
                .join(".work")
                .join(format!("serve-{}", std::process::id()));
            serve_mixed::run(args.seed, budget, args.traced, &dir, report, log);
            let _ = std::fs::remove_dir_all(&dir);
        }
        other => unreachable!("workload {other} was validated"),
    }
    if let Some(rss) = report::peak_rss_mb() {
        report.metric("peak_rss_mb", rss);
    }
}

/// Writes the report and spans under `perfbench/results/`.
fn save(args: &Args, detail: &Value, log: &SpanLog) -> std::io::Result<()> {
    let dir = bench_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.traced)
    );
    std::fs::write(dir.join(format!("{stem}.json")), detail.to_json() + "\n")?;
    if args.traced {
        std::fs::write(dir.join(format!("{stem}-spans.jsonl")), log.to_json_lines())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let manifest = match manifest::load() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json is out of contract: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(manifest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    let mut log = SpanLog::new();
    stamp(&mut report, &args);
    run(&args, &mut report, &mut log);
    if args.traced {
        let selfs = log
            .self_times()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Value::Num(v)));
        report.info("span_self_s", Value::Obj(selfs.collect()));
    }
    let (detail, result, correct) = report.finish(args.traced);
    if let Err(e) = save(&args, &detail, &log) {
        eprintln!("perfbench: could not save the report: {e}");
    }
    println!("{}", detail.to_json());
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output checks failed");
        ExitCode::FAILURE
    }
}
