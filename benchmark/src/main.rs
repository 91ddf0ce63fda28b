//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml --
//!  [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--dir D] [--smoke]`
//!
//! Prints, per workload run, the longer report as one JSON line (ending
//! in `"claim": null`) and then the result line: exactly `correct`,
//! `attempted`, `failed`, `metrics`. Exits non-zero if any request
//! failed or the oracle found a mismatch.

use std::path::PathBuf;
use std::process::ExitCode;

use shardstore_benchmark::report::{benchmark_json, RUN_SECONDS};
use shardstore_benchmark::workload::{spec, SPECS};
use shardstore_benchmark::{run_once, smoke_spec};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    smoke: bool,
}

fn parse() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--dir" => args.dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--emit-benchmark-json" => {
                print!("{}", benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let specs = match &args.workload {
        Some(name) => match spec(name) {
            Some(s) => vec![*s],
            None => {
                eprintln!(
                    "benchmark: no workload {name}; have {:?}",
                    SPECS.map(|s| s.name)
                );
                return ExitCode::from(2);
            }
        },
        None => SPECS.to_vec(),
    };
    let mut all_correct = true;
    for s in &specs {
        // Smoke: a twentieth of the length and of the keys, both run
        // kinds, checking oracle and schema; its timings mean nothing.
        let runs: Vec<(f64, bool)> = if args.smoke {
            vec![(args.seconds / 20.0, false), (args.seconds / 20.0, true)]
        } else {
            vec![(args.seconds, args.trace)]
        };
        let s = if args.smoke { smoke_spec(s) } else { *s };
        for (seconds, trace) in runs {
            match run_once(&s, args.seed, seconds, trace, &args.dir) {
                Ok((line, outcome, report)) => {
                    all_correct &= outcome.correct;
                    println!("{}", report.render());
                    println!("{line}");
                }
                Err(e) => {
                    eprintln!("benchmark: {}: {e}", s.name);
                    return ExitCode::from(1);
                }
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: requests failed or the oracle found a mismatch; see the report above"
        );
        ExitCode::from(1)
    }
}
