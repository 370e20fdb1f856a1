//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Builds every input from the seed, runs the workload's operations in a
//! closed loop for `--seconds`, checks every output, and prints one JSON
//! result line last: the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics from a traced run (`--trace 1`). See `README.md`
//! beside this crate for the workloads and the layer → metric map.

mod alg1;
mod campaign;
mod digest;
mod harness;
mod metrics;
mod simnet;
mod span;
mod timed;

use harness::{run_traced, run_untraced, trace_path, Outcome, Workload, MIN_COVERAGE};
use metrics::{END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &[
    "alg1-paper196",
    "alg1-blackout64",
    "campaign-tcp128",
    "simnet-dc48",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <alg1-paper196|alg1-blackout64|campaign-tcp128|simnet-dc48> --seed <u64> --seconds <1..=3600> --trace <0|1>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("seconds {s} out of 1..=3600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run `W` untraced or traced; the traced run writes its spans out.
fn run<W: Workload>(spec: &W::Spec, args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        return run_untraced::<W>(spec, args.seed, args.seconds);
    }
    let (mut outcome, rec) = run_traced::<W>(spec, args.seed, args.seconds, MIN_COVERAGE)?;
    for (name, _) in PER_LAYER {
        // Layers this workload does not run spent no time and did no work.
        outcome.values.entry(name).or_insert(0.0);
    }
    let path = trace_path(&args.workload, args.seed);
    std::fs::create_dir_all(path.parent().expect("trace path has a directory"))
        .and_then(|()| std::fs::write(&path, rec.to_json_lines()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome.notes.push(format!(
        "{} spans written to {}",
        rec.spans().len(),
        path.display()
    ));
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin the worker pool to the machine's parallelism before anything
    // touches it; the pool reads the variable once.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let outcome = match args.workload.as_str() {
        "alg1-paper196" => run::<alg1::Alg1>(&alg1::PAPER196, &args),
        "alg1-blackout64" => run::<alg1::Alg1>(&alg1::BLACKOUT64, &args),
        "campaign-tcp128" => run::<campaign::Campaign>(&campaign::TCP128, &args),
        "simnet-dc48" => run::<simnet::SimNet>(&simnet::DC48, &args),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = match metrics::result_json(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        table,
        &outcome.values,
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, unit) in table {
        println!("  {name:<28} {:>18.6} {unit}", outcome.values[name]);
    }
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
