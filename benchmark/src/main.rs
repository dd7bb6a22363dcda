//! `rfnoc-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//! or `rfnoc-benchmark agree [--seed <n>] [--seconds <s>]`.

use rfnoc_benchmark::driver;
use rfnoc_benchmark::run::{run, RunArgs};
use std::process::ExitCode;

const USAGE: &str = "usage: rfnoc-benchmark [agree] [--workload <name|all>] [--seed <n>] \
                     [--seconds <s>] [--trace <0|1>] [--smoke]";

fn parse(args: &[String]) -> Result<(bool, RunArgs), String> {
    let mut run = RunArgs {
        workload: "all".into(),
        seed: 0,
        seconds: 14.0,
        trace: false,
        smoke: false,
    };
    let mut agree = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "agree" => agree = true,
            "--smoke" => run.smoke = true,
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(run.seconds.is_finite() && run.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok((agree, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (agree, args) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("rfnoc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Timings of a debug build or of two threads on one CPU mean nothing.
    if !args.smoke {
        if cfg!(debug_assertions) {
            eprintln!(
                "rfnoc-benchmark: refusing to measure a debug build (use --release, or --smoke)"
            );
            return ExitCode::from(2);
        }
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        if cpus < 2 {
            eprintln!("rfnoc-benchmark: {cpus} CPU available, the workloads need 2");
            return ExitCode::from(2);
        }
    }
    // The product's cross-run history store stays out of it, here and in
    // every child process.
    std::env::set_var("RFNOC_HISTORY", "off");
    let outcome = if agree {
        driver::agree(&args)
    } else if args.workload == "all" {
        driver::all(&args)
    } else {
        run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rfnoc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
