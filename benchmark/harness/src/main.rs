//! The repo benchmark: live chain / switch / control workloads measured
//! end to end, and a stepped per-layer trace of each. `benchmark/README.md`
//! says what every workload and metric is for.
//!
//! ```text
//! harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! harness                      every workload, untraced then traced
//! harness --check-repeat       every workload twice, A/A, against the bounds
//! ```

mod host;
mod isolated;
mod live;
mod load;
mod report;
mod stats;
mod stepped;
mod trace;
mod worlds;

use live::Workload;
use std::process::ExitCode;

/// Measured seconds per run when `--seconds` is not given; BENCHMARK.json's
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // A single run always exits 0: whether its output was correct is in
    // the result line.
    let ok = match (args.workload, args.check_repeat) {
        (Some(workload), _) if args.trace => {
            report::traced(workload, args.seed, args.seconds);
            true
        }
        (Some(workload), _) => {
            report::untraced(workload, args.seed, args.seconds);
            true
        }
        (None, true) => report::check_repeat(args.seed, args.seconds),
        (None, false) => report::all(args.seed, args.seconds),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
