//! `perfbench --workload <bulk|lossy|rpc> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable table, then the result as one JSON line (the last
//! line of standard output). Exits 1 if any output was wrong.

use perfbench::run::{run, Args, Workload};
use std::process::ExitCode;

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Bulk,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => args.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = val
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {val}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], not {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err((report, why)) => {
            eprintln!("perfbench: outputs not correct: {why}");
            println!("{}", report.json());
            ExitCode::FAILURE
        }
    }
}
