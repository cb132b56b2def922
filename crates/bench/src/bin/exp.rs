//! `exp <campaign> [--smoke] [--json]`: run one campaign sweep (E13–E22).
//!
//! Prints the markdown report, or only the JSON summary with `--json`.
//! A full run (no `--smoke`) also writes `BENCH_<campaign>.json`. Exits 1
//! on any violation and 2 on a usage error, listing the campaigns. See
//! `bench::campaign`.

fn main() -> std::process::ExitCode {
    bench::campaign::main(std::env::args().skip(1))
}
