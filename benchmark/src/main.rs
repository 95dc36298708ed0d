//! The repo benchmark. Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints one JSON result line (what
//!   `BENCHMARK.json`'s `command` invokes);
//! * `run` runs every workload, one process each, and writes a result
//!   file with every sample and an environment fingerprint;
//! * `compare <a.json> <b.json>` holds two result files against the
//!   declared bounds.
//!
//! See `README.md` for what is measured and why.

mod compare;
mod json;
mod layers;
mod metrics;
mod probes;
mod report;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures unless
/// `--seconds` says otherwise.
pub const RUN_SECONDS: f64 = 10.0;
/// Input divisor and run length of `--smoke`.
pub const SMOKE_SCALE: u64 = 16;
pub const SMOKE_SECONDS: f64 = 0.3;

const USAGE: &str = "usage:
  rcmp-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  rcmp-benchmark run [--workload <name>] [--runs <n>] [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
  rcmp-benchmark compare <a.json> <b.json>
workloads: chain_clean chain_kill agg_combine wave_storm serve_mix";

/// Where runs leave their files: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Flags of the form `--name value` (and the bare `--smoke`).
pub struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    pub fn get(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read {text:?}")),
        }
    }

    /// `(scale, seconds)`: `--smoke` shrinks both unless `--seconds` is
    /// given.
    pub fn sizing(&self) -> Result<(u64, f64), String> {
        let (scale, default) = if self.has("--smoke") {
            (SMOKE_SCALE, SMOKE_SECONDS)
        } else {
            (1, RUN_SECONDS)
        };
        let seconds: f64 = self.parsed("--seconds", default)?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds: {seconds} is outside (0, 60]"));
        }
        Ok((scale, seconds))
    }
}

fn one_workload(flags: &Flags) -> Result<bool, String> {
    let (scale, seconds) = flags.sizing()?;
    let opts = runner::Opts {
        workload: flags.get("--workload").ok_or(USAGE)?.to_string(),
        seed: flags.parsed("--seed", 1)?,
        seconds,
        trace: flags.parsed::<u8>("--trace", 0)? != 0,
        scale,
    };
    runner::run(&opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => report::run(&Flags(&args[1..])),
        Some("compare") => compare::run(&args[1..]),
        _ => one_workload(&Flags(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
