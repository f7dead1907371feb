//! The ALADIN repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|refresh --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! With `--trace 0` the run measures one workload through the public entry
//! points (`aladin_import`, `Aladin`, `Server`, `Warehouse`, `core::eval`,
//! `aladin_datagen`) and prints every end-to-end metric; with `--trace 1` it
//! does the same untraced work first and then replays each layer from
//! outside with spans around its public functions, printing every per-layer
//! metric. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; every output check runs
//! outside the timed regions, and a failed check makes the exit code 1.
//! See `README.md` next to this file for the layer → metric → workload map.

mod common;
mod lifecycle;
mod reads;
mod trace;
mod traced;

use common::{Metrics, Tally};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve,
    Refresh,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve" => Some(Workload::Serve),
            "refresh" => Some(Workload::Refresh),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Refresh => "refresh",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small worlds and minimal repetitions everywhere (the self-test).
    pub smoke: bool,
    /// Drop one link before every fingerprint, so the checks must fail (the
    /// self-test's proof that they can).
    pub corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 3u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => smoke = true,
            "--corrupt-output" => corrupt = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        corrupt,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut record = common::RunRecord::new(&args);
    let e2e = lifecycle::run(&args, &mut tally, &mut record);
    let metrics: Metrics = if args.trace {
        let layers = traced::run(&args, &e2e, &mut tally, &mut record);
        record.write_trace_file(&args, &layers.tracer);
        layers.metrics
    } else {
        e2e.metrics(&tally)
    };
    record.finish(&tally);
    println!("{}", record.to_json());
    println!("{}", common::result_json(&tally, &metrics));
    for failure in &tally.check_failures {
        eprintln!("perfbench: output check failed: {failure}");
    }
    if tally.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
