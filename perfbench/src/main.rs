//! `cq-perfbench`: the repository's benchmark runner.
//!
//! ```text
//! cq-perfbench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives release `cq-serve` workers from a closed
//! loop and prints the end-to-end metrics; with `--trace 1` it replays
//! the same inputs in-process with a span around each layer's public
//! functions and prints the per-layer metrics. Either way the last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name -> value and unit). Workloads and metrics are
//! described in `perfbench/README.md`.

mod calib;
mod check;
mod e2e;
mod server;
mod traced;
mod workload;

use cq_engine::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A run's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Float(m.value)),
                        ("unit".to_owned(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::int(self.attempted)),
            ("failed".to_owned(), Json::int(self.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values`, linearly interpolated between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

struct Args {
    serve_bin: PathBuf,
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let workload_name = value("--workload")?.to_owned();
    let workload = Workload::parse(&workload_name).ok_or(format!(
        "unknown workload {workload_name:?} (serve-warm, entropy-lp, witness-eval, cluster-cold)"
    ))?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        serve_bin: PathBuf::from(value("--serve-bin")?),
        workload,
        workload_name,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if server::pin_to_one_cpu().is_none() {
        eprintln!("cq-perfbench: could not pin to one CPU; running unpinned");
    }
    let outcome = if args.trace {
        let spans = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.ndjson",
            args.workload_name, args.seed
        ));
        traced::run(
            args.workload,
            args.seed,
            args.seconds,
            &args.serve_bin,
            &spans,
        )
    } else {
        e2e::run(args.workload, args.seed, args.seconds, &args.serve_bin)
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json().render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cq-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
