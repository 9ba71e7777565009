//! End-to-end and per-layer benchmark of the uburst reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_suite|paced_racks|fleet_collect> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs whole rounds of the same operations until `--seconds`
//! have passed (at least one round), checks every output against an
//! independent computation, and prints one JSON object as the last line of
//! stdout: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones (`wall_s`, `cpu_s`, `setup_s`,
//! `peak_rss_mb`); with `--trace 1` they are the per-layer ones of
//! [`report::LAYER_METRICS`]. The program's crates are called only through
//! their public functions; every timer lives here. See `README.md`.

mod campaign;
mod clock;
mod fleet_collect;
mod paced_racks;
mod paper_suite;
mod report;

use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed (`paper_suite` ignores it: its seeds are fixed).
    pub seed: u64,
    /// Measured time per run; rounds repeat until it has passed.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Single-process, single-worker runs: the pool then executes jobs
    // inline on this thread, and `cpu_s` measures the same work `wall_s`
    // does. The engine mode follows the program's default.
    std::env::set_var("UBURST_THREADS", "1");
    std::env::remove_var("UBURST_HYBRID");

    let outcome: Outcome = match args.workload.as_str() {
        "paper_suite" => paper_suite::run(&args, start),
        "paced_racks" => paced_racks::run(&args),
        "fleet_collect" => fleet_collect::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
