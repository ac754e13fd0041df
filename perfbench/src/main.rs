//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig15_paper|scatter_paper|serve_timedomain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with nothing but the program running; `--trace 1` re-runs the
//! workload's trials under the benchmark's layer clocks and reports the
//! per-layer metrics. Either way every output is checked, and the last line
//! of stdout is the JSON result. See `perfbench/README.md`.

mod clock;
mod report;
mod retrace;
mod serve;
mod stats;
mod sweep;
mod traced;

use report::Outcome;
use sweep::Sweeps;

/// The whole-testbed comparison. One round (a replicate of each) is
/// already ~40 s of work: 3 testbeds x 1000 slots x 3 policies.
const FIG15: Sweeps = Sweeps {
    scenarios: &["fig15a", "fig15b"],
    traced_rounds: 1,
};
/// The scatters; the traced run covers a default sweep's 8 replicates.
const SCATTER: Sweeps = Sweeps {
    scenarios: &["fig12", "fig13a", "fig13b", "fig14"],
    traced_rounds: 8,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        let code = match argv.get(1).map(String::as_str) {
            Some("sweep") => sweep::child_main(&argv[2..]),
            Some("daemon") => serve::child_main(&argv[2..]),
            _ => 2,
        };
        std::process::exit(code);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <fig15_paper|scatter_paper|serve_timedomain> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("fig15_paper", false) => sweep::run_untraced(&FIG15, args.seed, args.seconds, &mut out),
        ("fig15_paper", true) => sweep::run_traced(&FIG15, args.seed, &mut out),
        ("scatter_paper", false) => {
            sweep::run_untraced(&SCATTER, args.seed, args.seconds, &mut out)
        }
        ("scatter_paper", true) => sweep::run_traced(&SCATTER, args.seed, &mut out),
        ("serve_timedomain", false) => serve::run_untraced(args.seed, args.seconds, &mut out),
        ("serve_timedomain", true) => serve::run_traced(args.seed, &mut out),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    // A metric that could not be measured is a failed check, never a value.
    for m in &out.metrics {
        let finite = m.value.is_finite();
        out.attempted += 1;
        if !finite {
            out.failed += 1;
            out.failures
                .push(format!("metric {} is not finite", m.name));
        }
    }
    println!("{}", report::machine_facts(args.seed));
    report::print(&args.workload, &out);
}
