//! The sweep workloads: paper-quality registry sweeps at one worker thread.
//!
//! Untraced, the sweeps run in a child process — the program under test —
//! that calls `registry::run_scenario` exactly as `sweep --paper --threads
//! 1` does and streams each report back; the benchmark times the child's
//! start-up, checks every report, and reads its peak memory. Traced, the
//! same trials run in-process through the engine and are re-enacted under
//! the layer clocks (see `traced`).

use crate::report::{as_f64, join3, vmhwm_kb, Outcome};
use crate::stats::{median, tail};
use crate::traced::{self, ServeFacts, TraceAcc};
use iac_lan::linalg::Rng64;
use iac_lan::serve::json::{self, Value};
use iac_lan::sim::{registry, Quality, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fewest spawn-to-ready probes per run, on top of the measured child's own.
const SETUP_PROBES: usize = 6;
/// Pause between probes.
const PROBE_INTERVAL: Duration = Duration::from_secs(1);

/// A sweep workload: paper-quality scenarios. A request is one
/// single-replicate `run_scenario` sweep; a round is one request per
/// scenario, each round with its own master seed, so a run's medians
/// average over channel draws and the same seed gives the same rounds.
pub struct Sweeps {
    pub scenarios: &'static [&'static str],
    /// Rounds the traced run re-enacts: a fixed number, so its work counts
    /// repeat exactly for a seed.
    pub traced_rounds: u64,
}

/// The master seed of a round.
fn round_master(seed: u64, round: u64) -> u64 {
    Rng64::derive_seed(seed, round)
}

fn find_all(names: &[&str]) -> Vec<Scenario> {
    names
        .iter()
        .map(|n| registry::find(n).unwrap_or_else(|| panic!("scenario {n} is not registered")))
        .collect()
}

/// The child process: resolve the scenarios, announce readiness, then run
/// whole rounds of sweeps until `seconds` have passed, one JSON line per
/// sweep, and finally the process's peak resident memory.
pub fn child_main(args: &[String]) -> i32 {
    let mut names = Vec::new();
    let mut seed = 0u64;
    let mut seconds = 0.0f64;
    let mut probe = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenarios" => {
                names = it
                    .next()
                    .map_or(vec![], |s| s.split(',').map(String::from).collect())
            }
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            "--seconds" => seconds = it.next().and_then(|s| s.parse().ok()).unwrap_or(0.0),
            "--probe" => probe = true,
            _ => return 2,
        }
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let specs = find_all(&refs);
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let _ = writeln!(w, "ready");
    let _ = w.flush();
    if probe {
        return 0;
    }
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        let master = round_master(seed, round);
        for spec in &specs {
            let t = Instant::now();
            let report = registry::run_scenario(spec, Quality::Paper, master, 1, 1);
            let secs = t.elapsed().as_secs_f64();
            let _ = writeln!(
                w,
                "{{\"round\":{round},\"scenario\":\"{}\",\"secs\":{secs},\"report\":{}}}",
                spec.name,
                report.to_json()
            );
            let _ = w.flush();
        }
        round += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let _ = writeln!(w, "{{\"vmhwm_kb\":{}}}", vmhwm_kb("self").unwrap_or(0));
    let _ = w.flush();
    0
}

/// Metrics of a scenario report that are average gains over 802.11-MIMO,
/// which the paper claims exceed 1.
fn gain_metrics(scenario: &str) -> &'static [&'static str] {
    match scenario {
        "fig12" | "fig13a" | "fig13b" | "fig14" => &["average_gain"],
        "fig15a" | "fig15b" => &["gain_brute_force", "gain_fifo", "gain_best_of_two"],
        _ => &[],
    }
}

/// Check one single-replicate report's JSON: it parses, names the expected
/// scenario, every value is finite (non-finite values serialise as `null`),
/// and every average gain exceeds 1.
fn check_report(report_json: &str, scenario: &str, out: &mut Outcome) {
    let parsed = json::parse(report_json.as_bytes());
    let ok_shape = parsed.as_ref().is_ok_and(|v| {
        v.field("scenario").and_then(Value::as_str) == Some(scenario)
            && v.field("replicates").and_then(Value::as_u64) == Some(1)
    });
    out.check(ok_shape, || {
        format!("{scenario}: malformed report {report_json}")
    });
    let Ok(top) = parsed else {
        return;
    };
    let Some(Value::Obj(metrics)) = top.field("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let nums = |key: &str| -> Vec<Option<f64>> {
            match m.field(key) {
                Some(Value::Arr(xs)) => xs.iter().map(as_f64).collect(),
                Some(x) => vec![as_f64(x)],
                None => vec![None],
            }
        };
        let values = nums("values");
        let all = nums("mean").into_iter().chain(values.iter().copied());
        let finite = all.into_iter().all(|v| v.is_some_and(f64::is_finite));
        out.check(finite, || {
            format!("{scenario}.{name}: non-finite value in {report_json}")
        });
        if gain_metrics(scenario).contains(&name.as_str()) {
            let above = values.iter().all(|v| v.is_some_and(|g| g > 1.0));
            out.check(above, || {
                format!("{scenario}.{name}: gain not above 1: {values:?}")
            });
        }
    }
}

/// Spawn the child once in probe mode; seconds from spawn to `ready`.
fn probe_setup(names: &str) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", "sweep", "--probe", "--scenarios", names])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .ok()?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take()?)
        .read_line(&mut line)
        .ok();
    let setup = t.elapsed().as_secs_f64();
    let status = child.wait().ok()?;
    (read.is_some() && line.trim() == "ready" && status.success()).then_some(setup)
}

/// The untraced sweep workload. While the measured child runs on one core,
/// a second thread spawns start-up probes about once a second, so the
/// `setup_s` median samples the whole run rather than one moment of it.
pub fn run_untraced(w: &Sweeps, seed: u64, seconds: f64, out: &mut Outcome) {
    let joined = w.scenarios.join(",");
    let done = AtomicBool::new(false);
    let (mut setups, probe_failures, sweep) = std::thread::scope(|s| {
        let prober = s.spawn(|| {
            let (mut ok, mut failed) = (Vec::new(), 0usize);
            while !done.load(Ordering::SeqCst) || ok.len() + failed < SETUP_PROBES {
                match probe_setup(&joined) {
                    Some(x) => ok.push(x),
                    None => failed += 1,
                }
                std::thread::sleep(PROBE_INTERVAL);
            }
            (ok, failed)
        });
        let sweep = run_child(w, &joined, seed, seconds, out);
        done.store(true, Ordering::SeqCst);
        let (ok, failed) = prober.join().expect("probe thread");
        (ok, failed, sweep)
    });
    for _ in 0..probe_failures {
        out.check(false, || "setup probe failed".to_string());
    }
    setups.extend(sweep.ready_s);
    let Sweep {
        rounds,
        sweeps,
        rss_kb,
        ..
    } = sweep;

    let per_round = w.scenarios.len() as f64;
    let rates: Vec<f64> = rounds.iter().map(|r| per_round / r).collect();
    let (tail_s, pct) = tail(&sweeps);
    out.metric("setup_s", median(&setups), "s");
    out.metric("wall_s", median(&rounds), "s");
    out.metric("peak_rss_mb", rss_kb.unwrap_or(0) as f64 / 1024.0, "MB");
    out.metric("req_per_s", median(&rates), "1/s");
    out.metric("miss_p50_ms", median(&sweeps) * 1e3, "ms");
    out.metric("req_tail_ms", tail_s * 1e3, "ms");
    out.note(
        "request",
        "one paper-quality single-replicate registry sweep (run_scenario, 1 thread); every request computes",
    );
    out.note("rounds", rounds.len());
    out.note("round_wall_s", join3(&rounds));
    out.note("requests", sweeps.len());
    out.note("req_p50_ms", format!("{:.6}", median(&sweeps) * 1e3));
    out.note("req_tail_percentile", pct);
    let slowest = sweeps.iter().copied().fold(f64::NAN, f64::max);
    out.note("req_max_ms", format!("{:.6}", slowest * 1e3));
    out.note("setup_samples", setups.len());
}

/// What the measured sweep child reported.
struct Sweep {
    ready_s: Option<f64>,
    rounds: Vec<f64>,
    sweeps: Vec<f64>,
    rss_kb: Option<u64>,
}

/// Spawn the measured child, check every report it streams, and wait for it.
fn run_child(w: &Sweeps, joined: &str, seed: u64, seconds: f64, out: &mut Outcome) -> Sweep {
    let exe = std::env::current_exe().expect("own executable path");
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", "sweep", "--scenarios", joined])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn the sweep child");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let specs = find_all(w.scenarios);
    let mut got = Sweep {
        ready_s: None,
        rounds: Vec::new(),
        sweeps: Vec::new(),
        rss_kb: None,
    };
    for line in stdout.lines() {
        let Ok(line) = line else { break };
        if got.ready_s.is_none() {
            out.check(line == "ready", || {
                format!("child said {line:?} before ready")
            });
            got.ready_s = Some(t.elapsed().as_secs_f64());
            continue;
        }
        let Ok(v) = json::parse(line.as_bytes()) else {
            out.check(false, || format!("unparseable child line {line}"));
            continue;
        };
        if let Some(kb) = v.field("vmhwm_kb").and_then(Value::as_u64) {
            got.rss_kb = Some(kb);
            continue;
        }
        let round = v.field("round").and_then(Value::as_u64).unwrap_or(0) as usize;
        let name = v.field("scenario").and_then(Value::as_str).unwrap_or("");
        let secs = v.field("secs").and_then(as_f64).unwrap_or(f64::NAN);
        let Some(spec) = specs.iter().find(|s| s.name == name) else {
            out.check(false, || format!("unknown scenario in child line {line}"));
            continue;
        };
        let report = line
            .find(",\"report\":")
            .map(|i| &line[i + 10..line.len() - 1])
            .unwrap_or("");
        check_report(report, spec.name, out);
        got.sweeps.push(secs);
        if got.rounds.len() <= round {
            got.rounds.resize(round + 1, 0.0);
        }
        got.rounds[round] += secs;
    }
    let status = child.wait().expect("wait for the sweep child");
    out.check(status.success(), || {
        format!("sweep child exited with {status}")
    });
    let complete = got.sweeps.len() == got.rounds.len() * specs.len() && !got.rounds.is_empty();
    out.check(complete, || {
        format!(
            "{} sweeps over {} rounds",
            got.sweeps.len(),
            got.rounds.len()
        )
    });
    out.check(got.rss_kb.is_some(), || {
        "child reported no peak memory".to_string()
    });
    got
}

/// The traced sweep workload: the first `traced_rounds` rounds, re-enacted.
pub fn run_traced(w: &Sweeps, seed: u64, out: &mut Outcome) {
    let mut acc = TraceAcc::default();
    let specs = find_all(w.scenarios);
    for round in 0..w.traced_rounds {
        let master = round_master(seed, round);
        for spec in &specs {
            let report =
                traced::run_scenario_traced(spec, Quality::Paper, master, 1, &mut acc, out);
            check_report(&report.to_json(), spec.name, out);
        }
    }
    traced::per_layer_metrics(&acc, &ServeFacts::default(), out);
}
