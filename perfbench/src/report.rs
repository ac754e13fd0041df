//! The benchmark's output: machine facts, a readable metric table, and the
//! one-line JSON result the last line of stdout must carry.

use iac_lan::serve::json::Value;
use std::path::Path;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's outcome: correctness tallies plus named metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra facts printed beside the metrics (percentiles, sample counts,
    /// hit shares); not part of the result line.
    pub notes: Vec<(String, String)>,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Count one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Peak resident set of a process (`/proc/<pid>/status` `VmHWM`), KiB.
pub fn vmhwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Values to three decimals, comma-separated (for the notes line).
pub fn join3(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// JSON number for a finite value; `null` otherwise (the caller treats a
/// non-finite metric as a failed check before it gets here).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn esc(s: &str) -> String {
    iac_lan::serve::json::escape(s)
}

/// Print the outcome: notes and the metric table for people, then the
/// result object as the final line.
pub fn print(workload: &str, out: &Outcome) {
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", esc(k), esc(v)))
        .collect();
    println!(
        "{{\"notes\":{{\"workload\":{},{}}}}}",
        esc(workload),
        notes.join(",")
    );
    for m in &out.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                esc(&m.name),
                num(m.value),
                esc(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}

/// The machine facts recorded with every result.
pub fn machine_facts(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| format!("source-fnv1a64:{:016x}", source_hash()));
    format!(
        "{{\"machine\":{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"fma\":{},\"commit\":{},\"seed\":{seed}}}}}",
        esc(&cpu),
        esc(&rustc),
        cfg!(target_feature = "fma"),
        esc(&commit),
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

/// FNV-1a over the program's sources, for checkouts that are not git
/// repositories: the same tree always hashes the same.
fn source_hash() -> u64 {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "src", "crates", "examples", ".cargo"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    iac_lan::serve::cache::fnv1a64(&bytes)
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        let keep = path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "json");
        if keep {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect(&e.path(), out);
        }
    }
}
