//! The served time-domain workload: a closed loop of two client connections
//! (one per core) against an `iac-serve` daemon on a Unix socket.
//!
//! Inputs come from the seed alone: a set of cache entries committed
//! before the daemon starts, and request sequences per connection over
//! the DES (`des_*`, `rob_*`) and sample-plane (`sec6_*`) scenarios at
//! quick and paper quality. About half the requests repeat a key that is
//! already committed (pre-seeded, or served earlier on the same
//! connection), so they must come back `cached:true`; the rest are fresh
//! and must come back `cached:false` and be committed.
//!
//! A run repeats rounds — a fresh copy of the pre-seeded cache, a fresh
//! daemon, the same keys in a new seeded order — until `--seconds` of
//! closed-loop time have passed. Every served report is compared byte for byte with
//! `registry::run_scenario(..).to_json()`, computed before any timing.

use crate::report::{as_f64, join3, vmhwm_kb, Outcome};
use crate::stats::{median, round_tail};
use crate::traced::{self, ServeFacts, TraceAcc};
use iac_lan::linalg::Rng64;
use iac_lan::serve::json::{self, Value};
use iac_lan::serve::{daemon, CacheKey, Daemon, DaemonConfig, ResultCache};
use iac_lan::sim::{registry, Quality};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The scenarios the mix draws from.
const SCENARIOS: [&str; 8] = [
    "des_campus",
    "des_load",
    "rob_ap_churn",
    "rob_backhaul_partition",
    "rob_csi_aging",
    "sec6_cfo",
    "sec6_modulation",
    "sec6_ofdm",
];

/// Client connections, one per core of the reference machine.
const CONNECTIONS: usize = 2;
/// Requests per connection per round.
const REQUESTS_PER_CONNECTION: usize = 60;
/// Of those, requests for a key not yet committed: each scenario twice at
/// each quality. The other 28 (47 %) repeat a committed key.
const FRESH_PER_CONNECTION: usize = 32;
/// Entries committed to the cache before the daemon starts.
const PRESEEDED: usize = 64;
/// Daemon trial workers.
const WORKERS: usize = 2;
/// Ping round trips timed per traced round.
const PINGS: usize = 20;

/// One cacheable request identity.
#[derive(Clone)]
struct Key {
    scenario: &'static str,
    quality: Quality,
    seed: u64,
    replicates: usize,
}

impl Key {
    fn cache_key(&self) -> CacheKey {
        CacheKey {
            scenario: self.scenario.to_string(),
            quality: self.quality,
            seed: self.seed,
            replicates: self.replicates,
        }
    }
}

/// One request of a connection's sequence.
struct Req {
    key: usize,
    expect_cached: bool,
}

/// The seeded request mix: a fixed set of keys, served in a new order every
/// round.
struct Mix {
    seed: u64,
    keys: Vec<Key>,
    preseeded: Vec<usize>,
    /// Each connection's fresh keys, indices into `keys`.
    fresh: Vec<Vec<usize>>,
}

fn key(scenario: &'static str, quality: Quality, seed: u64) -> Key {
    let spec = registry::find(scenario).expect("mix scenarios are registered");
    Key {
        scenario,
        quality,
        seed,
        replicates: spec.default_replicates,
    }
}

/// The mix has a fixed composition — every scenario equally often, fresh
/// keys at both qualities equally often, the same repeat count on every
/// connection — so only the seeds, the order and the repeated keys depend
/// on the seed, and the work per round barely varies between seeds.
fn build_mix(seed: u64) -> Mix {
    let mut keys = Vec::new();
    // Pre-seeded entries are quick-quality, like a cache warmed by tests.
    for i in 0..PRESEEDED {
        let scenario = SCENARIOS[i % SCENARIOS.len()];
        keys.push(key(
            scenario,
            Quality::Quick,
            Rng64::derive_seed(seed, 1 << 40 | i as u64),
        ));
    }
    let preseeded: Vec<usize> = (0..PRESEEDED).collect();
    let mut fresh = Vec::new();
    for c in 0..CONNECTIONS {
        let mut mine = Vec::new();
        for i in 0..FRESH_PER_CONNECTION {
            let q = if (i / SCENARIOS.len()).is_multiple_of(2) {
                Quality::Quick
            } else {
                Quality::Paper
            };
            let fresh_seed = Rng64::derive_seed(seed, (c as u64 + 2) << 40 | i as u64);
            keys.push(key(SCENARIOS[i % SCENARIOS.len()], q, fresh_seed));
            mine.push(keys.len() - 1);
        }
        fresh.push(mine);
    }
    Mix {
        seed,
        keys,
        preseeded,
        fresh,
    }
}

impl Mix {
    /// Every connection's request sequence in round `round`: the fresh keys
    /// in a seeded order, with the repeats — each a key committed before
    /// it, pre-seeded or served earlier on the same connection — at seeded
    /// places. A new order every round, so a run's medians average over
    /// many interleavings of the two connections, not one.
    fn sequences(&self, round: usize) -> Vec<Vec<Req>> {
        let mut rng = Rng64::new(Rng64::derive_seed(self.seed, 3 << 40 | round as u64));
        let mut conns = Vec::new();
        for fresh in &self.fresh {
            let mut order = fresh.clone();
            rng.shuffle(&mut order);
            let mut is_repeat: Vec<bool> = (0..REQUESTS_PER_CONNECTION)
                .map(|i| i >= FRESH_PER_CONNECTION)
                .collect();
            rng.shuffle(&mut is_repeat);
            let mut known = self.preseeded.clone();
            let mut order = order.into_iter();
            let mut reqs = Vec::new();
            for repeat in is_repeat {
                if repeat {
                    reqs.push(Req {
                        key: *rng.pick(&known),
                        expect_cached: true,
                    });
                } else {
                    let key = order.next().expect("one fresh slot per fresh key");
                    known.push(key);
                    reqs.push(Req {
                        key,
                        expect_cached: false,
                    });
                }
            }
            conns.push(reqs);
        }
        conns
    }
}

/// `registry::run_scenario(..).to_json()` for every key, computed on two
/// threads before anything is timed.
fn references(keys: &[Key]) -> Vec<String> {
    let mut refs = vec![String::new(); keys.len()];
    std::thread::scope(|s| {
        let chunks: Vec<_> = refs.chunks_mut(keys.len().div_ceil(2).max(1)).collect();
        let mut start = 0;
        for chunk in chunks {
            let lo = start;
            start += chunk.len();
            s.spawn(move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let k = &keys[lo + j];
                    let spec = registry::find(k.scenario).expect("registered");
                    *slot =
                        registry::run_scenario(&spec, k.quality, k.seed, k.replicates, 1).to_json();
                }
            });
        }
    });
    refs
}

/// The daemon child: the same start-up as `examples/serve.rs --socket
/// <path> --cache-dir <dir> --workers 2`.
pub fn child_main(args: &[String]) -> i32 {
    let mut cfg = DaemonConfig {
        workers: WORKERS,
        ..DaemonConfig::default()
    };
    let mut socket = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.next()) {
            ("--socket", Some(v)) => socket = Some(PathBuf::from(v)),
            ("--cache-dir", Some(v)) => cfg.cache_dir = Some(PathBuf::from(v)),
            _ => return 2,
        }
    }
    let Some(socket) = socket else { return 2 };
    daemon::install_sigterm();
    let d = match Daemon::new(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench daemon: startup failed: {e}");
            return 1;
        }
    };
    let result = daemon::serve_socket(&d, &socket);
    d.shutdown();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            1
        }
    }
}

/// One line-oriented client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(path: &Path) -> std::io::Result<Conn> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_string())
    }
}

/// What one served request looked like from the client.
struct Served {
    latency_ms: f64,
    expect_cached: bool,
    /// Request to first `replicate` line, ms (computed requests only).
    first_replicate_ms: Option<f64>,
    /// Last `replicate` line to the `result` line, ms.
    commit_ms: Option<f64>,
}

/// Run connection `c`'s sequence; every check goes into `out`.
fn drive(
    conn: &mut Conn,
    c: usize,
    reqs: &[Req],
    keys: &[Key],
    refs: &[String],
    out: &mut Outcome,
) -> Vec<Served> {
    let mut served = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let k = &keys[req.key];
        let id = format!("c{c}-{i}");
        let line = format!(
            "{{\"type\":\"run\",\"id\":\"{id}\",\"scenario\":\"{}\",\"quality\":\"{}\",\"seed\":\"{:#x}\",\"replicates\":{}}}",
            k.scenario,
            k.quality.label(),
            k.seed,
            k.replicates
        );
        let t0 = Instant::now();
        let mut first = None;
        let mut last = None;
        if let Err(e) = conn.send(&line) {
            out.check(false, || format!("{id}: send failed: {e}"));
            break;
        }
        let result = loop {
            match conn.recv() {
                Ok(l) if l.starts_with("{\"type\":\"replicate\"") => {
                    let now = Instant::now();
                    first.get_or_insert(now);
                    last = Some(now);
                }
                other => break other,
            }
        };
        let t_end = Instant::now();
        let Ok(result) = result else {
            out.check(false, || format!("{id}: connection lost"));
            break;
        };
        let v = json::parse(result.as_bytes()).unwrap_or(Value::Null);
        let ok = v.field("type").and_then(Value::as_str) == Some("result")
            && v.field("status").and_then(Value::as_str) == Some("ok")
            && v.field("degraded").and_then(Value::as_bool) == Some(false);
        out.check(ok, || {
            format!("{id}: not an ok, undegraded result: {result}")
        });
        let cached = v.field("cached").and_then(Value::as_bool);
        out.check(cached == Some(req.expect_cached), || {
            format!("{id}: cached={cached:?}, expected {}", req.expect_cached)
        });
        let report = result
            .find(",\"report\":")
            .map(|i| &result[i + 10..result.len() - 1])
            .unwrap_or("");
        out.check(report == refs[req.key], || {
            format!(
                "{id}: served report differs from run_scenario for {}",
                k.scenario
            )
        });
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        served.push(Served {
            latency_ms: ms(t0, t_end),
            expect_cached: req.expect_cached,
            first_replicate_ms: first.map(|f| ms(t0, f)),
            commit_ms: last.map(|l| ms(l, t_end)),
        });
    }
    served
}

/// Facts of one round.
struct Round {
    setup_s: f64,
    wall_s: f64,
    rss_kb: Option<u64>,
    served: Vec<Served>,
    ping_ms: Vec<f64>,
    stats: Option<Value>,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// Wait up to ten seconds for the daemon to drain and exit; kill it
/// otherwise. True if it exited cleanly on its own.
fn stop(child: &mut Child) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(Some(status)) = child.try_wait() {
            return status.success();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
    false
}

fn ping(conn: &mut Conn) -> bool {
    conn.send("{\"type\":\"ping\",\"id\":\"p\"}").is_ok()
        && conn
            .recv()
            .is_ok_and(|l| l.starts_with("{\"type\":\"pong\""))
}

/// Spawn the daemon on a fresh copy of the pre-seeded cache, time it to
/// its first `pong`, drive the mix on every connection at once, then
/// collect its counters and peak memory and shut it down.
fn round(
    work: &Path,
    template: &Path,
    k: usize,
    mix: &Mix,
    refs: &[String],
    pings: usize,
    out: &mut Outcome,
) -> Option<Round> {
    let cache = work.join(format!("round{k}"));
    let socket = work.join(format!("r{k}.sock"));
    if let Err(e) = copy_dir(template, &cache) {
        out.check(false, || format!("copy pre-seeded cache: {e}"));
        return None;
    }
    let exe = std::env::current_exe().expect("own executable path");
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", "daemon", "--socket"])
        .arg(&socket)
        .arg("--cache-dir")
        .arg(&cache)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn the daemon");
    let mut first = None;
    while first.is_none() && t.elapsed() < Duration::from_secs(30) {
        match Conn::open(&socket) {
            Ok(c) => first = Some(c),
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
    let Some(mut first) = first else {
        out.check(false, || "daemon never accepted a connection".to_string());
        stop(&mut child);
        return None;
    };
    let up = ping(&mut first);
    let setup_s = t.elapsed().as_secs_f64();
    out.check(up, || "daemon did not answer the first ping".to_string());

    let mut ping_ms = Vec::with_capacity(pings);
    for _ in 0..pings {
        let p = Instant::now();
        if ping(&mut first) {
            ping_ms.push(p.elapsed().as_secs_f64() * 1e3);
        }
    }

    let mut conns = vec![first];
    for _ in 1..CONNECTIONS {
        match Conn::open(&socket) {
            Ok(c) => conns.push(c),
            Err(e) => out.check(false, || format!("second connection: {e}")),
        }
    }
    let seqs = mix.sequences(k);
    let start = Instant::now();
    let results: Vec<(Vec<Served>, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&seqs)
            .enumerate()
            .map(|(c, (conn, reqs))| {
                s.spawn(move || {
                    let mut o = Outcome::default();
                    let served = drive(conn, c, reqs, &mix.keys, refs, &mut o);
                    (served, o)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut served = Vec::new();
    for (s, o) in results {
        served.extend(s);
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.failures.extend(o.failures);
    }

    let rss_kb = vmhwm_kb(&child.id().to_string());
    let conn = &mut conns[0];
    let stats = conn
        .send("{\"type\":\"stats\",\"id\":\"s\"}")
        .ok()
        .and_then(|()| conn.recv().ok())
        .and_then(|l| json::parse(l.as_bytes()).ok());
    let _ = conn.send("{\"type\":\"shutdown\",\"id\":\"x\"}");
    let _ = conn.recv();
    drop(conns);
    let clean = stop(&mut child);
    out.check(clean, || {
        "daemon did not drain and exit cleanly".to_string()
    });
    let _ = std::fs::remove_dir_all(&cache);
    Some(Round {
        setup_s,
        wall_s,
        rss_kb,
        served,
        ping_ms,
        stats,
    })
}

fn counter(stats: &Option<Value>, name: &str) -> f64 {
    stats
        .as_ref()
        .and_then(|v| v.field("metrics"))
        .and_then(|m| m.field("counters"))
        .and_then(|m| m.field(name))
        .and_then(as_f64)
        .unwrap_or(0.0)
}

/// Set up the work directory, the references and the pre-seeded cache.
fn prepare(seed: u64, out: &mut Outcome) -> Option<(PathBuf, Mix, Vec<String>)> {
    let work = PathBuf::from(".perfbench").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    let mix = build_mix(seed);
    let refs = references(&mix.keys);
    let template = work.join("template");
    let committed = ResultCache::open(&template).and_then(|(cache, _)| {
        mix.preseeded
            .iter()
            .try_for_each(|&i| cache.put(&mix.keys[i].cache_key(), &refs[i]))
    });
    out.check(committed.is_ok(), || {
        format!("pre-seed the cache: {committed:?}")
    });
    committed.ok().map(|()| (work, mix, refs))
}

/// The untraced workload.
pub fn run_untraced(seed: u64, seconds: f64, out: &mut Outcome) {
    let Some((work, mix, refs)) = prepare(seed, out) else {
        return;
    };
    let template = work.join("template");
    let mut rounds = Vec::new();
    let mut timed = 0.0;
    while timed < seconds || rounds.is_empty() {
        let Some(r) = round(&work, &template, rounds.len(), &mix, &refs, 0, out) else {
            break;
        };
        timed += r.wall_s;
        rounds.push(r);
    }
    let _ = std::fs::remove_dir_all(&work);
    if rounds.is_empty() {
        return;
    }

    let all: Vec<&Served> = rounds.iter().flat_map(|r| &r.served).collect();
    let lat: Vec<f64> = all.iter().map(|s| s.latency_ms).collect();
    let hits: Vec<f64> = all
        .iter()
        .filter(|s| s.expect_cached)
        .map(|s| s.latency_ms)
        .collect();
    let misses: Vec<f64> = all
        .iter()
        .filter(|s| !s.expect_cached)
        .map(|s| s.latency_ms)
        .collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let rss: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.rss_kb)
        .map(|kb| kb as f64 / 1024.0)
        .collect();
    out.check(rss.len() == rounds.len(), || {
        "daemon peak memory unreadable".to_string()
    });
    let round_lat: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.served.iter().map(|s| s.latency_ms).collect())
        .collect();
    let (tail_ms, pct) = round_tail(&round_lat);
    out.metric("setup_s", median(&setups), "s");
    out.metric("wall_s", median(&walls), "s");
    out.metric("peak_rss_mb", median(&rss), "MB");
    let per_round = (CONNECTIONS * REQUESTS_PER_CONNECTION) as f64;
    let rates: Vec<f64> = walls.iter().map(|w| per_round / w).collect();
    out.metric("req_per_s", median(&rates), "1/s");
    out.metric("miss_p50_ms", median(&misses), "ms");
    out.metric("req_tail_ms", tail_ms, "ms");
    out.note("request", "one served run request over the Unix socket");
    out.note("rounds", rounds.len());
    out.note("round_wall_s", join3(&walls));
    out.note("requests", lat.len());
    out.note("req_p50_ms", format!("{:.6}", median(&lat)));
    out.note("req_tail_percentile", format!("{pct:.2}"));
    out.note("req_tail_over", "each round's requests, median over rounds");
    out.note("hit_p50_ms", format!("{:.6}", median(&hits)));
    out.note(
        "hit_share",
        format!("{:.4}", hits.len() as f64 / lat.len() as f64),
    );
    out.note("preseeded_entries", PRESEEDED);
}

/// The traced workload: one served round for the `serve.*` facts, then
/// every DES key re-enacted and every sample-plane key timed in-process.
pub fn run_traced(seed: u64, out: &mut Outcome) {
    let Some((work, mix, refs)) = prepare(seed, out) else {
        return;
    };
    let r = round(&work, &work.join("template"), 0, &mix, &refs, PINGS, out);
    let _ = std::fs::remove_dir_all(&work);
    let Some(r) = r else { return };

    let served = |cached: bool, f: fn(&Served) -> Option<f64>| -> f64 {
        let xs: Vec<f64> = r
            .served
            .iter()
            .filter(|s| s.expect_cached == cached)
            .filter_map(f)
            .collect();
        median(&xs)
    };
    let hits = counter(&r.stats, "serve.cache_hits");
    let misses = counter(&r.stats, "serve.cache_misses");
    let facts = ServeFacts {
        ping_rtt_ms: median(&r.ping_ms),
        first_replicate_ms: served(false, |s| s.first_replicate_ms),
        commit_ms: served(false, |s| s.commit_ms),
        hit_ratio: hits / (hits + misses).max(1.0),
        sheds: counter(&r.stats, "serve.sheds"),
        degraded: counter(&r.stats, "serve.degraded"),
        hit_p50_ms: served(true, |s| Some(s.latency_ms)),
    };

    // Every key of the mix (all distinct by seed), in mix order.
    let mut acc = TraceAcc::default();
    for k in &mix.keys {
        let spec = registry::find(k.scenario).expect("registered");
        traced::run_scenario_traced(&spec, k.quality, k.seed, k.replicates, &mut acc, out);
    }
    traced::per_layer_metrics(&acc, &facts, out);
}
