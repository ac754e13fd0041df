//! The deterministic parallel experiment engine.
//!
//! The paper's §10 methodology is Monte Carlo: every figure is dozens of
//! random role picks, and the statistical claims ("IAC's rate is on average
//! 1.5×") only firm up with many independent channel realizations. This
//! module turns one scenario run into `replicates` independent **trials**
//! and spreads them over a scoped-thread worker pool — while keeping the
//! result **bit-identical to a serial run**, whatever the thread count.
//!
//! Determinism rests on two rules:
//!
//! 1. **Trial-indexed seeding.** Trial `i` of a run with master seed `m`
//!    always computes with [`Rng64::derive_seed`]`(m, i)`. A trial's output
//!    is a pure function of `(m, i)` — no shared RNG, no dependence on which
//!    worker ran it or when.
//! 2. **Order-independent reduction.** Workers claim trial-index **ranges**
//!    from a shared atomic cursor and keep `(index, output)` pairs locally;
//!    the reducer merges the per-worker shards and sorts by trial index
//!    before any aggregation. The reduce input is therefore the same
//!    sequence a single thread would have produced.
//!
//! The claiming is **chunked work-stealing** (guided self-scheduling): each
//! claim takes `remaining / (4 · workers)` trials, at least one — big chunks
//! early so per-claim synchronisation amortises and each worker's
//! thread-local scratch arenas (FFT plans, pooled buffers — see
//! [`iac_phy::fft::with_thread_scratch`]) stay warm across a run of trials,
//! geometrically shrinking toward the end so an unlucky run of slow trials
//! cannot idle the other workers. The caller's own thread acts as worker
//! lane 0 — one fewer spawn, and the lane with the warmest arena (it
//! persists across engine runs) always participates.
//!
//! [`run_trials`] resolves the *requested* thread count and then clamps it
//! to the machine's available parallelism: workers beyond the core count
//! cannot run concurrently and only add spawn/switch overhead and cold
//! arenas (outputs are bit-identical at every worker count, so the clamp is
//! unobservable in results). Every run mode — plain, deadline-bounded,
//! observed, or both — goes through the one claim loop in
//! [`run_trials_with`], driven by a [`RunOpts`] value whose
//! [`RunOpts::workers`] count is exact, for tests and scaling studies.
//!
//! Construction of non-[`Send`] machinery (e.g. the `Rc`-based metrics log
//! of `iac-des` simulations) happens *inside* the worker closure, so only
//! the plain-data outputs ever cross a thread boundary.

use iac_linalg::Rng64;
use iac_obs::{ProfileTree, Profiler, TraceEvent};
use iac_phy::ScratchStats;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A cooperative wall-clock deadline, shared by the trial engine
/// ([`RunOpts::deadline`]), the sweep CLI's `--timeout-secs`, and
/// the `iac-serve` daemon's per-request deadlines.
///
/// A deadline is only ever *checked between units of work* (between
/// replicates here, between queue claims in the daemon) — a trial that has
/// started always runs to completion, so partial results are whole trials
/// and stay bit-faithful to what an unbounded run would have produced for
/// those trial indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// The unbounded deadline: never expires.
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// Expire `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Some(Instant::now() + d),
        }
    }

    /// Expire at the given instant.
    pub fn at(instant: Instant) -> Self {
        Deadline { at: Some(instant) }
    }

    /// Whether the deadline is bounded at all.
    pub fn is_bounded(&self) -> bool {
        self.at.is_some()
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left: `None` for an unbounded deadline, `Some(ZERO)` once
    /// expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// One unit of work for the pool: a replicate index and the seed that
/// replicate must use — everything a worker needs, nothing more. The
/// registry builds these via [`trials_for`] before fanning out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Replicate number within the scenario, `0..replicates`.
    pub replicate: usize,
    /// Derived seed: `Rng64::derive_seed(scenario_master, replicate)`.
    pub seed: u64,
}

/// Build the trial list for one scenario: replicate `i` gets the seed
/// derived from the scenario's master seed at stream index `i`.
pub fn trials_for(master_seed: u64, replicates: usize) -> Vec<Trial> {
    (0..replicates)
        .map(|replicate| Trial {
            replicate,
            seed: Rng64::derive_seed(master_seed, replicate as u64),
        })
        .collect()
}

/// Parse an `IAC_TEST_THREADS` value. The variable being *set* always
/// yields a definite worker count: a positive integer is taken as-is, and
/// `0`, negative, or garbage values clamp to 1 (a mis-set CI matrix cell
/// must degrade to serial, not silently fall through to "all cores").
fn threads_from_env(raw: &str) -> usize {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0).unwrap_or(1)
}

/// Resolve a requested worker count: `0` means "pick for me" — the
/// `IAC_TEST_THREADS` environment variable if set (the CI matrix runs the
/// suite at 1 and 4; `0` or unparsable values clamp to 1, see
/// `threads_from_env`), otherwise the machine's available parallelism.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("IAC_TEST_THREADS") {
        return threads_from_env(&v);
    }
    available_cores()
}

/// The machine's available parallelism (1 when unknown).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count [`run_trials`] actually uses for `n` trials at a
/// requested thread count: [`resolve_threads`], then clamped to the
/// machine's cores (oversubscribed workers cannot run concurrently — they
/// only add spawn overhead and cold thread-local arenas) and to the trial
/// count. Outputs are bit-identical at every worker count, so the clamp
/// never changes results — only wall-clock.
pub fn effective_workers(requested: usize, n: usize) -> usize {
    RunOpts::threads(requested).workers.clamp(1, n.max(1))
}

/// Geometric chunk divisor: each claim takes `remaining / (4·workers)`
/// trials. 4 chunks per worker on the first lap keeps the tail granular
/// enough that one slow chunk cannot idle the pool for long, while the
/// first claims are large enough to amortise the CAS and keep a worker's
/// scratch arena hot across a run of consecutive trials.
const CHUNK_DIVISOR: usize = 4;

/// Claim the next index range from the shared cursor: geometrically
/// shrinking chunks, never empty, `None` once the cursor passes `n`.
fn claim_chunk(cursor: &AtomicUsize, n: usize, workers: usize) -> Option<Range<usize>> {
    loop {
        let start = cursor.load(Ordering::Acquire);
        if start >= n {
            return None;
        }
        let size = ((n - start) / (CHUNK_DIVISOR * workers)).max(1);
        if cursor
            .compare_exchange_weak(start, start + size, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return Some(start..start + size);
        }
    }
}

/// How to run a batch of trials: the engine's only knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Worker lanes, exact (clamped only to `1..=n`). [`RunOpts::threads`]
    /// resolves a thread request the way [`run_trials`] does.
    pub workers: usize,
    /// Stop claiming trials once this passes; [`Deadline::none`] runs all.
    pub deadline: Deadline,
    /// Collect [`EngineFacts`] (timings, lane scratch deltas, profile).
    pub observe: bool,
}

impl RunOpts {
    /// Exactly `workers` lanes — no environment lookup, no core clamp — for
    /// tests and scaling studies that must exercise a specific pool size
    /// (the determinism contract holds for any count). Unbounded,
    /// unobserved.
    pub fn workers(workers: usize) -> Self {
        RunOpts {
            workers,
            deadline: Deadline::none(),
            observe: false,
        }
    }

    /// A thread request (`0` = auto, see [`resolve_threads`]) clamped to
    /// the machine's cores. Unbounded, unobserved.
    pub fn threads(threads: usize) -> Self {
        Self::workers(resolve_threads(threads).min(available_cores()))
    }
}

/// What [`run_trials_with`] returns.
#[derive(Debug, Clone)]
pub struct TrialRun<T> {
    /// Outputs of the contiguous prefix `0..k` of trials, in trial order.
    pub outputs: Vec<T>,
    /// Whether every trial ran (`k == n`); false only on deadline expiry.
    pub complete: bool,
    /// Execution facts about the prefix; empty unless [`RunOpts::observe`].
    pub facts: EngineFacts,
}

/// Run `n` trials on the *effective* worker count for `threads` (see
/// [`effective_workers`]) and return the outputs **in trial order** —
/// bit-identical to `(0..n).map(run).collect()` for every thread count,
/// provided `run(i)` is a pure function of `i` (which the seeding contract
/// guarantees for registry scenarios).
pub fn run_trials<T, F>(n: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_trials_with(n, RunOpts::threads(threads), run).outputs
}

/// The engine: run trials `0..n` on `opts.workers` lanes and return them in
/// trial order. The caller's thread is lane 0; further lanes are scoped
/// threads. Every lane drains chunks off one shared cursor.
///
/// Under a bounded [`Deadline`] lanes check it **before starting** each
/// trial and stop once it has passed; a started trial always completes. The
/// outputs are then the contiguous prefix `0..k` — bit-identical to the
/// first `k` trials of an unbounded run, whatever the worker count (only `k`
/// is timing-dependent). A lane may abandon the tail of its chunk at
/// expiry, so trials completed beyond the first gap are dropped.
///
/// With `observe`, each trial runs under a span on its lane's profiler and
/// [`TrialRun::facts`] describes the kept prefix: one timing per trial
/// (when telemetry is compiled in) and per-lane trial counts summing to
/// `k`. The facts ride alongside and never influence the outputs.
pub fn run_trials_with<T, F>(n: usize, opts: RunOpts, run: F) -> TrialRun<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = opts.workers.clamp(1, n.max(1));
    let origin = Instant::now();
    let cursor = AtomicUsize::new(0);
    let lane = |id: u32| {
        let mut obs = opts.observe.then(|| Lane::start(id, origin));
        let mut shard: Vec<(usize, T)> = Vec::new();
        'claims: while let Some(range) = claim_chunk(&cursor, n, workers) {
            // Plain runs take the whole chunk without per-trial checks: the
            // early-exit loop below costs the dispatch measurably.
            if obs.is_none() && !opts.deadline.is_bounded() {
                shard.extend(range.map(|i| (i, run(i))));
                continue;
            }
            for i in range {
                if opts.deadline.expired() {
                    break 'claims;
                }
                let out = match obs.as_mut() {
                    Some(observer) => observer.observe(i, &run),
                    None => run(i),
                };
                shard.push((i, out));
            }
        }
        // Sealed on the lane's own thread: the scratch delta reads the
        // thread-local arena stats.
        (shard, obs.map(Lane::finish))
    };
    let mut merged: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut sealed = Vec::new();
    let mut keep = |(shard, facts): (Vec<(usize, T)>, Option<LaneFacts>)| {
        merged.extend(shard);
        sealed.extend(facts);
    };
    if workers == 1 {
        keep(lane(0));
    } else {
        std::thread::scope(|scope| {
            let lane = &lane;
            let handles: Vec<_> = (1..workers as u32)
                .map(|id| scope.spawn(move || lane(id)))
                .collect();
            // The caller is lane 0: no spawn for it, and its thread-local
            // scratch arena (warm from previous runs) serves a share of
            // trials.
            keep(lane(0));
            for h in handles {
                keep(h.join().expect("trial worker panicked"));
            }
        });
    }
    // The order-independent reduce: whatever interleaving the lanes saw,
    // the caller observes trial order, cut at the first gap (claimed indices
    // are distinct, so all `n` back means there is none).
    merged.sort_by_key(|&(i, _)| i);
    let k = if merged.len() == n {
        n
    } else {
        merged.iter().enumerate().take_while(|&(k, &(i, _))| i == k).count()
    };
    debug_assert!(opts.deadline.is_bounded() || k == n);
    merged.truncate(k);
    let mut facts = EngineFacts::default();
    for lane in sealed {
        lane.fold_into(&mut facts, k);
    }
    facts.timings.sort_by_key(|t| t.index);
    facts.workers.sort_by_key(|w| w.lane);
    TrialRun {
        outputs: merged.into_iter().map(|(_, t)| t).collect(),
        complete: k == n,
        facts,
    }
}

/// Wall-clock timing of one trial, as observed by an observed
/// [`run_trials_with`]. Timestamps are relative to the run's start, so all
/// lanes share one time base (the Chrome-trace convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialTiming {
    /// Trial index within the run.
    pub index: usize,
    /// Worker lane that executed the trial (`tid` in the trace).
    pub lane: u32,
    /// Nanoseconds from run start to trial start.
    pub start_ns: u64,
    /// Trial duration, nanoseconds.
    pub dur_ns: u64,
}

/// One worker lane's contribution to an observed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFacts {
    /// Lane id, `0..threads` (lane 0 is the calling thread).
    pub lane: u32,
    /// Trials of the kept prefix this lane ran.
    pub trials: u64,
    /// The lane's scratch-arena activity **delta** over the run
    /// ([`iac_phy::fft::thread_scratch_stats`] before/after — the arena is
    /// thread-local and outlives the run, so only the delta is attributable).
    pub scratch: ScratchStats,
}

/// Everything an observed run learns beyond its outputs. Entirely
/// execution-dependent (wall-clock, lane assignment) — never feed any of it
/// back into simulation results.
#[derive(Debug, Clone, Default)]
pub struct EngineFacts {
    /// Per-trial wall-clock timings, in trial order. Empty when the `obs`
    /// feature is off (spans compile out).
    pub timings: Vec<TrialTiming>,
    /// Per-lane summaries, in lane order.
    pub workers: Vec<WorkerFacts>,
    /// The merged span-profile tree across all lanes (every trial span a
    /// lane ran, including any dropped past a deadline gap).
    pub profile: ProfileTree,
    /// Chrome-trace events (one per kept trial span), unsorted across lanes.
    pub trace: Vec<TraceEvent>,
}

/// Per-lane observation state: a tracing profiler, the claim order (to map
/// trace events back to trial indices), and the scratch-stats baseline.
struct Lane {
    lane: u32,
    prof: Profiler,
    order: Vec<usize>,
    scratch_before: ScratchStats,
}

impl Lane {
    fn start(lane: u32, origin: Instant) -> Self {
        Lane {
            lane,
            prof: Profiler::with_trace(lane, origin),
            order: Vec::new(),
            scratch_before: iac_phy::fft::thread_scratch_stats(),
        }
    }

    fn observe<T>(&mut self, i: usize, run: &impl Fn(usize) -> T) -> T {
        self.order.push(i);
        let _span = iac_obs::span!(self.prof, "trial");
        run(i)
    }

    /// Seal the lane's observations. Must run **on the lane's own thread**:
    /// the scratch-arena delta reads the thread-local stats.
    fn finish(self) -> LaneFacts {
        LaneFacts {
            lane: self.lane,
            scratch: iac_phy::fft::thread_scratch_stats().since(&self.scratch_before),
            tree: self.prof.tree(),
            events: self.prof.take_trace_events(),
            order: self.order,
        }
    }
}

/// A lane's sealed observations, safe to ship across threads.
struct LaneFacts {
    lane: u32,
    order: Vec<usize>,
    tree: ProfileTree,
    events: Vec<TraceEvent>,
    scratch: ScratchStats,
}

impl LaneFacts {
    /// Fold into the run-wide facts, keeping only trials of the prefix
    /// `0..k`. Trial spans open and close sequentially on one lane, so the
    /// lane's trace events line up one-to-one with its claim order (or are
    /// absent entirely when telemetry is compiled out).
    fn fold_into(self, facts: &mut EngineFacts, k: usize) {
        for (&index, ev) in self.order.iter().zip(self.events) {
            if index < k {
                facts.timings.push(TrialTiming {
                    index,
                    lane: self.lane,
                    start_ns: ev.ts_ns,
                    dur_ns: ev.dur_ns,
                });
                facts.trace.push(ev);
            }
        }
        facts.workers.push(WorkerFacts {
            lane: self.lane,
            trials: self.order.iter().filter(|&&i| i < k).count() as u64,
            scratch: self.scratch,
        });
        facts.profile.merge(&self.tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_order_is_restored_for_every_worker_count() {
        // Exact `RunOpts::workers`, not `run_trials`: the public entry clamps
        // to the machine's cores, and this test must exercise real
        // multi-worker chunk claiming even on a single-core container.
        let serial: Vec<u64> = (0..37).map(|i| Rng64::derive(9, i as u64).next_u64()).collect();
        for workers in [1, 2, 3, 7, 16] {
            let parallel = run_trials_with(37, RunOpts::workers(workers), |i| {
                Rng64::derive(9, i as u64).next_u64()
            })
            .outputs;
            assert_eq!(parallel, serial, "workers = {workers}");
        }
        // The clamped public entry agrees, whatever the machine.
        for threads in [0, 1, 2, 7] {
            let clamped = run_trials(37, threads, |i| Rng64::derive(9, i as u64).next_u64());
            assert_eq!(clamped, serial, "threads = {threads}");
        }
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        // The CAS claim loop must partition 0..n whatever the contention:
        // replay it single-threaded and check the geometric sizes.
        let n = 1000;
        let workers = 4;
        let cursor = AtomicUsize::new(0);
        let mut seen = vec![0u32; n];
        let mut last_size = usize::MAX;
        while let Some(r) = claim_chunk(&cursor, n, workers) {
            assert!(!r.is_empty());
            assert!(r.len() <= last_size, "chunks must shrink (or stay) over time");
            last_size = r.len();
            for i in r {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "every index claimed exactly once");
        // First claim of 1000 trials on 4 workers: 1000/16 = 62.
        assert_eq!(last_size, 1, "the tail degenerates to single-trial chunks");
    }

    #[test]
    fn uneven_trial_costs_still_reduce_in_order() {
        // Early trials sleep, late ones return immediately: workers finish
        // out of order, the reducer must not care.
        let out = run_trials_with(12, RunOpts::workers(4), |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        })
        .outputs;
        assert_eq!(out, (0..12).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_trials_work() {
        assert_eq!(run_trials(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_trials(1, 4, |i| i + 1), vec![1]);
        assert_eq!(run_trials_with(0, RunOpts::workers(4), |i| i).outputs, Vec::<usize>::new());
        assert_eq!(run_trials_with(1, RunOpts::workers(4), |i| i + 1).outputs, vec![1]);
    }

    #[test]
    fn trials_for_uses_the_derivation_contract() {
        let ts = trials_for(77, 4);
        assert_eq!(ts.len(), 4);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(t.replicate, i);
            assert_eq!(t.seed, Rng64::derive_seed(77, i as u64));
        }
    }

    #[test]
    fn explicit_thread_request_wins_over_env() {
        assert_eq!(resolve_threads(5), 5);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn env_var_edge_cases_clamp_to_one() {
        // The CI matrix exports IAC_TEST_THREADS; a mis-set cell must mean
        // "serial", never "all cores". (Pure parser — process-env mutation
        // is racy under the parallel test harness.)
        assert_eq!(threads_from_env("4"), 4);
        assert_eq!(threads_from_env(" 2 "), 2, "whitespace is trimmed");
        assert_eq!(threads_from_env("0"), 1, "zero clamps to serial");
        assert_eq!(threads_from_env("-3"), 1, "negative clamps to serial");
        assert_eq!(threads_from_env(""), 1, "empty clamps to serial");
        assert_eq!(threads_from_env("garbage"), 1, "garbage clamps to serial");
        assert_eq!(threads_from_env("2.5"), 1, "non-integer clamps to serial");
    }

    #[test]
    fn effective_workers_clamps_to_cores_and_trials() {
        let cores = available_cores();
        assert_eq!(effective_workers(1, 100), 1);
        assert!(effective_workers(1024, 100) <= cores);
        assert_eq!(effective_workers(4, 2), 2.min(cores), "never more workers than trials");
        assert_eq!(effective_workers(4, 0), 1, "zero trials still needs one lane");
    }

    #[test]
    fn observed_outputs_match_plain_for_every_worker_count() {
        let serial: Vec<u64> = (0..23).map(|i| Rng64::derive(3, i as u64).next_u64()).collect();
        for workers in [1, 2, 4] {
            let observed = RunOpts { observe: true, ..RunOpts::workers(workers) };
            let TrialRun { outputs: out, facts, .. } =
                run_trials_with(23, observed, |i| Rng64::derive(3, i as u64).next_u64());
            assert_eq!(out, serial, "workers = {workers}");
            assert_eq!(
                facts.workers.iter().map(|w| w.trials).sum::<u64>(),
                23,
                "every trial is claimed by exactly one lane"
            );
            assert!(
                facts.workers.windows(2).all(|w| w[0].lane < w[1].lane),
                "per-lane summaries come back in lane order"
            );
            if iac_obs::ENABLED {
                assert_eq!(facts.timings.len(), 23);
                for (k, t) in facts.timings.iter().enumerate() {
                    assert_eq!(t.index, k, "timings come back in trial order");
                }
                assert_eq!(facts.trace.len(), 23);
                assert_eq!(facts.profile.roots.len(), 1);
                assert_eq!(facts.profile.roots[0].name, "trial");
                assert_eq!(facts.profile.roots[0].count, 23);
            } else {
                assert!(facts.timings.is_empty(), "spans compile out");
                assert!(facts.trace.is_empty());
                assert!(facts.profile.roots.is_empty());
            }
        }
    }

    #[test]
    fn unbounded_deadline_runs_everything() {
        let TrialRun { outputs: out, complete, .. } =
            run_trials_with(9, RunOpts::threads(3), |i| i * 2);
        assert!(complete);
        assert_eq!(out, (0..9).map(|i| i * 2).collect::<Vec<_>>());
        assert!(!Deadline::none().expired());
        assert_eq!(Deadline::none().remaining(), None);
    }

    #[test]
    fn expired_deadline_stops_between_trials() {
        // Already-expired deadline: zero trials run (serial and parallel) —
        // the k == 0 corner of the contiguous-prefix contract.
        for workers in [1, 4] {
            let past = Deadline::at(Instant::now() - Duration::from_millis(1));
            assert!(past.expired());
            assert_eq!(past.remaining(), Some(Duration::ZERO));
            let opts = RunOpts { deadline: past, ..RunOpts::workers(workers) };
            let TrialRun { outputs: out, complete, .. } = run_trials_with(8, opts, |i| i);
            assert!(!complete, "workers = {workers}");
            assert!(out.is_empty(), "workers = {workers}");
        }
    }

    #[test]
    fn partial_results_are_the_contiguous_prefix() {
        // Slow trials against a short deadline: whatever completes must be
        // the prefix 0..k with the same values an unbounded run produces.
        // Worker counts above 2 exercise mid-chunk abandonment: a lane that
        // gives up inside its claimed range leaves a hole the reducer must
        // truncate at. Observed runs hold the same contract, and their facts
        // describe exactly the kept prefix.
        let n = 256;
        let plain = [1, 3, 4].map(|w| (w, false));
        let observed = [1, 2, 3, 7, 16].map(|w| (w, true));
        for (workers, observe) in plain.into_iter().chain(observed) {
            let opts = RunOpts {
                deadline: Deadline::after(Duration::from_millis(30)),
                observe,
                ..RunOpts::workers(workers)
            };
            let TrialRun { outputs: out, complete, facts } = run_trials_with(n, opts, |i| {
                std::thread::sleep(Duration::from_millis(4));
                i * 7
            });
            let at = format!("workers = {workers}, observe = {observe}");
            assert!(!complete, "256 * 4ms over 16 lanes cannot fit in 30ms ({at})");
            assert!(out.len() < n);
            assert_eq!(out, (0..out.len()).map(|i| i * 7).collect::<Vec<_>>(), "{at}");
            if !observe {
                assert!(facts.workers.is_empty(), "unobserved runs collect nothing");
                continue;
            }
            assert_eq!(facts.workers.len(), workers, "{at}");
            assert_eq!(
                facts.workers.iter().map(|w| w.trials).sum::<u64>(),
                out.len() as u64,
                "lane counts cover the kept prefix ({at})"
            );
            if iac_obs::ENABLED {
                let indices: Vec<usize> = facts.timings.iter().map(|t| t.index).collect();
                let kept: Vec<usize> = (0..out.len()).collect();
                assert_eq!(indices, kept, "one timing per kept trial ({at})");
                assert_eq!(facts.trace.len(), out.len(), "{at}");
            } else {
                assert!(facts.timings.is_empty() && facts.trace.is_empty(), "spans compile out");
            }
        }
    }

    #[test]
    fn deadline_prefix_at_four_workers_matches_serial_byte_for_byte() {
        // Regression test for the partial-prefix contract at 4 workers: the
        // prefix must be bit-identical to the serial prefix (u64 outputs are
        // compared exactly), across many deadline positions so k sweeps the
        // full range — including k == 0 (expired before the first trial) and
        // k == n (deadline after the last).
        let n = 48;
        let serial: Vec<u64> = (0..n).map(|i| Rng64::derive(13, i as u64).next_u64()).collect();
        let trial = |i: usize| {
            std::thread::sleep(Duration::from_micros(300));
            Rng64::derive(13, i as u64).next_u64()
        };
        // k == 0: already expired.
        let TrialRun { outputs: out, complete, .. } = run_trials_with(
            n,
            RunOpts {
                deadline: Deadline::at(Instant::now() - Duration::from_millis(1)),
                ..RunOpts::workers(4)
            },
            trial,
        );
        assert!(!complete);
        assert_eq!(out, Vec::<u64>::new());
        // k == n: generous deadline completes and matches serial exactly.
        let generous = Deadline::after(Duration::from_secs(3600));
        let TrialRun { outputs: out, complete, .. } =
            run_trials_with(n, RunOpts { deadline: generous, ..RunOpts::workers(4) }, trial);
        assert!(complete);
        assert_eq!(out, serial);
        // Mid-run expiry at several horizons: every partial is the exact
        // serial prefix (bit-identical u64s), whatever k lands on.
        for ms in [1u64, 3, 7] {
            let deadline = Deadline::after(Duration::from_millis(ms));
            let TrialRun { outputs: out, complete, .. } =
                run_trials_with(n, RunOpts { deadline, ..RunOpts::workers(4) }, trial);
            assert_eq!(out.as_slice(), &serial[..out.len()], "horizon {ms}ms");
            assert_eq!(complete, out.len() == n, "horizon {ms}ms");
        }
    }

    #[test]
    fn generous_deadline_completes_and_matches_unbounded() {
        let serial: Vec<u64> = (0..11).map(|i| Rng64::derive(5, i as u64).next_u64()).collect();
        let TrialRun { outputs: out, complete, .. } = run_trials_with(
            11,
            RunOpts {
                deadline: Deadline::after(Duration::from_secs(3600)),
                ..RunOpts::threads(2)
            },
            |i| Rng64::derive(5, i as u64).next_u64(),
        );
        assert!(complete);
        assert_eq!(out, serial);
    }

    #[test]
    fn observed_scratch_deltas_are_per_run() {
        // A trial that exercises the thread-local FFT arena must show up in
        // its lane's delta — and only the delta, not the thread's lifetime
        // totals (the arena persists across runs on one thread).
        let observed = RunOpts { observe: true, ..RunOpts::threads(1) };
        let first = run_trials_with(2, observed, |_| {
            let mut x = vec![iac_linalg::C64::one(); 64];
            iac_phy::fft::fft(&mut x);
        })
        .facts;
        let second = run_trials_with(2, observed, |_| {
            let mut x = vec![iac_linalg::C64::one(); 64];
            iac_phy::fft::fft(&mut x);
        })
        .facts;
        let total =
            |f: &EngineFacts| f.workers.iter().map(|w| w.scratch.plan_hits + w.scratch.plan_misses).sum::<u64>();
        assert_eq!(total(&first), 2);
        assert_eq!(total(&second), 2, "second run reports its own delta, not the cumulative total");
    }

    #[test]
    fn caller_thread_is_lane_zero_and_keeps_its_arena_warm() {
        // Lane 0 runs on the calling thread: its scratch delta accumulates
        // on *this* thread's arena. Two observed runs back to back — the
        // second run's plan lookups hit the cache the first run warmed,
        // proving per-worker plan reuse across engine runs.
        let trial = |_i: usize| {
            let mut x = vec![iac_linalg::C64::one(); 32];
            iac_phy::fft::fft(&mut x);
        };
        // Warm the calling thread's arena: after this, plan(32) is cached
        // on *this* thread, so any trial lane 0 claims must be a plan hit.
        trial(0);
        let before = iac_phy::fft::thread_scratch_stats();
        let observed = RunOpts { observe: true, ..RunOpts::workers(2) };
        let facts = run_trials_with(3, observed, trial).facts;
        let lane0 = facts.workers.iter().find(|w| w.lane == 0).expect("lane 0 reported");
        let on_caller = iac_phy::fft::thread_scratch_stats().since(&before);
        assert_eq!(
            lane0.scratch, on_caller,
            "lane 0's delta is the calling thread's arena delta"
        );
        assert_eq!(
            lane0.scratch.plan_misses, 0,
            "lane 0 reuses the plan the calling thread cached before the run"
        );
    }
}
