//! The traced run's shared machinery: run a scenario's trials through the
//! engine untraced (the program's outputs and timings), re-enact each trial
//! under the layer clocks, and check the two agree bit for bit.

use crate::clock::{Clock, Count, Span};
use crate::report::Outcome;
use crate::retrace;
use crate::stats::median;
use iac_lan::phy::dsp::ScratchStats;
use iac_lan::sim::{engine, registry, Quality, Scenario, ScenarioReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Everything the traced run accumulates across scenarios.
#[derive(Default)]
pub struct TraceAcc {
    pub clock: Clock,
    /// Untraced trial time of the trials that were re-enacted.
    pub plain_retraced_s: f64,
    /// `run_trials` wall time minus the trial time inside it.
    pub engine_overhead_s: f64,
    /// `registry::reduce_outputs` time.
    pub reduce_s: f64,
    /// Untraced trial times per scenario, milliseconds.
    pub trial_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Sample-plane scratch arena activity over the untraced trials.
    pub scratch: ScratchStats,
}

/// Run `replicates` trials of `spec` the way `registry::run_scenario` does
/// (engine, then reduce), timing each trial; then, if the scenario has a
/// re-enactment, re-run every trial under the layer clocks and check it
/// reproduces the program's `TrialOutput`.
pub fn run_scenario_traced(
    spec: &Scenario,
    quality: Quality,
    master: u64,
    replicates: usize,
    acc: &mut TraceAcc,
    out: &mut Outcome,
) -> ScenarioReport {
    let seeds: Vec<u64> =
        engine::trials_for(registry::scenario_seed(master, spec.name), replicates)
            .iter()
            .map(|t| t.seed)
            .collect();
    let run = spec.run;
    let scratch_before = iac_lan::phy::fft::thread_scratch_stats();
    let t0 = Instant::now();
    let timed = engine::run_trials(seeds.len(), 1, |i| {
        let t = Instant::now();
        let o = run(quality, seeds[i]);
        (o, t.elapsed())
    });
    let engine_wall = t0.elapsed();
    let s = iac_lan::phy::fft::thread_scratch_stats().since(&scratch_before);
    acc.scratch.pool_hits += s.pool_hits;
    acc.scratch.pool_misses += s.pool_misses;
    acc.scratch.plan_hits += s.plan_hits;
    acc.scratch.plan_misses += s.plan_misses;

    let trial_total: Duration = timed.iter().map(|(_, d)| *d).sum();
    acc.engine_overhead_s += engine_wall.saturating_sub(trial_total).as_secs_f64();
    acc.trial_ms
        .entry(spec.name)
        .or_default()
        .extend(timed.iter().map(|(_, d)| d.as_secs_f64() * 1e3));
    let outputs: Vec<_> = timed.into_iter().map(|(o, _)| o).collect();
    let t = Instant::now();
    let report = registry::reduce_outputs(spec.name, quality, master, replicates, &outputs);
    acc.reduce_s += t.elapsed().as_secs_f64();

    if retrace::supports(spec.name) {
        acc.plain_retraced_s += trial_total.as_secs_f64();
        for (seed, program) in seeds.iter().zip(&outputs) {
            let again = acc.clock.time(Span::TracedTrial, || {
                retrace::trial(spec.name, quality, *seed, &acc.clock)
            });
            out.check(retrace::identical(&again, program), || {
                format!(
                    "{} trial seed {seed:#x}: re-enactment {:?} != program {:?}",
                    spec.name, again.metrics, program.metrics
                )
            });
        }
    }
    report
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Serve-side per-layer facts (zero on the sweep workloads).
#[derive(Default)]
pub struct ServeFacts {
    pub ping_rtt_ms: f64,
    pub first_replicate_ms: f64,
    pub commit_ms: f64,
    pub hit_ratio: f64,
    pub sheds: f64,
    pub degraded: f64,
    pub hit_p50_ms: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not exercise report 0.
pub fn per_layer_metrics(acc: &TraceAcc, serve: &ServeFacts, out: &mut Outcome) {
    let c = &acc.clock;
    let traced = c.secs(Span::TracedTrial);
    let covered = c.covered_secs();
    let opt_calls = c.get(Count::OptimizeCalls) as f64;
    let dec_calls = c.get(Count::DecodeCalls) as f64;
    let scored = c.get(Count::GroupsScored) as f64;
    let events = c.get(Count::DesEvents) as f64;
    let med = |name: &str| acc.trial_ms.get(name).map_or(0.0, |v| median(v));
    let sc = &acc.scratch;

    out.metric("channel.draw_s", c.secs(Span::Draw), "s");
    out.metric("channel.estimate_s", c.secs(Span::Estimate), "s");
    out.metric("core.optimize_s", c.secs(Span::Optimize), "s");
    out.metric("core.optimize_calls", opt_calls, "count");
    out.metric(
        "core.optimize_fail_frac",
        ratio(c.get(Count::OptimizeFails) as f64, opt_calls),
        "ratio",
    );
    out.metric("core.predict_s", c.secs(Span::Predict), "s");
    out.metric(
        "core.predict_calls",
        c.get(Count::PredictCalls) as f64,
        "count",
    );
    out.metric("core.decode_s", c.secs(Span::Decode), "s");
    out.metric("core.decode_calls", dec_calls, "count");
    out.metric(
        "core.decode_fail_frac",
        ratio(c.get(Count::DecodeFails) as f64, dec_calls),
        "ratio",
    );
    out.metric("core.baseline_s", c.secs(Span::Baseline), "s");
    out.metric("core.diversity_s", c.secs(Span::Diversity), "s");
    out.metric("mac.select_s", c.select_self_secs(), "s");
    out.metric("mac.groups_scored", scored, "count");
    out.metric(
        "mac.score_useful_ratio",
        ratio(c.get(Count::GroupsServed) as f64, scored),
        "ratio",
    );
    out.metric("sim.scenario_self_s", (traced - covered).max(0.0), "s");
    out.metric("sim.engine_overhead_s", acc.engine_overhead_s, "s");
    out.metric("sim.reduce_s", acc.reduce_s, "s");
    out.metric("sim.calibrate_s", c.secs(Span::Calibrate), "s");
    out.metric("des.build_s", c.secs(Span::DesBuild), "s");
    out.metric("des.step_s", c.secs(Span::DesStep), "s");
    out.metric("des.events_processed", events, "count");
    out.metric(
        "des.events_per_s",
        ratio(events, c.secs(Span::DesStep)),
        "1/s",
    );
    out.metric("des.queue_high_water", c.queue_high_water() as f64, "count");
    out.metric(
        "mac.delivered_frac",
        ratio(
            c.get(Count::DesDelivered) as f64,
            c.get(Count::DesOffered) as f64,
        ),
        "ratio",
    );
    out.metric("mac.retx", c.get(Count::DesRetx) as f64, "count");
    out.metric(
        "phy.scratch_hit_ratio",
        ratio(sc.pool_hits as f64, (sc.pool_hits + sc.pool_misses) as f64),
        "ratio",
    );
    out.metric(
        "phy.plan_hit_ratio",
        ratio(sc.plan_hits as f64, (sc.plan_hits + sc.plan_misses) as f64),
        "ratio",
    );
    out.metric("sim.trial_ms.sec6_cfo", med("sec6_cfo"), "ms");
    out.metric("sim.trial_ms.sec6_ofdm", med("sec6_ofdm"), "ms");
    out.metric("serve.ping_rtt_ms", serve.ping_rtt_ms, "ms");
    out.metric("serve.first_replicate_ms", serve.first_replicate_ms, "ms");
    out.metric("serve.commit_ms", serve.commit_ms, "ms");
    out.metric("serve.hit_ratio", serve.hit_ratio, "ratio");
    out.metric("serve.sheds", serve.sheds, "count");
    out.metric("serve.degraded", serve.degraded, "count");
    out.metric("serve.hit_p50_ms", serve.hit_p50_ms, "ms");
    out.metric("trace.coverage", ratio(covered, traced), "ratio");
    out.metric(
        "trace.overhead_frac",
        ratio(traced, acc.plain_retraced_s) - 1.0,
        "ratio",
    );
    out.note("trace.retraced_trials_s", format!("{traced:.6}"));
    out.note(
        "trace.plain_trials_s",
        format!("{:.6}", acc.plain_retraced_s),
    );
    out.note("des.runs", c.get(Count::DesRuns));
    out.note("mac.groups_served", c.get(Count::GroupsServed));
}
