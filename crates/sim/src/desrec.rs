//! Record/replay plumbing for the DES scenarios, and the trait they
//! register through.
//!
//! A registry-level DES trial (`des_campus`, `des_load`, the `rob_*`
//! family) is a sequence of one or more *constituent* [`NetSim`] runs — one
//! for the campus scenario, two per swept load (IAC and the 802.11-MIMO
//! baseline) for the load sweep. Each scenario says so once, in its own
//! module, by implementing [`DesScenario`]: its config from
//! `(Quality, seed)`, its constituent runs, and its report and
//! [`TrialOutput`] from their outcomes. Everything else is generic and
//! lives here: the registry's plain and observed trial (each outcome
//! reduced as its run completes), the name-keyed [`des_runs`] /
//! [`trial_output_from`] pair that record and replay use, and
//! [`DesRun::execute`], the one way to run a constituent simulation with
//! any [`Tap`]. Because spec construction and report derivation are pure
//! functions of the configuration, a replayed trial takes the *same code
//! path* as a live one — it cannot drift without the replay checker
//! noticing first.
//!
//! Consumers: the registry (one [`DesEntry`] per DES row),
//! `examples/replay.rs` (the record/replay/diff CLI), the serve daemon's
//! audit trail, the `replay_roundtrip` integration suite, and the replay
//! goldens.

use crate::netsim::{self, CalibratedPhy, DesRunFacts, NetSim, NetSimOutcome, Tap};
use crate::obs::TrialFacts;
use crate::registry::{self, Quality, TrialOutput};
use crate::scenarios::{des_campus, des_load, robustness};
use iac_des::{Divergence, EventRecorder};

/// The registered scenarios that support record/replay (every DES scenario
/// in the registry, including the fault-injecting `rob_*` family — faults
/// are ordinary logged events, so a faulty run records and replays exactly
/// like a clean one).
pub const DES_SCENARIOS: &[&str] = &[
    des_campus::CampusConfig::NAME,
    des_load::LoadSweepConfig::NAME,
    robustness::ChurnConfig::NAME,
    robustness::PartitionConfig::NAME,
    robustness::CsiAgingConfig::NAME,
];

/// A discrete-event scenario, implemented once by its config type.
pub trait DesScenario: Sized {
    /// Registry name (also the record/replay key).
    const NAME: &'static str;
    /// The scenario's full report.
    type Report;
    /// The registry's sizing rule: `quick(seed)` or `paper_default(seed)`.
    fn config(quality: Quality, seed: u64) -> Self;
    /// The constituent runs of one trial, in a stable order (PHY pool
    /// calibration happens here).
    fn runs(&self) -> Vec<DesRun>;
    /// Reduce the outcomes of [`runs`](Self::runs), in order, to the
    /// report. `outcomes` is lazy on the live path — pulling one runs its
    /// simulation — so reduce each before pulling the next (see
    /// [`next_outcome`]).
    fn report(&self, outcomes: impl Iterator<Item = NetSimOutcome>) -> Self::Report;
    /// The trial's registry metrics from its report.
    fn output(report: &Self::Report) -> TrialOutput;
}

/// The next outcome of a [`DesScenario::report`] iterator.
///
/// # Panics
/// Panics if the outcomes ran out (fewer outcomes than runs).
pub fn next_outcome(outcomes: &mut impl Iterator<Item = NetSimOutcome>) -> NetSimOutcome {
    outcomes.next().expect("fewer outcomes than the scenario has runs")
}

/// One constituent simulation run of a DES trial.
pub struct DesRun {
    /// Filesystem-safe run label, unique within the trial (log file stem).
    pub label: String,
    /// The declarative run description.
    pub spec: NetSim,
    /// The calibrated PHY the run drives.
    pub phy: CalibratedPhy,
}

impl DesRun {
    /// Run this simulation with `tap` in the observer slot (see
    /// [`netsim::run_netsim`]); the facts carry the run's label. Only a
    /// [`Tap::Replay`] run can fail.
    pub fn execute(&self, tap: Tap<'_>) -> Result<(NetSimOutcome, DesRunFacts), Box<Divergence>> {
        let (out, mut facts) = netsim::run_netsim(&self.spec, self.phy.clone(), tap)?;
        facts.label.clone_from(&self.label);
        Ok((out, facts))
    }
}

/// Run one constituent simulation with an in-memory recorder; returns the
/// encoded event log alongside the outcome (identical to an unrecorded
/// run's — the recorder is a passive observer).
pub fn record(run: &DesRun) -> (Vec<u8>, NetSimOutcome) {
    let (recorder, sink) = EventRecorder::in_memory();
    let (out, _) = run
        .execute(Tap::Record(&recorder))
        .expect("a recording run cannot diverge");
    recorder.finish().expect("in-memory sink cannot fail");
    (sink.take(), out)
}

/// `report`, then check every outcome was consumed.
fn reduce<S: DesScenario>(
    config: &S,
    mut outcomes: impl Iterator<Item = NetSimOutcome>,
) -> S::Report {
    let report = config.report(outcomes.by_ref());
    assert!(outcomes.next().is_none(), "{}: more outcomes than runs", S::NAME);
    report
}

/// Run every constituent simulation of `config` and reduce it to the
/// report, each outcome as its run completes. With `observe` each run
/// carries the event-kind counter and its facts are collected.
fn run_all<S: DesScenario>(config: &S, observe: bool) -> (S::Report, Vec<DesRunFacts>) {
    let mut facts = Vec::new();
    let runs = config.runs();
    let outcomes = runs.iter().map(|run| {
        let tap = if observe { Tap::Kinds } else { Tap::None };
        let (out, f) = run.execute(tap).expect("only a replay can diverge");
        if observe {
            facts.push(f);
        }
        out
    });
    let report = reduce(config, outcomes);
    (report, facts)
}

/// Run a DES scenario plainly to its report (the per-module `run`
/// functions).
pub(crate) fn run_report<S: DesScenario>(config: &S) -> S::Report {
    run_all(config, false).0
}

/// One registry trial of `S`, optionally observed: the output is
/// bit-identical either way (pinned by `tests/obs_invariance.rs`).
pub(crate) fn trial<S: DesScenario>(
    quality: Quality,
    seed: u64,
    observe: bool,
) -> (TrialOutput, TrialFacts) {
    let (report, des_runs) = run_all(&S::config(quality, seed), observe);
    (S::output(&report), TrialFacts { des_runs })
}

/// A DES scenario's entry points, generated from its [`DesScenario`] impl
/// and carried on its registry row ([`registry::Scenario::des`]).
#[derive(Clone, Copy)]
pub struct DesEntry {
    pub(crate) runs: fn(Quality, u64) -> Vec<DesRun>,
    pub(crate) trial: fn(Quality, u64, bool) -> (TrialOutput, TrialFacts),
    pub(crate) output_from: fn(Quality, u64, Vec<NetSimOutcome>) -> TrialOutput,
}

impl DesEntry {
    /// The entry points of `S`.
    pub(crate) fn of<S: DesScenario>() -> Self {
        DesEntry {
            runs: |quality, seed| S::config(quality, seed).runs(),
            trial: trial::<S>,
            output_from: |quality, seed, outcomes| {
                S::output(&reduce(&S::config(quality, seed), outcomes.into_iter()))
            },
        }
    }
}

fn entry(name: &str) -> DesEntry {
    registry::find(name)
        .and_then(|s| s.des)
        .unwrap_or_else(|| panic!("no DES scenario named {name:?} (see desrec::DES_SCENARIOS)"))
}

/// Enumerate the constituent runs of one DES trial, in a stable order
/// (`des_load`: IAC then MIMO at each load, loads ascending;
/// `rob_csi_aging`: the MIMO baseline, then IAC per severity, ascending).
///
/// # Panics
/// Panics if `name` is not in [`DES_SCENARIOS`].
pub fn des_runs(name: &str, quality: Quality, trial_seed: u64) -> Vec<DesRun> {
    (entry(name).runs)(quality, trial_seed)
}

/// The `trial.json` payload of a recording directory: bit-faithful
/// (`f64::to_bits`) metric values alongside the full seed-derivation
/// context, so a replay can verify the reconstructed [`TrialOutput`]
/// byte-for-byte. Written by `examples/replay.rs`'s `record` command and
/// by the serve daemon's `--audit-dir` trail; re-generated and compared by
/// the `replay` command.
pub fn trial_json(
    name: &str,
    quality: Quality,
    master_seed: u64,
    trial: usize,
    trial_seed: u64,
    out: &TrialOutput,
) -> String {
    let mut s = format!(
        "{{\n  \"scenario\": \"{name}\",\n  \"quality\": \"{}\",\n  \"master_seed\": {master_seed},\n  \"trial\": {trial},\n  \"trial_seed\": {trial_seed},\n  \"metrics\": {{",
        quality.label(),
    );
    for (i, (metric, v)) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{metric}\": {{\"bits\": \"{:#018x}\", \"approx\": \"{v}\"}}",
            v.to_bits()
        ));
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Reconstruct a trial's [`TrialOutput`] from its constituent outcomes (in
/// [`des_runs`] order) — the path replayed outcomes take back to scenario
/// metrics. Feeding in live outcomes gives exactly the registry entry's
/// result.
///
/// # Panics
/// Panics if `name` is unknown or `outcomes` has the wrong length.
pub fn trial_output_from(
    name: &str,
    quality: Quality,
    trial_seed: u64,
    outcomes: Vec<NetSimOutcome>,
) -> TrialOutput {
    (entry(name).output_from)(quality, trial_seed, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_enumerate_with_unique_labels() {
        for &name in DES_SCENARIOS {
            let runs = des_runs(name, Quality::Quick, 5);
            assert!(!runs.is_empty());
            let mut labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
            labels.sort_unstable();
            let mut deduped = labels.clone();
            deduped.dedup();
            assert_eq!(labels, deduped, "{name}: duplicate run label");
            for l in labels {
                assert!(
                    l.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "{name}: label {l:?} not filesystem-safe"
                );
            }
        }
    }

    #[test]
    fn load_runs_pair_systems_per_load() {
        let cfg = des_load::LoadSweepConfig::config(Quality::Quick, 5);
        let runs = des_runs("des_load", Quality::Quick, 5);
        assert_eq!(runs.len(), 2 * cfg.loads_pps.len());
        assert!(runs[0].label.starts_with("iac_"));
        assert!(runs[1].label.starts_with("mimo_"));
    }

    #[test]
    #[should_panic(expected = "no DES scenario")]
    fn unknown_scenario_panics() {
        des_runs("fig12", Quality::Quick, 1);
    }
}
