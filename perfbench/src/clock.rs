//! Layer clocks for the traced run: wall time and call counts accumulated
//! around calls into each layer's public functions, recorded from the
//! benchmark's own code (the program itself carries no spans).
//!
//! A clock is shared by `&` reference so the re-enactments can time calls
//! made from inside closures they hand to the program (the group-scoring
//! callback of `GroupPolicy::select`).

use std::cell::Cell;
use std::time::{Duration, Instant};

/// A timed boundary. The first group are layer self times that add up to
/// `trace.coverage`; the rest are bookkeeping for the derived metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `Testbed::{uplink,downlink}_grid`.
    Draw,
    /// `ChannelGrid::estimated`.
    Estimate,
    /// `optimize::{uplink3,uplink4,downlink3}_optimized`.
    Optimize,
    /// `optimize::predicted_rate`.
    Predict,
    /// `IacDecoder::decode` (with `equal_split_powers` and the rate read).
    Decode,
    /// `baseline::best_ap_rate` and `experiment::baseline_*_slot`.
    Baseline,
    /// `diversity::best_downlink_option` (Fig. 14).
    Diversity,
    /// `desrec::des_runs`: configs plus PHY pool calibration.
    Calibrate,
    /// `netsim::build_netsim`.
    DesBuild,
    /// `Simulation::step_until_no_events`.
    DesStep,
    /// `GroupPolicy::select`, gross (includes the score callbacks).
    Select,
    /// The score callback handed to `select`, gross.
    ScoreCallback,
    /// One re-enacted trial, end to end.
    TracedTrial,
}

/// The spans whose self times partition a traced trial (everything else in
/// the trial is scenario code, `sim.scenario_self_s`). `Select` enters net
/// of its callbacks, which the callback's own layer calls then account for.
pub const LAYER_SPANS: [Span; 10] = [
    Span::Draw,
    Span::Estimate,
    Span::Optimize,
    Span::Predict,
    Span::Decode,
    Span::Baseline,
    Span::Diversity,
    Span::Calibrate,
    Span::DesBuild,
    Span::DesStep,
];

const N_SPANS: usize = Span::TracedTrial as usize + 1;

/// Exact work counts gathered alongside the spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    OptimizeCalls,
    OptimizeFails,
    PredictCalls,
    DecodeCalls,
    DecodeFails,
    GroupsScored,
    GroupsServed,
    DesRuns,
    DesEvents,
    DesOffered,
    DesDelivered,
    DesRetx,
}

const N_COUNTS: usize = Count::DesRetx as usize + 1;

/// Accumulated span time and counts.
#[derive(Default)]
pub struct Clock {
    ns: [Cell<u64>; N_SPANS],
    counts: [Cell<u64>; N_COUNTS],
    queue_high_water: Cell<u64>,
}

impl Clock {
    /// Time one call into a layer.
    pub fn time<T>(&self, span: Span, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(span, t0.elapsed());
        out
    }

    /// Add an externally measured duration to a span.
    pub fn add(&self, span: Span, d: Duration) {
        let c = &self.ns[span as usize];
        c.set(c.get() + d.as_nanos() as u64);
    }

    /// Bump a count by `n`.
    pub fn count(&self, what: Count, n: u64) {
        let c = &self.counts[what as usize];
        c.set(c.get() + n);
    }

    /// Record a DES run's future-event-queue depth (kept as a maximum).
    pub fn queue_depth(&self, depth: u64) {
        self.queue_high_water
            .set(self.queue_high_water.get().max(depth));
    }

    /// Seconds accumulated in a span.
    pub fn secs(&self, span: Span) -> f64 {
        self.ns[span as usize].get() as f64 * 1e-9
    }

    /// A count.
    pub fn get(&self, what: Count) -> u64 {
        self.counts[what as usize].get()
    }

    /// Deepest event queue seen.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water.get()
    }

    /// `mac.select_s`: select time net of its score callbacks.
    pub fn select_self_secs(&self) -> f64 {
        self.secs(Span::Select) - self.secs(Span::ScoreCallback)
    }

    /// Sum of the layer self times.
    pub fn covered_secs(&self) -> f64 {
        LAYER_SPANS.iter().map(|&s| self.secs(s)).sum::<f64>() + self.select_self_secs()
    }
}
