//! Leader-AP encoding optimisation.
//!
//! The alignment equations of §4 constrain *directions relative to each
//! other* but leave free parameters: the seed of each alignment chain (any
//! scalar multiple of an aligned direction still aligns) and any packet that
//! appears in no interference set (packet p1 of Fig. 4b — "picking random
//! (but unequal) values" is the paper's minimal choice, not the best one).
//! The leader AP knows every channel estimate, and the paper's own
//! concurrency algorithm already scores candidate configurations by
//! `Σ log(1+‖vᵀHw‖²)` (§7.2) — so the natural implementation scores a small
//! set of candidate alignment seeds the same way and transmit-beamforms the
//! unconstrained packets toward their post-projection receive directions.
//!
//! This module provides those optimised constructions. They satisfy exactly
//! the same alignment equations as [`crate::closed_form`] (tests enforce it);
//! they just choose better members of the solution family.

use crate::closed_form::AlignedConfig;
use crate::decoder::{equal_split_powers, DecodeChain, DecodeScratch, PacketSinr};
use crate::grid::{ChannelGrid, Direction, GridView};
use crate::schedule::{DecodeSchedule, DecodeStep, InterferenceSet};
use iac_linalg::{eig2_into, CMat, CVec, LinAlgError, Lu, Result, Rng64, C64};

/// How many random alignment seeds the leader scores per configuration.
pub const DEFAULT_SEED_CANDIDATES: usize = 8;

/// Score a candidate configuration exactly as the leader AP would: run the
/// decode chain on the *estimated* channels (the only ones it has) and read
/// the Eq. 9 achievable rate.
pub fn predicted_rate(
    est_grid: &ChannelGrid,
    config: &AlignedConfig,
    per_node_power: f64,
    noise: f64,
) -> f64 {
    let powers = equal_split_powers(&config.schedule, per_node_power);
    let sets = config.schedule.interference_sets();
    DecodeChain {
        true_grid: est_grid.view(),
        est_grid: est_grid.view(),
        schedule: &config.schedule,
        sets: &sets,
        encoding: &config.encoding,
        packet_power: &powers,
        noise_power: noise,
    }
    .rate(&mut DecodeScratch::default(), &mut Vec::new())
}

/// Beamform an unconstrained packet: given the receive projection `u` its AP
/// will use, the best unit encoding vector is the matched filter `Hᴴu`.
fn matched_encoding(h: &iac_linalg::CMat, u: &CVec) -> Result<CVec> {
    h.hermitian().mul_vec(u).normalize()
}

/// Optimised three-packet uplink (the Fig. 4b configuration).
///
/// For each candidate aligned direction `g` at AP 0: derive
/// `v1 = H(0,0)⁻¹·g`, `v2 = H(1,0)⁻¹·g` (so Eq. 2 holds by construction),
/// set the AP-0 projection `u0 ⟂ g`, beamform the free packet
/// `v0 = H(0,0)ᴴ·u0`, and keep the candidate with the best predicted rate.
pub fn uplink3_optimized(
    est_grid: &ChannelGrid,
    per_node_power: f64,
    noise: f64,
    candidates: usize,
    rng: &mut Rng64,
) -> Result<AlignedConfig> {
    if est_grid.direction() != Direction::Uplink
        || est_grid.transmitters() != 2
        || est_grid.receivers() != 2
    {
        return Err(LinAlgError::Degenerate("uplink3 needs 2 clients and 2 APs"));
    }
    let schedule = DecodeSchedule {
        antennas: 2,
        owners: vec![0, 0, 1],
        steps: vec![
            DecodeStep {
                receiver: 0,
                decode: vec![0],
                cancel: vec![],
            },
            DecodeStep {
                receiver: 1,
                decode: vec![1, 2],
                cancel: vec![0],
            },
        ],
    };
    let h00_inv = est_grid.link(0, 0).inverse()?;
    let h10_inv = est_grid.link(1, 0).inverse()?;
    let mut best: Option<(f64, AlignedConfig)> = None;
    for _ in 0..candidates.max(1) {
        let g = CVec::random_unit(2, rng);
        let v1 = h00_inv.mul_vec(&g).normalize()?;
        let v2 = h10_inv.mul_vec(&g).normalize()?;
        // The actual aligned direction (recomputed from v1 to stay exact
        // under the normalisation).
        let aligned = est_grid.link(0, 0).mul_vec(&v1);
        let u0 = aligned.orth_2d()?;
        let v0 = matched_encoding(est_grid.link(0, 0), &u0)?;
        let config = AlignedConfig {
            schedule: schedule.clone(),
            encoding: vec![v0, v1, v2],
        };
        let score = predicted_rate(est_grid, &config, per_node_power, noise);
        if best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
            best = Some((score, config));
        }
    }
    Ok(best.expect("candidates >= 1").1)
}

/// Reusable state for scoring the candidates of one configuration shape:
/// the schedule, its interference sets and power split (built once), the
/// winning configuration, and every temporary of the optimiser and the
/// decode chain. Warm, it makes [`uplink4_scored`] and
/// [`downlink3_scored`] allocation-free.
#[derive(Debug, Clone)]
pub struct ScoreScratch {
    best: AlignedConfig,
    candidate: Vec<CVec>,
    sets: Vec<InterferenceSet>,
    powers: Vec<f64>,
    noise: f64,
    decode: DecodeScratch,
    sinrs: Vec<PacketSinr>,
    pairs: [(C64, CVec); 2],
    t0: CMat,
    t1: CMat,
    t2: CMat,
    prod: CMat,
    lu: Lu,
    m0: CMat,
    m1: CMat,
    w: CVec,
    u0: CVec,
}

impl ScoreScratch {
    fn new(schedule: DecodeSchedule, per_node_power: f64, noise: f64) -> Self {
        let n = schedule.n_packets();
        Self {
            sets: schedule.interference_sets(),
            powers: equal_split_powers(&schedule, per_node_power),
            best: AlignedConfig {
                schedule,
                encoding: vec![CVec::default(); n],
            },
            candidate: vec![CVec::default(); n],
            noise,
            decode: DecodeScratch::default(),
            sinrs: Vec::new(),
            pairs: Default::default(),
            t0: CMat::default(),
            t1: CMat::default(),
            t2: CMat::default(),
            prod: CMat::default(),
            lu: Lu::default(),
            m0: CMat::default(),
            m1: CMat::default(),
            w: CVec::default(),
            u0: CVec::default(),
        }
    }

    /// Scratch for [`uplink4_scored`] (schedule `uplink_2m(2)`).
    pub fn uplink4(per_node_power: f64, noise: f64) -> Self {
        Self::new(DecodeSchedule::uplink_2m(2), per_node_power, noise)
    }

    /// Scratch for [`downlink3_scored`] (schedule `downlink_3_packets`).
    pub fn downlink3(per_node_power: f64, noise: f64) -> Self {
        Self::new(DecodeSchedule::downlink_3_packets(), per_node_power, noise)
    }

    /// The winning configuration of the last scoring call; meaningful
    /// only when that call returned `Ok`.
    pub fn config(&self) -> &AlignedConfig {
        &self.best
    }

    /// Predicted rate of `self.candidate` on `est`; when it beats `best`
    /// (or is the first), the candidate becomes the winner.
    fn keep_if_better(&mut self, est: GridView<'_>, best: &mut Option<f64>) {
        let score = DecodeChain {
            true_grid: est,
            est_grid: est,
            schedule: &self.best.schedule,
            sets: &self.sets,
            encoding: &self.candidate,
            packet_power: &self.powers,
            noise_power: self.noise,
        }
        .rate(&mut self.decode, &mut self.sinrs);
        if best.is_none_or(|b| score > b) {
            *best = Some(score);
            std::mem::swap(&mut self.best.encoding, &mut self.candidate);
        }
    }
}

/// Relative safety margin of [`link_gain_bound`]: far above the few ulps
/// by which the decode chain's `|uᴴĤv|²` and the closed-form `σ_max²` can
/// each be rounded. A larger margin only prunes less; it never changes
/// which group wins.
pub const GAIN_BOUND_MARGIN: f64 = 1e-9;

/// An upper bound on the gain `|uᴴ·h·v|²` of link `h` over unit vectors
/// `u`, `v`: its largest squared singular value, raised by
/// [`GAIN_BOUND_MARGIN`].
pub fn link_gain_bound(h: &CMat) -> f64 {
    h.spectral_norm_sqr() * (1.0 + GAIN_BOUND_MARGIN)
}

impl ScoreScratch {
    /// An upper bound on the score [`uplink4_scored`] /
    /// [`downlink3_scored`] return with this scratch, with no optimisation
    /// or decode: `Σ_p log₂(1 + P_p·gain(owner(p), receiver(p))/N)` over the
    /// schedule's packets in decode order, with the schedule's own power
    /// split. `gain(t, r)` must be at least [`link_gain_bound`] of the
    /// estimated link from transmitter `t` to receiver `r`.
    ///
    /// It holds because the score decodes on its own estimates: every
    /// decoding and encoding vector is unit, so a packet's signal is at most
    /// `P_p·σ_max²`, cancellation leaves no residual, and every SINR
    /// denominator is at least `N`. The terms are computed in the same
    /// order, with the same operations, as the score's SINRs and rate sum,
    /// so the rounding of both is monotone in the gain. A NaN gain gives a
    /// NaN bound.
    pub fn rate_bound(&self, mut gain: impl FnMut(usize, usize) -> f64) -> f64 {
        let schedule = &self.best.schedule;
        let mut total = 0.0;
        for step in &schedule.steps {
            for &p in &step.decode {
                let num = self.powers[p] * gain(schedule.owners[p], step.receiver);
                total += (1.0 + num / self.noise).log2();
            }
        }
        total
    }
}

fn check_shape(est: GridView<'_>, direction: Direction, what: &'static str) -> Result<()> {
    if est.direction() != direction || est.transmitters() != 3 || est.receivers() != 3 {
        return Err(LinAlgError::Degenerate(what));
    }
    Ok(())
}

const UPLINK4_SHAPE: &str = "uplink4 needs 3 clients and 3 APs";
const DOWNLINK3_SHAPE: &str = "downlink3 needs 3 APs and 3 clients";

/// Optimised four-packet uplink (Fig. 5 / footnote 4).
///
/// The eigenproblem admits exactly two alignment solutions (the two
/// eigenvectors); the free packet `v0` is beamformed per solution and the
/// leader keeps the better of the two.
pub fn uplink4_optimized(
    est_grid: &ChannelGrid,
    per_node_power: f64,
    noise: f64,
) -> Result<AlignedConfig> {
    check_shape(est_grid.view(), Direction::Uplink, UPLINK4_SHAPE)?;
    let inv21 = est_grid.link(2, 1).inverse()?;
    let inv10 = est_grid.link(1, 0).inverse()?;
    let inv00 = est_grid.link(0, 0).inverse()?;
    let mut scratch = ScoreScratch::uplink4(per_node_power, noise);
    uplink4_scored(est_grid.view(), [&inv21, &inv10, &inv00], &mut scratch)?;
    Ok(scratch.best)
}

/// The single body of [`uplink4_optimized`], on a grid view with the link
/// inverses `inv = [H(2,1)⁻¹, H(1,0)⁻¹, H(0,0)⁻¹]` supplied by the caller
/// (a scorer reuses them across every group sharing those links).
///
/// For each eigen-solution `v3` of `H(2,1)⁻¹·H(1,1)·H(1,0)⁻¹·H(2,0)`:
/// `v2 ∝ H(1,0)⁻¹·H(2,0)·v3` and `v1 ∝ H(0,0)⁻¹·H(2,0)·v3` align the
/// triple at AP 0, and `v0` is beamformed onto AP 0's projection. Returns
/// the winner's predicted rate; the winner is [`ScoreScratch::config`].
pub fn uplink4_scored(
    est: GridView<'_>,
    inv: [&CMat; 3],
    scratch: &mut ScoreScratch,
) -> Result<f64> {
    check_shape(est, Direction::Uplink, UPLINK4_SHAPE)?;
    let [inv21, inv10, inv00] = inv;
    let s = &mut *scratch;
    inv21.mul_mat_into(est.link(1, 1), &mut s.t0);
    s.t0.mul_mat_into(inv10, &mut s.t1);
    s.t1.mul_mat_into(est.link(2, 0), &mut s.prod);
    eig2_into(&s.prod, &mut s.pairs)?;
    // The same for both solutions: the maps from v3 to v2 and to v1, and
    // AP 0's matched filter.
    inv10.mul_mat_into(est.link(2, 0), &mut s.m1);
    inv00.mul_mat_into(est.link(2, 0), &mut s.m0);
    est.link(0, 0).hermitian_into(&mut s.t2);
    let mut best = None;
    for k in 0..2 {
        let s = &mut *scratch;
        let [v0, v1, v2, v3] = &mut s.candidate[..] else {
            panic!("uplink4_scored needs ScoreScratch::uplink4")
        };
        s.pairs[k].1.normalize_into(v3)?;
        s.m1.mul_vec_into(v3, &mut s.w);
        s.w.normalize_into(v2)?;
        s.m0.mul_vec_into(v3, &mut s.w);
        s.w.normalize_into(v1)?;
        // AP0 projects orthogonally to the aligned triple; beamform v0 to it.
        est.link(0, 0).mul_vec_into(v1, &mut s.w);
        s.w.orth_2d_into(&mut s.u0)?;
        s.t2.mul_vec_into(&s.u0, &mut s.w);
        s.w.normalize_into(v0)?;
        scratch.keep_if_better(est, &mut best);
    }
    Ok(best.expect("two eigen solutions"))
}

/// Optimised three-packet downlink (Fig. 6 / Eqs. 5–7): the eigenproblem's
/// two solutions are both evaluated; there are no free packets to beamform
/// (every vector is constrained by two clients at once).
pub fn downlink3_optimized(
    est_grid: &ChannelGrid,
    per_node_power: f64,
    noise: f64,
) -> Result<AlignedConfig> {
    check_shape(est_grid.view(), Direction::Downlink, DOWNLINK3_SHAPE)?;
    let inv10 = est_grid.link(1, 0).inverse()?;
    let inv01 = est_grid.link(0, 1).inverse()?;
    let mut scratch = ScoreScratch::downlink3(per_node_power, noise);
    downlink3_scored(est_grid.view(), [&inv10, &inv01], &mut scratch)?;
    Ok(scratch.best)
}

/// The single body of [`downlink3_optimized`], on a grid view with the
/// link inverses `inv = [H(1,0)⁻¹, H(0,1)⁻¹]` supplied by the caller.
///
/// With `A = H(1,2)·H(1,0)⁻¹·H(2,0)` and `B = H(0,2)·H(0,1)⁻¹·H(2,1)`, each
/// eigen-solution `v2` of `A⁻¹·B` gives `v1 ∝ H(1,0)⁻¹·H(2,0)·v2` and
/// `v0 ∝ H(0,1)⁻¹·H(2,1)·v2`. Returns the winner's predicted rate; the
/// winner is [`ScoreScratch::config`].
pub fn downlink3_scored(
    est: GridView<'_>,
    inv: [&CMat; 2],
    scratch: &mut ScoreScratch,
) -> Result<f64> {
    check_shape(est, Direction::Downlink, DOWNLINK3_SHAPE)?;
    let [inv10, inv01] = inv;
    let s = &mut *scratch;
    est.link(1, 2).mul_mat_into(inv10, &mut s.t0);
    s.t0.mul_mat_into(est.link(2, 0), &mut s.t1); // A
    est.link(0, 2).mul_mat_into(inv01, &mut s.t0);
    s.t0.mul_mat_into(est.link(2, 1), &mut s.t2); // B
    s.t1.inverse_into(&mut s.t0, &mut s.lu)?;
    s.t0.mul_mat_into(&s.t2, &mut s.prod);
    eig2_into(&s.prod, &mut s.pairs)?;
    inv10.mul_mat_into(est.link(2, 0), &mut s.m1);
    inv01.mul_mat_into(est.link(2, 1), &mut s.m0);
    let mut best = None;
    for k in 0..2 {
        let s = &mut *scratch;
        let [v0, v1, v2] = &mut s.candidate[..] else {
            panic!("downlink3_scored needs ScoreScratch::downlink3")
        };
        s.pairs[k].1.normalize_into(v2)?;
        s.m1.mul_vec_into(v2, &mut s.w);
        s.w.normalize_into(v1)?;
        s.m0.mul_vec_into(v2, &mut s.w);
        s.w.normalize_into(v0)?;
        scratch.keep_if_better(est, &mut best);
    }
    Ok(best.expect("two eigen solutions"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::{self, alignment_residual};

    #[test]
    fn optimized_uplink3_still_aligns() {
        let mut rng = Rng64::new(1);
        for _ in 0..10 {
            let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
            let cfg = uplink3_optimized(&grid, 1.0, 0.05, 4, &mut rng).unwrap();
            assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-9);
        }
    }

    #[test]
    fn optimized_uplink4_still_aligns() {
        let mut rng = Rng64::new(2);
        for _ in 0..10 {
            let grid = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
            let cfg = uplink4_optimized(&grid, 1.0, 0.05).unwrap();
            assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-7);
        }
    }

    #[test]
    fn optimized_downlink3_still_aligns() {
        let mut rng = Rng64::new(3);
        for _ in 0..10 {
            let grid = ChannelGrid::random(Direction::Downlink, 3, 3, 2, 2, &mut rng);
            let cfg = downlink3_optimized(&grid, 1.0, 0.05).unwrap();
            assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-7);
        }
    }

    #[test]
    fn optimization_beats_random_seeds_on_average() {
        let mut rng = Rng64::new(4);
        let mut random_acc = 0.0;
        let mut opt_acc = 0.0;
        for _ in 0..50 {
            let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
            let random_cfg = closed_form::uplink3(&grid, &mut rng).unwrap();
            random_acc += predicted_rate(&grid, &random_cfg, 1.0, 0.05);
            let opt_cfg = uplink3_optimized(&grid, 1.0, 0.05, 8, &mut rng).unwrap();
            opt_acc += predicted_rate(&grid, &opt_cfg, 1.0, 0.05);
        }
        assert!(
            opt_acc > random_acc * 1.05,
            "optimisation gained nothing: {opt_acc} vs {random_acc}"
        );
    }

    #[test]
    fn more_candidates_never_hurt() {
        let mut rng = Rng64::new(5);
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        // With a shared RNG the candidate sets differ, so compare in
        // expectation: k=16 should beat k=1 on average.
        let mut one = 0.0;
        let mut many = 0.0;
        for _ in 0..30 {
            let c1 = uplink3_optimized(&grid, 1.0, 0.05, 1, &mut rng).unwrap();
            one += predicted_rate(&grid, &c1, 1.0, 0.05);
            let c16 = uplink3_optimized(&grid, 1.0, 0.05, 16, &mut rng).unwrap();
            many += predicted_rate(&grid, &c16, 1.0, 0.05);
        }
        assert!(many >= one, "{many} < {one}");
    }

    #[test]
    fn uplink4_chooses_among_both_eigenvectors() {
        // The two eigen solutions generally score differently; the chosen one
        // must be at least as good as the plain closed form (which picks by
        // eigenvalue magnitude, not by rate).
        let mut rng = Rng64::new(6);
        let mut plain = 0.0;
        let mut opt = 0.0;
        for _ in 0..40 {
            let grid = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
            let p = closed_form::uplink4(&grid, &mut rng).unwrap();
            plain += predicted_rate(&grid, &p, 1.0, 0.05);
            let o = uplink4_optimized(&grid, 1.0, 0.05).unwrap();
            opt += predicted_rate(&grid, &o, 1.0, 0.05);
        }
        assert!(opt > plain, "optimised {opt} <= plain {plain}");
    }

    #[test]
    fn wrong_shapes_rejected() {
        let mut rng = Rng64::new(7);
        let g = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
        assert!(uplink3_optimized(&g, 1.0, 0.05, 2, &mut rng).is_err());
        let g2 = ChannelGrid::random(Direction::Downlink, 3, 3, 2, 2, &mut rng);
        assert!(uplink4_optimized(&g2, 1.0, 0.05).is_err());
    }
}
