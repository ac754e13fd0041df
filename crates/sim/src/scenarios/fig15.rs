//! Fig. 15 — the whole-testbed comparison of concurrency algorithms.
//!
//! 3 APs serve 17 always-backlogged clients for 1000 timeslots; the three
//! grouping policies of §7.2 are compared by the CDF of *per-client* gains
//! over 802.11-MIMO (which serves one client per slot, best-AP, TDMA).
//! Paper headlines: uplink averages 2.32× (brute force), 1.9× (FIFO), 2.08×
//! (best-of-two); downlink 1.58× / 1.23× / 1.52×; brute force is unfair
//! (some clients fall below 1×), best-of-two has the best
//! fairness-throughput tradeoff.

use crate::experiment::ExperimentConfig;
use crate::stats::{mean, render_cdfs};
use crate::testbed::Testbed;
use iac_core::baseline;
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, GridView};
use iac_core::optimize::{self, ScoreScratch};
use iac_linalg::{CMat, LinAlgError, Lu, Rng64};
use iac_mac::concurrency::{BestOfTwo, BruteForce, FifoPolicy, GroupPolicy};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Direction of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction15 {
    Uplink,
    Downlink,
}

/// The three §10.3 policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    BruteForce,
    Fifo,
    BestOfTwo,
}

impl PolicyKind {
    /// All three, in the paper's presentation order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::BruteForce,
        PolicyKind::Fifo,
        PolicyKind::BestOfTwo,
    ];

    fn build(self) -> Box<dyn GroupPolicy> {
        match self {
            PolicyKind::BruteForce => Box::new(BruteForce),
            PolicyKind::Fifo => Box::new(FifoPolicy),
            PolicyKind::BestOfTwo => Box::new(BestOfTwo::default()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::BruteForce => "brute-force",
            PolicyKind::Fifo => "fifo",
            PolicyKind::BestOfTwo => "best-of-two",
        }
    }
}

/// Experiment knobs beyond [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct Fig15Config {
    /// Base knobs (slots = timeslots per run; picks unused).
    pub base: ExperimentConfig,
    /// Clients with infinite demand (17 in the paper).
    pub n_clients: usize,
    /// APs (3 in the paper).
    pub n_aps: usize,
    /// Independent runs averaged per client (3 in the paper).
    pub runs: usize,
}

impl Fig15Config {
    /// Paper-scale configuration, reproducible from `seed`.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            base: ExperimentConfig {
                slots: 1000,
                ..ExperimentConfig::paper_default(seed)
            },
            n_clients: 17,
            n_aps: 3,
            runs: 3,
        }
    }

    /// Reduced size for unit tests.
    pub fn quick(seed: u64) -> Self {
        Self {
            base: ExperimentConfig {
                slots: 60,
                ..ExperimentConfig::quick(seed)
            },
            n_clients: 8,
            n_aps: 3,
            runs: 1,
        }
    }
}

/// Per-policy per-client gains.
#[derive(Debug, Clone)]
pub struct Fig15Report {
    /// Direction.
    pub direction: Direction15,
    /// `(policy, per-client gains)`.
    pub gains: Vec<(PolicyKind, Vec<f64>)>,
}

impl Fig15Report {
    /// Average gain of one policy.
    pub fn average_gain(&self, kind: PolicyKind) -> f64 {
        self.gains
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, g)| mean(g))
            .unwrap_or(0.0)
    }

    /// Fraction of clients whose gain fell below 1 (the unfairness marker).
    pub fn losers_fraction(&self, kind: PolicyKind) -> f64 {
        self.gains
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, g)| g.iter().filter(|&&x| x < 1.0).count() as f64 / g.len() as f64)
            .unwrap_or(0.0)
    }

    /// Minimum per-client gain (fairness floor).
    pub fn min_gain(&self, kind: PolicyKind) -> f64 {
        self.gains
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, g)| g.iter().cloned().fold(f64::INFINITY, f64::min))
            .unwrap_or(0.0)
    }
}

/// One slot of the IAC schedule: serve `group` (head first). Returns
/// per-client rate contributions for this slot.
#[allow(clippy::too_many_arguments)]
fn iac_slot_rates(
    testbed: &Testbed,
    clients: &[usize],
    aps: &[usize],
    group: &[u16],
    direction: Direction15,
    cfg: &ExperimentConfig,
    rng: &mut Rng64,
) -> Vec<(u16, f64)> {
    let group_nodes: Vec<usize> = group.iter().map(|&c| clients[c as usize]).collect();
    match direction {
        Direction15::Uplink => {
            let grid = testbed.uplink_grid(&group_nodes, aps, rng);
            let est = grid.estimated(&cfg.est, rng);
            let Ok(config) =
                optimize::uplink4_optimized(&est, cfg.per_node_power, cfg.noise)
            else {
                return Vec::new();
            };
            let powers = equal_split_powers(&config.schedule, cfg.per_node_power);
            let Ok(out) = (IacDecoder {
                true_grid: &grid,
                est_grid: &est,
                schedule: &config.schedule,
                encoding: &config.encoding,
                packet_power: powers,
                noise_power: cfg.noise,
            })
            .decode() else {
                return Vec::new();
            };
            // Packets 0,1 belong to the head (double sender); 2→group[1],
            // 3→group[2].
            out.sinrs
                .iter()
                .map(|p| {
                    let client = match p.packet {
                        0 | 1 => group[0],
                        2 => group[1],
                        _ => group[2],
                    };
                    (client, (1.0 + p.sinr).log2())
                })
                .collect()
        }
        Direction15::Downlink => {
            let grid = testbed.downlink_grid(aps, &group_nodes, rng);
            let est = grid.estimated(&cfg.est, rng);
            let Ok(config) =
                optimize::downlink3_optimized(&est, cfg.per_node_power, cfg.noise)
            else {
                return Vec::new();
            };
            let powers = equal_split_powers(&config.schedule, cfg.per_node_power);
            let Ok(out) = (IacDecoder {
                true_grid: &grid,
                est_grid: &est,
                schedule: &config.schedule,
                encoding: &config.encoding,
                packet_power: powers,
                noise_power: cfg.noise,
            })
            .decode() else {
                return Vec::new();
            };
            out.sinrs
                .iter()
                .map(|p| (group[p.packet], (1.0 + p.sinr).log2()))
                .collect()
        }
    }
}

/// Leader-side group scoring (§7.2): a candidate group's score is the
/// predicted rate `Σ log(1+SINR)` of its best alignment on the slot's
/// channel estimates. Each (client, AP) link inverse is computed at most
/// once per slot and shared by every group that uses it, groups read their
/// links through a [`GridView`] of the slot grid instead of a cloned
/// sub-grid, and the optimiser's own winning score is the group's score.
/// Once warm, scoring allocates nothing.
///
/// A group whose optimisation fails (a singular link, a degenerate
/// eigenvector) scores 0 — and is counted in [`ScoringStats::failed`].
///
/// [`SlotScorer::bound`] gives an upper bound on a group's score from each
/// link's largest singular value (computed at most once per slot too), with
/// no optimisation or decode; the brute-force policy scores only the groups
/// whose bound can still beat the best score it has found.
#[derive(Debug, Clone)]
pub struct GroupScorer {
    direction: Direction15,
    n_aps: usize,
    /// Per (client, AP), `client * n_aps + ap`: the link inverse, valid
    /// when `known` says so for the current slot.
    inverses: Vec<CMat>,
    known: Vec<Inverse>,
    /// Per (client, AP) likewise: the link's gain bound, once computed
    /// this slot.
    gains: Vec<Option<f64>>,
    lu: Lu,
    scratch: ScoreScratch,
    stats: ScoringStats,
}

/// Whether a link's inverse has been computed this slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inverse {
    Unknown,
    Ready,
    Singular,
}

/// What a [`GroupScorer`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoringStats {
    /// Score requests, including partial groups (which score 0).
    pub scored: u64,
    /// Groups whose bound was requested but which were never scored (per
    /// slot, bound requests minus score requests: a policy bounds either
    /// every group it scores or none).
    pub pruned: u64,
    /// Full groups whose optimisation failed and so scored 0.
    pub failed: u64,
}

impl GroupScorer {
    /// A scorer for `n_clients × n_aps` slot grids in `direction`.
    pub fn new(
        direction: Direction15,
        cfg: &ExperimentConfig,
        n_clients: usize,
        n_aps: usize,
    ) -> Self {
        let scratch = match direction {
            Direction15::Uplink => ScoreScratch::uplink4(cfg.per_node_power, cfg.noise),
            Direction15::Downlink => ScoreScratch::downlink3(cfg.per_node_power, cfg.noise),
        };
        Self {
            direction,
            n_aps,
            inverses: vec![CMat::default(); n_clients * n_aps],
            known: vec![Inverse::Unknown; n_clients * n_aps],
            gains: vec![None; n_clients * n_aps],
            lu: Lu::default(),
            scratch,
            stats: ScoringStats::default(),
        }
    }

    /// Counts so far.
    pub fn stats(&self) -> ScoringStats {
        self.stats
    }

    /// Start scoring groups on one slot's estimates (clients × APs on the
    /// uplink, APs × clients on the downlink).
    pub fn slot<'a>(&'a mut self, est: &'a ChannelGrid) -> SlotScorer<'a> {
        self.known.fill(Inverse::Unknown);
        self.gains.fill(None);
        let scored_before = self.stats.scored;
        SlotScorer {
            scorer: self,
            est,
            bounded: 0,
            scored_before,
        }
    }
}

/// A [`GroupScorer`] bound to one slot's estimates. Dropping it adds the
/// slot's pruned groups to [`ScoringStats::pruned`].
#[derive(Debug)]
pub struct SlotScorer<'a> {
    scorer: &'a mut GroupScorer,
    est: &'a ChannelGrid,
    /// Bound requests this slot.
    bounded: u64,
    /// `scorer.stats.scored` when the slot began.
    scored_before: u64,
}

impl Drop for SlotScorer<'_> {
    fn drop(&mut self) {
        let scored = self.scorer.stats.scored - self.scored_before;
        self.scorer.stats.pruned += self.bounded.saturating_sub(scored);
    }
}

impl SlotScorer<'_> {
    /// An upper bound on [`score`](Self::score) of `group`, from the
    /// largest singular value of each link its packets cross
    /// ([`ScoreScratch::rate_bound`]); 0 for groups `score` does not
    /// optimise (they score 0).
    pub fn bound(&mut self, group: &[u16]) -> f64 {
        self.bounded += 1;
        let (&[a, b, c], 3) = (group, self.scorer.n_aps) else {
            return 0.0;
        };
        let order = [a as usize, b as usize, c as usize];
        let est = self.est;
        let s = &mut *self.scorer;
        s.scratch.rate_bound(|t, r| {
            let (client, ap) = match s.direction {
                Direction15::Uplink => (order[t], r),
                Direction15::Downlink => (order[r], t),
            };
            *s.gains[client * s.n_aps + ap]
                .get_or_insert_with(|| optimize::link_gain_bound(link(est, s.direction, client, ap)))
        })
    }

    /// Score `group` (head first): 0 for fewer than three members.
    pub fn score(&mut self, group: &[u16]) -> f64 {
        self.scorer.stats.scored += 1;
        if group.len() < 3 {
            return 0.0;
        }
        match self.try_score(group) {
            Ok(rate) => rate,
            Err(_) => {
                self.scorer.stats.failed += 1;
                0.0
            }
        }
    }

    fn try_score(&mut self, group: &[u16]) -> iac_linalg::Result<f64> {
        let &[a, b, c] = group else {
            return Err(LinAlgError::Degenerate("groups have three members"));
        };
        if self.scorer.n_aps != 3 {
            return Err(LinAlgError::Degenerate("groups are served by three APs"));
        }
        let order = [a as usize, b as usize, c as usize];
        match self.scorer.direction {
            Direction15::Uplink => {
                // Transmitters are the group's clients: H(2,1), H(1,0), H(0,0).
                let links = [(order[2], 1), (order[1], 0), (order[0], 0)];
                for (client, ap) in links {
                    self.ensure_inverse(client, ap)?;
                }
                let s = &mut *self.scorer;
                let [i21, i10, i00] = links.map(|(c, ap)| &s.inverses[c * s.n_aps + ap]);
                let view = GridView::new(self.est, Some(&order), None);
                optimize::uplink4_scored(view, [i21, i10, i00], &mut s.scratch)
            }
            Direction15::Downlink => {
                // Receivers are the group's clients: H(1,0), H(0,1).
                let links = [(order[0], 1), (order[1], 0)];
                for (client, ap) in links {
                    self.ensure_inverse(client, ap)?;
                }
                let s = &mut *self.scorer;
                let [i10, i01] = links.map(|(c, ap)| &s.inverses[c * s.n_aps + ap]);
                let view = GridView::new(self.est, None, Some(&order));
                optimize::downlink3_scored(view, [i10, i01], &mut s.scratch)
            }
        }
    }

    /// Compute the (client, AP) link inverse unless this slot already has.
    fn ensure_inverse(&mut self, client: usize, ap: usize) -> iac_linalg::Result<()> {
        let s = &mut *self.scorer;
        let i = client * s.n_aps + ap;
        if s.known[i] == Inverse::Unknown {
            let link = link(self.est, s.direction, client, ap);
            s.known[i] = match link.inverse_into(&mut s.inverses[i], &mut s.lu) {
                Ok(()) => Inverse::Ready,
                Err(_) => Inverse::Singular,
            };
        }
        match s.known[i] {
            Inverse::Ready => Ok(()),
            _ => Err(LinAlgError::Singular),
        }
    }
}

/// The (client, AP) link of a slot grid in `direction`.
fn link(est: &ChannelGrid, direction: Direction15, client: usize, ap: usize) -> &CMat {
    match direction {
        Direction15::Uplink => est.link(client, ap),
        Direction15::Downlink => est.link(ap, client),
    }
}

/// Run the experiment for one direction.
pub fn run(cfg: &Fig15Config, direction: Direction15) -> Fig15Report {
    run_with_stats(cfg, direction).0
}

/// [`run`], also returning what the group scorer did.
pub(crate) fn run_with_stats(
    cfg: &Fig15Config,
    direction: Direction15,
) -> (Fig15Report, ScoringStats) {
    let mut outer_rng = Rng64::new(cfg.base.seed);
    let mut per_policy: Vec<(PolicyKind, Vec<f64>)> = PolicyKind::ALL
        .iter()
        .map(|&k| (k, vec![0.0; cfg.n_clients]))
        .collect();
    let mut baseline_rates = vec![0.0; cfg.n_clients];
    let mut scorer = GroupScorer::new(direction, &cfg.base, cfg.n_clients, cfg.n_aps);

    for _run in 0..cfg.runs {
        let mut rng = outer_rng.fork();
        let testbed = Testbed::deploy(cfg.n_clients + cfg.n_aps, 2, &mut rng);
        let (aps, clients) = testbed.pick_roles(cfg.n_aps, cfg.n_clients, &mut rng);

        // 802.11-MIMO TDMA baseline: slot k serves client k mod n.
        for slot in 0..cfg.base.slots {
            let c = slot % cfg.n_clients;
            let node = clients[c];
            let (grid, est) = match direction {
                Direction15::Uplink => {
                    let g = testbed.uplink_grid(&[node], &aps, &mut rng);
                    let e = g.estimated(&cfg.base.est, &mut rng);
                    (g, e)
                }
                Direction15::Downlink => {
                    let g = testbed.downlink_grid(&aps, &[node], &mut rng);
                    let e = g.estimated(&cfg.base.est, &mut rng);
                    (g, e)
                }
            };
            let (links_true, links_est): (Vec<CMat>, Vec<CMat>) = match direction {
                Direction15::Uplink => (
                    (0..cfg.n_aps).map(|a| grid.link(0, a).clone()).collect(),
                    (0..cfg.n_aps).map(|a| est.link(0, a).clone()).collect(),
                ),
                Direction15::Downlink => (
                    (0..cfg.n_aps).map(|a| grid.link(a, 0).clone()).collect(),
                    (0..cfg.n_aps).map(|a| est.link(a, 0).clone()).collect(),
                ),
            };
            baseline_rates[c] += baseline::best_ap_rate(
                &links_true,
                &links_est,
                cfg.base.per_node_power,
                cfg.base.noise,
            )
            .1;
        }

        // IAC with each policy.
        for (kind, totals) in per_policy.iter_mut() {
            let mut policy = kind.build();
            let mut policy_rng = rng.fork();
            // Infinite-demand FIFO of client ids in random arrival order.
            let mut queue: VecDeque<u16> = {
                let mut ids: Vec<u16> = (0..cfg.n_clients as u16).collect();
                policy_rng.shuffle(&mut ids);
                ids.into()
            };
            for _slot in 0..cfg.base.slots {
                let head = *queue.front().expect("infinite demand");
                let candidates: Vec<u16> =
                    queue.iter().copied().filter(|&c| c != head).collect();
                // Leader-side scoring: predicted group rate from this slot's
                // estimates. Draw the slot's channels once, reuse in scoring
                // and in the actual transmission.
                let slot_grid = match direction {
                    Direction15::Uplink => {
                        testbed.uplink_grid(&clients, &aps, &mut policy_rng)
                    }
                    Direction15::Downlink => {
                        testbed.downlink_grid(&aps, &clients, &mut policy_rng)
                    }
                };
                let slot_est = slot_grid.estimated(&cfg.base.est, &mut policy_rng);
                let slot_scorer = RefCell::new(scorer.slot(&slot_est));
                let companions = policy.select_bounded(
                    head,
                    &candidates,
                    2,
                    &mut |group: &[u16]| slot_scorer.borrow_mut().score(group),
                    &mut |group: &[u16]| slot_scorer.borrow_mut().bound(group),
                    &mut policy_rng,
                );
                let mut group = vec![head];
                group.extend(companions);
                if group.len() == 3 {
                    for (client, rate) in iac_slot_rates(
                        &testbed,
                        &clients,
                        &aps,
                        &group,
                        direction,
                        &cfg.base,
                        &mut policy_rng,
                    ) {
                        totals[client as usize] += rate;
                    }
                }
                // Served clients re-enter at the back (infinite demand).
                queue.retain(|c| !group.contains(c));
                for &c in &group {
                    queue.push_back(c);
                }
            }
        }
    }

    // Gains: both sides normalised by the same slot budget, so the ratio of
    // rate sums is the ratio of time-averaged rates.
    let gains = per_policy
        .into_iter()
        .map(|(kind, totals)| {
            let g: Vec<f64> = totals
                .iter()
                .zip(&baseline_rates)
                .map(|(&iac, &base)| if base > 0.0 { iac / base } else { 0.0 })
                .collect();
            (kind, g)
        })
        .collect();
    (Fig15Report { direction, gains }, scorer.stats())
}

impl std::fmt::Display for Fig15Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, paper) = match self.direction {
            Direction15::Uplink => (
                "Fig. 15a — whole-testbed uplink per-client gain CDFs",
                "(paper: brute 2.32x, fifo 1.9x, best-of-two 2.08x)",
            ),
            Direction15::Downlink => (
                "Fig. 15b — whole-testbed downlink per-client gain CDFs",
                "(paper: brute 1.58x, fifo 1.23x, best-of-two 1.52x)",
            ),
        };
        let series: Vec<(&str, &[f64])> = self
            .gains
            .iter()
            .map(|(k, g)| (k.name(), g.as_slice()))
            .collect();
        writeln!(f, "{}", render_cdfs(&series, 60, name))?;
        for kind in PolicyKind::ALL {
            writeln!(
                f,
                "  {:<13} avg gain {:.2}x   min {:.2}x   clients below 1x: {:.0}%",
                kind.name(),
                self.average_gain(kind),
                self.min_gain(kind),
                self.losers_fraction(kind) * 100.0
            )?;
        }
        writeln!(f, "{paper}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_beat_baseline_on_average() {
        let report = run(&Fig15Config::quick(40), Direction15::Uplink);
        for kind in PolicyKind::ALL {
            let g = report.average_gain(kind);
            assert!(g > 1.2, "{} gain {g} too small", kind.name());
            assert!(g < 4.0, "{} gain {g} implausible", kind.name());
        }
    }

    #[test]
    fn brute_force_at_least_matches_fifo_throughput() {
        let report = run(&Fig15Config::quick(41), Direction15::Uplink);
        let brute = report.average_gain(PolicyKind::BruteForce);
        let fifo = report.average_gain(PolicyKind::Fifo);
        assert!(
            brute > fifo * 0.95,
            "brute {brute} should not trail fifo {fifo} materially"
        );
    }

    #[test]
    fn downlink_gains_lower_than_uplink() {
        let up = run(&Fig15Config::quick(42), Direction15::Uplink);
        let down = run(&Fig15Config::quick(42), Direction15::Downlink);
        assert!(
            up.average_gain(PolicyKind::BestOfTwo)
                > down.average_gain(PolicyKind::BestOfTwo),
            "3-packet downlink should gain less than 4-packet uplink"
        );
    }

    #[test]
    fn best_of_two_fairer_than_brute_force() {
        // Use a slightly larger instance so fairness differences surface.
        let mut cfg = Fig15Config::quick(43);
        cfg.base.slots = 150;
        cfg.n_clients = 10;
        let report = run(&cfg, Direction15::Uplink);
        let b2_min = report.min_gain(PolicyKind::BestOfTwo);
        let brute_min = report.min_gain(PolicyKind::BruteForce);
        assert!(
            b2_min >= brute_min * 0.9,
            "best-of-two min {b2_min} vs brute min {brute_min}"
        );
    }

    /// The scoring this scorer replaced: clone the group's sub-grid, run
    /// the public optimiser, then decode the winner again for its score.
    fn cloned_subgrid_score(est: &ChannelGrid, group: &[u16], direction: Direction15) -> f64 {
        let order: Vec<usize> = group.iter().map(|&c| c as usize).collect();
        let cfg = ExperimentConfig::paper_default(0);
        let (p, n) = (cfg.per_node_power, cfg.noise);
        let sub = match direction {
            Direction15::Uplink => ChannelGrid::new(
                est.direction(),
                order
                    .iter()
                    .map(|&t| (0..3).map(|r| est.link(t, r).clone()).collect())
                    .collect(),
            ),
            Direction15::Downlink => ChannelGrid::new(
                est.direction(),
                (0..3)
                    .map(|a| order.iter().map(|&c| est.link(a, c).clone()).collect())
                    .collect(),
            ),
        };
        let config = match direction {
            Direction15::Uplink => optimize::uplink4_optimized(&sub, p, n),
            Direction15::Downlink => optimize::downlink3_optimized(&sub, p, n),
        };
        config
            .map(|c| optimize::predicted_rate(&sub, &c, p, n))
            .unwrap_or(0.0)
    }

    /// One slot's estimates for 6 clients and 3 APs; with `singular`, client
    /// 2's link to AP 0 (uplink) / AP 1 (downlink) is made rank-one.
    fn slot_estimates(direction: Direction15, seed: u64, singular: bool) -> ChannelGrid {
        let mut rng = Rng64::new(seed);
        let testbed = Testbed::deploy(9, 2, &mut rng);
        let (aps, clients) = testbed.pick_roles(3, 6, &mut rng);
        let cfg = ExperimentConfig::paper_default(seed);
        let est = match direction {
            Direction15::Uplink => testbed.uplink_grid(&clients, &aps, &mut rng),
            Direction15::Downlink => testbed.downlink_grid(&aps, &clients, &mut rng),
        }
        .estimated(&cfg.est, &mut rng);
        if !singular {
            return est;
        }
        let (bad_t, bad_r) = match direction {
            Direction15::Uplink => (2, 0),
            Direction15::Downlink => (1, 2),
        };
        let h = (0..est.transmitters())
            .map(|t| {
                (0..est.receivers())
                    .map(|r| {
                        let l = est.link(t, r);
                        if (t, r) != (bad_t, bad_r) {
                            return l.clone();
                        }
                        // Both columns equal: rank one.
                        CMat::from_cols(&[l.col(0), l.col(0)])
                    })
                    .collect()
            })
            .collect();
        ChannelGrid::new(est.direction(), h)
    }

    /// The scorer against the path it replaced, bit for bit, and its
    /// bound against its score.
    #[test]
    fn scorer_matches_cloned_subgrid_scoring_bit_for_bit() {
        for direction in [Direction15::Uplink, Direction15::Downlink] {
            let cfg = ExperimentConfig::paper_default(0);
            let mut scorer = GroupScorer::new(direction, &cfg, 6, 3);
            let mut expected_failures = 0;
            for (seed, singular) in [(1, false), (2, true), (3, false)] {
                let est = slot_estimates(direction, seed, singular);
                let mut slot = scorer.slot(&est);
                for a in 0..6u16 {
                    for b in 0..6u16 {
                        for c in 0..6u16 {
                            if a == b || b == c || a == c {
                                continue;
                            }
                            let group = [a, b, c];
                            let want = cloned_subgrid_score(&est, &group, direction);
                            let bound = slot.bound(&group);
                            let got = slot.score(&group);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{direction:?} slot {seed} group {group:?}: {got} vs {want}"
                            );
                            assert!(
                                bound >= got,
                                "{direction:?} slot {seed} group {group:?}: bound {bound} < score {got}"
                            );
                            expected_failures += u64::from(want == 0.0);
                        }
                    }
                }
                assert_eq!(slot.score(&[0, 1]), 0.0, "partial groups score 0");
            }
            let stats = scorer.stats();
            assert_eq!(stats.scored, 3 * 120 + 3);
            assert_eq!(stats.failed, expected_failures, "{direction:?}");
            assert_eq!(stats.pruned, 0, "every bounded group was scored");
            assert!(stats.failed > 0, "{direction:?}: the singular link never failed a group");
        }
    }

    #[test]
    fn quick_scoring_never_fails() {
        for seed in [crate::experiment::DEFAULT_SEED, 40] {
            for direction in [Direction15::Uplink, Direction15::Downlink] {
                let (_, stats) = run_with_stats(&Fig15Config::quick(seed), direction);
                assert!(stats.scored > 0);
                assert_eq!(stats.failed, 0, "{direction:?} seed {seed}: {stats:?}");
                assert!(stats.pruned > 0, "{direction:?} seed {seed}: nothing pruned");
            }
        }
    }

    #[test]
    fn report_renders() {
        let report = run(&Fig15Config::quick(44), Direction15::Downlink);
        let text = format!("{report}");
        assert!(text.contains("Fig. 15b"));
        assert!(text.contains("best-of-two"));
    }
}
