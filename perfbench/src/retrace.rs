//! Re-enactments of the program's trial loops for the traced run.
//!
//! Each function here walks the same steps, in the same order and with the
//! same RNG forks, as one registry trial (`registry::Scenario::run`), but
//! calls only public functions and wraps every call into a layer in a
//! [`Clock`] span. The result is a `TrialOutput` that must equal the
//! program's own bit for bit; the caller checks that, so a re-enactment
//! that drifts from the program fails the traced run instead of reporting
//! a profile of different work.

use crate::clock::{Clock, Count, Span};
use iac_lan::core::decoder::{equal_split_powers, IacDecoder};
use iac_lan::core::diversity::{best_downlink_option, DiversityOption};
use iac_lan::core::grid::ChannelGrid;
use iac_lan::core::{baseline, optimize};
use iac_lan::linalg::{CMat, Rng64};
use iac_lan::mac::concurrency::{BestOfTwo, BruteForce, FifoPolicy, GroupPolicy};
use iac_lan::sim::experiment::{
    baseline_downlink_slot, baseline_uplink_slot, permute_transmitters, ExperimentConfig,
    ScatterPoint,
};
use iac_lan::sim::netsim::{self, NetSimOutcome};
use iac_lan::sim::scenarios::fig12::Fig12Report;
use iac_lan::sim::scenarios::fig13::{Direction13, Fig13Report};
use iac_lan::sim::scenarios::fig14::Fig14Report;
use iac_lan::sim::scenarios::fig15::{Direction15, Fig15Config, Fig15Report, PolicyKind};
use iac_lan::sim::{desrec, stats, Quality, Testbed, TrialOutput};
use std::collections::VecDeque;

/// Whether a scenario has a re-enactment here.
pub fn supports(name: &str) -> bool {
    matches!(
        name,
        "fig12" | "fig13a" | "fig13b" | "fig14" | "fig15a" | "fig15b"
    ) || desrec::DES_SCENARIOS.contains(&name)
}

/// Re-enact one registry trial of `name`.
///
/// # Panics
/// Panics if [`supports`] is false for `name`.
pub fn trial(name: &str, quality: Quality, seed: u64, clock: &Clock) -> TrialOutput {
    match name {
        "fig12" => fig12(quality, seed, clock),
        "fig13a" => fig13(quality, seed, Direction13::Uplink, clock),
        "fig13b" => fig13(quality, seed, Direction13::Downlink, clock),
        "fig14" => fig14(quality, seed, clock),
        "fig15a" => fig15(quality, seed, Direction15::Uplink, clock),
        "fig15b" => fig15(quality, seed, Direction15::Downlink, clock),
        des if desrec::DES_SCENARIOS.contains(&des) => des_trial(des, quality, seed, clock),
        other => panic!("no re-enactment for {other}"),
    }
}

/// Whether two trial outputs agree name for name and bit for bit.
pub fn identical(a: &TrialOutput, b: &TrialOutput) -> bool {
    a.metrics.len() == b.metrics.len()
        && a.metrics
            .iter()
            .zip(&b.metrics)
            .all(|((na, va), (nb, vb))| na == nb && va.to_bits() == vb.to_bits())
}

fn base(quality: Quality, seed: u64) -> ExperimentConfig {
    match quality {
        Quality::Quick => ExperimentConfig::quick(seed),
        Quality::Paper => ExperimentConfig::paper_default(seed),
    }
}

// ---------------------------------------------------------------- scatters

#[derive(Clone, Copy)]
enum Shape {
    Uplink3,
    Uplink4,
    Downlink3,
}

/// `experiment::iac_rate_for`: optimize on the estimate, decode on the truth.
fn iac_rate(
    grid_true: &ChannelGrid,
    grid_est: &ChannelGrid,
    cfg: &ExperimentConfig,
    rng: &mut Rng64,
    shape: Shape,
    clock: &Clock,
) -> f64 {
    clock.count(Count::OptimizeCalls, 1);
    let config = clock.time(Span::Optimize, || match shape {
        Shape::Uplink3 => optimize::uplink3_optimized(
            grid_est,
            cfg.per_node_power,
            cfg.noise,
            optimize::DEFAULT_SEED_CANDIDATES,
            rng,
        ),
        Shape::Uplink4 => optimize::uplink4_optimized(grid_est, cfg.per_node_power, cfg.noise),
        Shape::Downlink3 => optimize::downlink3_optimized(grid_est, cfg.per_node_power, cfg.noise),
    });
    let Ok(config) = config else {
        clock.count(Count::OptimizeFails, 1);
        return 0.0;
    };
    clock.count(Count::DecodeCalls, 1);
    let rate = clock.time(Span::Decode, || {
        let powers = equal_split_powers(&config.schedule, cfg.per_node_power);
        IacDecoder {
            true_grid: grid_true,
            est_grid: grid_est,
            schedule: &config.schedule,
            encoding: &config.encoding,
            packet_power: powers,
            noise_power: cfg.noise,
        }
        .decode()
        .map(|o| o.rate_bits_per_hz())
    });
    rate.unwrap_or_else(|_| {
        clock.count(Count::DecodeFails, 1);
        0.0
    })
}

/// `experiment::run_picks`.
fn run_picks(
    cfg: &ExperimentConfig,
    mut pick: impl FnMut(&Testbed, &mut Rng64) -> ScatterPoint,
) -> Vec<ScatterPoint> {
    let mut rng = Rng64::new(cfg.seed);
    let testbed = Testbed::paper_default(&mut rng);
    (0..cfg.picks).map(|_| pick(&testbed, &mut rng)).collect()
}

fn gains(points: &[ScatterPoint]) -> Vec<f64> {
    points.iter().map(|p| p.gain()).collect()
}

fn fig12(quality: Quality, seed: u64, clock: &Clock) -> TrialOutput {
    let cfg = base(quality, seed);
    let points = run_picks(&cfg, |tb, rng| {
        let (aps, clients) = tb.pick_roles(2, 2, rng);
        let mut base = 0.0;
        let mut iac = 0.0;
        for _ in 0..cfg.slots {
            let grid = clock.time(Span::Draw, || tb.uplink_grid(&clients, &aps, rng));
            let est = clock.time(Span::Estimate, || grid.estimated(&cfg.est, rng));
            base += clock.time(Span::Baseline, || baseline_uplink_slot(&grid, &est, &cfg));
            // `experiment::iac_uplink3_slot`: both role orders, averaged.
            let mut acc = 0.0;
            for order in [&[0usize, 1][..], &[1usize, 0][..]] {
                let gt = permute_transmitters(&grid, order);
                let ge = permute_transmitters(&est, order);
                acc += iac_rate(&gt, &ge, &cfg, rng, Shape::Uplink3, clock);
            }
            iac += acc / 2.0;
        }
        ScatterPoint {
            baseline: base / cfg.slots as f64,
            iac: iac / cfg.slots as f64,
        }
    });
    let r = Fig12Report { points };
    let s = stats::Summary::of(&gains(&r.points));
    TrialOutput {
        metrics: vec![
            ("average_gain", r.average_gain()),
            ("gain_min", s.min),
            ("gain_median", s.median),
            ("gain_max", s.max),
            (
                "baseline_mean",
                stats::mean(&r.points.iter().map(|p| p.baseline).collect::<Vec<_>>()),
            ),
        ],
    }
}

fn fig13(quality: Quality, seed: u64, direction: Direction13, clock: &Clock) -> TrialOutput {
    let cfg = base(quality, seed);
    let points = run_picks(&cfg, |tb, rng| {
        let (aps, clients) = tb.pick_roles(3, 3, rng);
        let mut base = 0.0;
        let mut iac = 0.0;
        for slot in 0..cfg.slots {
            match direction {
                Direction13::Uplink => {
                    let grid = clock.time(Span::Draw, || tb.uplink_grid(&clients, &aps, rng));
                    let est = clock.time(Span::Estimate, || grid.estimated(&cfg.est, rng));
                    base += clock.time(Span::Baseline, || baseline_uplink_slot(&grid, &est, &cfg));
                    // `experiment::iac_uplink4_slot`: round-robin double client.
                    let n = grid.transmitters();
                    let order: Vec<usize> = (0..n).map(|k| (slot % 3 + k) % n).collect();
                    let gt = permute_transmitters(&grid, &order);
                    let ge = permute_transmitters(&est, &order);
                    iac += iac_rate(&gt, &ge, &cfg, rng, Shape::Uplink4, clock);
                }
                Direction13::Downlink => {
                    let grid = clock.time(Span::Draw, || tb.downlink_grid(&aps, &clients, rng));
                    let est = clock.time(Span::Estimate, || grid.estimated(&cfg.est, rng));
                    base +=
                        clock.time(Span::Baseline, || baseline_downlink_slot(&grid, &est, &cfg));
                    iac += iac_rate(&grid, &est, &cfg, rng, Shape::Downlink3, clock);
                }
            }
        }
        ScatterPoint {
            baseline: base / cfg.slots as f64,
            iac: iac / cfg.slots as f64,
        }
    });
    let r = Fig13Report { direction, points };
    let (lo, hi) = r.gain_by_rate_half();
    TrialOutput {
        metrics: vec![
            ("average_gain", r.average_gain()),
            ("gain_low_half", lo),
            ("gain_high_half", hi),
        ],
    }
}

fn fig14(quality: Quality, seed: u64, clock: &Clock) -> TrialOutput {
    let cfg = base(quality, seed);
    let mut rng = Rng64::new(cfg.seed);
    let testbed = Testbed::paper_default(&mut rng);
    let mut points = Vec::with_capacity(cfg.picks);
    let mut split_wins = 0usize;
    let mut options = 0usize;
    for _ in 0..cfg.picks {
        let (aps, clients) = testbed.pick_roles(2, 1, &mut rng);
        let client = clients[0];
        let mut base = 0.0;
        let mut iac = 0.0;
        for _ in 0..cfg.slots {
            let grid = clock.time(Span::Draw, || {
                testbed.downlink_grid(&aps, &[client], &mut rng)
            });
            let est = clock.time(Span::Estimate, || grid.estimated(&cfg.est, &mut rng));
            let links_true: [CMat; 2] = [grid.link(0, 0).clone(), grid.link(1, 0).clone()];
            let links_est: [CMat; 2] = [est.link(0, 0).clone(), est.link(1, 0).clone()];
            base += clock
                .time(Span::Baseline, || {
                    baseline::best_ap_rate(&links_true, &links_est, cfg.per_node_power, cfg.noise)
                })
                .1;
            let choice = clock.time(Span::Diversity, || {
                best_downlink_option(&links_true, &links_est, cfg.per_node_power, cfg.noise)
            });
            if let Ok(out) = choice {
                iac += out.rate;
                options += 1;
                if out.option == DiversityOption::OneFromEach {
                    split_wins += 1;
                }
            }
        }
        points.push(ScatterPoint {
            baseline: base / cfg.slots as f64,
            iac: iac / cfg.slots as f64,
        });
    }
    let r = Fig14Report {
        points,
        split_fraction: if options == 0 {
            0.0
        } else {
            split_wins as f64 / options as f64
        },
    };
    let (lo, hi) = r.gain_by_rate_half();
    TrialOutput {
        metrics: vec![
            ("average_gain", r.average_gain()),
            ("split_fraction", r.split_fraction),
            ("gain_low_half", lo),
            ("gain_high_half", hi),
        ],
    }
}

// ---------------------------------------------------------------- fig. 15

fn policy(kind: PolicyKind) -> Box<dyn GroupPolicy> {
    match kind {
        PolicyKind::BruteForce => Box::new(BruteForce),
        PolicyKind::Fifo => Box::new(FifoPolicy),
        PolicyKind::BestOfTwo => Box::new(BestOfTwo::default()),
    }
}

/// The candidate group's sub-grid, transmitters (uplink) or receivers
/// (downlink) selected in `order`.
fn subgrid(
    grid: &ChannelGrid,
    order: &[usize],
    direction: Direction15,
    n_aps: usize,
) -> ChannelGrid {
    let h: Vec<Vec<CMat>> = match direction {
        Direction15::Uplink => order
            .iter()
            .map(|&t| {
                (0..grid.receivers())
                    .map(|r| grid.link(t, r).clone())
                    .collect()
            })
            .collect(),
        Direction15::Downlink => (0..n_aps)
            .map(|a| order.iter().map(|&c| grid.link(a, c).clone()).collect())
            .collect(),
    };
    ChannelGrid::new(grid.direction(), h)
}

/// `fig15::iac_slot_rates`: serve one group, return per-client rates.
#[allow(clippy::too_many_arguments)]
fn iac_slot_rates(
    testbed: &Testbed,
    clients: &[usize],
    aps: &[usize],
    group: &[u16],
    direction: Direction15,
    cfg: &ExperimentConfig,
    rng: &mut Rng64,
    clock: &Clock,
) -> Vec<(u16, f64)> {
    let nodes: Vec<usize> = group.iter().map(|&c| clients[c as usize]).collect();
    let grid = clock.time(Span::Draw, || match direction {
        Direction15::Uplink => testbed.uplink_grid(&nodes, aps, rng),
        Direction15::Downlink => testbed.downlink_grid(aps, &nodes, rng),
    });
    let est = clock.time(Span::Estimate, || grid.estimated(&cfg.est, rng));
    clock.count(Count::OptimizeCalls, 1);
    let config = clock.time(Span::Optimize, || match direction {
        Direction15::Uplink => optimize::uplink4_optimized(&est, cfg.per_node_power, cfg.noise),
        Direction15::Downlink => optimize::downlink3_optimized(&est, cfg.per_node_power, cfg.noise),
    });
    let Ok(config) = config else {
        clock.count(Count::OptimizeFails, 1);
        return Vec::new();
    };
    clock.count(Count::DecodeCalls, 1);
    let decoded = clock.time(Span::Decode, || {
        let powers = equal_split_powers(&config.schedule, cfg.per_node_power);
        IacDecoder {
            true_grid: &grid,
            est_grid: &est,
            schedule: &config.schedule,
            encoding: &config.encoding,
            packet_power: powers,
            noise_power: cfg.noise,
        }
        .decode()
    });
    let Ok(out) = decoded else {
        clock.count(Count::DecodeFails, 1);
        return Vec::new();
    };
    out.sinrs
        .iter()
        .map(|p| {
            let client = match direction {
                // Packets 0 and 1 belong to the head (double sender).
                Direction15::Uplink => match p.packet {
                    0 | 1 => group[0],
                    2 => group[1],
                    _ => group[2],
                },
                Direction15::Downlink => group[p.packet],
            };
            (client, (1.0 + p.sinr).log2())
        })
        .collect()
}

fn fig15(quality: Quality, seed: u64, direction: Direction15, clock: &Clock) -> TrialOutput {
    let cfg = match quality {
        Quality::Quick => Fig15Config::quick(seed),
        Quality::Paper => Fig15Config::paper_default(seed),
    };
    let mut outer_rng = Rng64::new(cfg.base.seed);
    let mut per_policy: Vec<(PolicyKind, Vec<f64>)> = PolicyKind::ALL
        .iter()
        .map(|&k| (k, vec![0.0; cfg.n_clients]))
        .collect();
    let mut baseline_rates = vec![0.0; cfg.n_clients];

    for _run in 0..cfg.runs {
        let mut rng = outer_rng.fork();
        let testbed = Testbed::deploy(cfg.n_clients + cfg.n_aps, 2, &mut rng);
        let (aps, clients) = testbed.pick_roles(cfg.n_aps, cfg.n_clients, &mut rng);

        // 802.11-MIMO TDMA baseline: slot k serves client k mod n.
        for slot in 0..cfg.base.slots {
            let c = slot % cfg.n_clients;
            let node = clients[c];
            let grid = clock.time(Span::Draw, || match direction {
                Direction15::Uplink => testbed.uplink_grid(&[node], &aps, &mut rng),
                Direction15::Downlink => testbed.downlink_grid(&aps, &[node], &mut rng),
            });
            let est = clock.time(Span::Estimate, || grid.estimated(&cfg.base.est, &mut rng));
            let link = |g: &ChannelGrid, a: usize| match direction {
                Direction15::Uplink => g.link(0, a).clone(),
                Direction15::Downlink => g.link(a, 0).clone(),
            };
            let links_true: Vec<CMat> = (0..cfg.n_aps).map(|a| link(&grid, a)).collect();
            let links_est: Vec<CMat> = (0..cfg.n_aps).map(|a| link(&est, a)).collect();
            baseline_rates[c] += clock
                .time(Span::Baseline, || {
                    baseline::best_ap_rate(
                        &links_true,
                        &links_est,
                        cfg.base.per_node_power,
                        cfg.base.noise,
                    )
                })
                .1;
        }

        for (kind, totals) in per_policy.iter_mut() {
            let mut policy = policy(*kind);
            let mut policy_rng = rng.fork();
            let mut queue: VecDeque<u16> = {
                let mut ids: Vec<u16> = (0..cfg.n_clients as u16).collect();
                policy_rng.shuffle(&mut ids);
                ids.into()
            };
            for _slot in 0..cfg.base.slots {
                let head = *queue.front().expect("infinite demand");
                let candidates: Vec<u16> = queue.iter().copied().filter(|&c| c != head).collect();
                let slot_grid = clock.time(Span::Draw, || match direction {
                    Direction15::Uplink => testbed.uplink_grid(&clients, &aps, &mut policy_rng),
                    Direction15::Downlink => testbed.downlink_grid(&aps, &clients, &mut policy_rng),
                });
                let slot_est = clock.time(Span::Estimate, || {
                    slot_grid.estimated(&cfg.base.est, &mut policy_rng)
                });
                let mut score = |group: &[u16]| -> f64 {
                    let t0 = std::time::Instant::now();
                    clock.count(Count::GroupsScored, 1);
                    let s = if group.len() < 3 {
                        0.0
                    } else {
                        let order: Vec<usize> = group.iter().map(|&c| c as usize).collect();
                        let sub = subgrid(&slot_est, &order, direction, cfg.n_aps);
                        clock.count(Count::OptimizeCalls, 1);
                        let config = clock.time(Span::Optimize, || match direction {
                            Direction15::Uplink => optimize::uplink4_optimized(
                                &sub,
                                cfg.base.per_node_power,
                                cfg.base.noise,
                            ),
                            Direction15::Downlink => optimize::downlink3_optimized(
                                &sub,
                                cfg.base.per_node_power,
                                cfg.base.noise,
                            ),
                        });
                        match config {
                            Ok(c) => {
                                clock.count(Count::PredictCalls, 1);
                                clock.time(Span::Predict, || {
                                    optimize::predicted_rate(
                                        &sub,
                                        &c,
                                        cfg.base.per_node_power,
                                        cfg.base.noise,
                                    )
                                })
                            }
                            Err(_) => {
                                clock.count(Count::OptimizeFails, 1);
                                0.0
                            }
                        }
                    };
                    clock.add(Span::ScoreCallback, t0.elapsed());
                    s
                };
                let companions = clock.time(Span::Select, || {
                    policy.select(head, &candidates, 2, &mut score, &mut policy_rng)
                });
                let mut group = vec![head];
                group.extend(companions);
                if group.len() == 3 {
                    clock.count(Count::GroupsServed, 1);
                    let rates = iac_slot_rates(
                        &testbed,
                        &clients,
                        &aps,
                        &group,
                        direction,
                        &cfg.base,
                        &mut policy_rng,
                        clock,
                    );
                    for (client, rate) in rates {
                        totals[client as usize] += rate;
                    }
                }
                queue.retain(|c| !group.contains(c));
                for &c in &group {
                    queue.push_back(c);
                }
            }
        }
    }

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
    let r = Fig15Report { direction, gains };
    TrialOutput {
        metrics: vec![
            ("gain_brute_force", r.average_gain(PolicyKind::BruteForce)),
            ("gain_fifo", r.average_gain(PolicyKind::Fifo)),
            ("gain_best_of_two", r.average_gain(PolicyKind::BestOfTwo)),
            ("min_gain_best_of_two", r.min_gain(PolicyKind::BestOfTwo)),
            (
                "losers_fraction_brute_force",
                r.losers_fraction(PolicyKind::BruteForce),
            ),
        ],
    }
}

// ---------------------------------------------------------------- DES runs

/// A DES trial: calibrate the PHY pools and build the run specs
/// (`desrec::des_runs`), build and step each simulation, then derive the
/// scenario's metrics through `desrec::trial_output_from` — the path the
/// registry entry and replay verification share.
fn des_trial(name: &str, quality: Quality, seed: u64, clock: &Clock) -> TrialOutput {
    let runs = clock.time(Span::Calibrate, || desrec::des_runs(name, quality, seed));
    let mut outcomes = Vec::with_capacity(runs.len());
    for run in &runs {
        let (mut sim, metrics) = clock.time(Span::DesBuild, || {
            netsim::build_netsim(&run.spec, run.phy.clone())
        });
        let events = clock.time(Span::DesStep, || sim.step_until_no_events());
        let out = NetSimOutcome {
            log: metrics.snapshot(),
            events,
            end_time: sim.time(),
        };
        clock.count(Count::DesRuns, 1);
        clock.count(Count::DesEvents, events);
        clock.queue_depth(sim.queue_high_water() as u64);
        clock.count(Count::DesOffered, out.log.offered);
        clock.count(Count::DesDelivered, out.log.delivered.len() as u64);
        clock.count(Count::DesRetx, out.log.retx);
        outcomes.push(out);
    }
    desrec::trial_output_from(name, quality, seed, outcomes)
}
