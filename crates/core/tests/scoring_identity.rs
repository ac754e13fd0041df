//! Bit-identity of the group-scoring path.
//!
//! `optimize::uplink4_scored` / `downlink3_scored` are the single bodies
//! behind `uplink4_optimized` / `downlink3_optimized`: they read links
//! through a grid view, take the link inverses from the caller, reuse one
//! scratch, and return the winner's predicted rate instead of decoding it
//! again. The `reference` module below is the composition they replaced,
//! written out with the allocating kernels: a cloned sub-grid, inverses
//! recomputed where used, a schedule and power split per candidate, and
//! the decode chain rebuilding interference sets on every step. Every
//! property compares bits, never tolerances, on random grids and on grids
//! where one link is ill-conditioned (condition number 1e2–1e12) or
//! exactly rank-deficient.

use iac_core::closed_form::AlignedConfig;
use iac_core::grid::{ChannelGrid, Direction, GridView};
use iac_core::optimize::{self, ScoreScratch};
use iac_linalg::{C64, CMat, CVec, Rng64};
use proptest::prelude::*;

const POWER: f64 = 1.0;
const NOISE: f64 = 0.05;

/// The pre-refactor scoring composition, kept verbatim as the oracle.
mod reference {
    use super::*;
    use iac_core::decoder::PacketSinr;
    use iac_core::schedule::DecodeSchedule;
    use iac_linalg::eig::smallest_eigvecs_hermitian;
    use iac_linalg::{eig2, Result};

    fn equal_split_powers(schedule: &DecodeSchedule, per_node_power: f64) -> Vec<f64> {
        let n = schedule.n_packets();
        let mut per_owner = std::collections::HashMap::new();
        for &o in &schedule.owners {
            *per_owner.entry(o).or_insert(0usize) += 1;
        }
        (0..n)
            .map(|p| per_node_power / per_owner[&schedule.owners[p]] as f64)
            .collect()
    }

    fn decoding_vectors(
        grid: &ChannelGrid,
        schedule: &DecodeSchedule,
        step_index: usize,
        encoding: &[CVec],
    ) -> Result<Vec<CVec>> {
        let step = &schedule.steps[step_index];
        let sets = schedule.interference_sets();
        let (receiver, ref interf, _) = sets[step_index];
        let mut out = Vec::with_capacity(step.decode.len());
        for &p in &step.decode {
            let mut nuisance: Vec<usize> = interf.clone();
            nuisance.extend(step.decode.iter().filter(|&&q| q != p));
            let m = grid.rx_antennas();
            let mut q = CMat::zeros(m, m);
            for &j in &nuisance {
                let img = grid.link(schedule.owners[j], receiver).mul_vec(&encoding[j]);
                for r in 0..m {
                    for c in 0..m {
                        q[(r, c)] += img[r] * img[c].conj();
                    }
                }
            }
            let mut u = smallest_eigvecs_hermitian(&q, 1)?.pop().expect("k=1");
            let sig = u.dot(&grid.link(schedule.owners[p], receiver).mul_vec(&encoding[p]));
            if sig.abs() > 1e-12 {
                u = u.scale_c((sig * (1.0 / sig.abs())).conj());
            }
            out.push(u);
        }
        Ok(out)
    }

    fn decode(
        true_grid: &ChannelGrid,
        est_grid: &ChannelGrid,
        schedule: &DecodeSchedule,
        encoding: &[CVec],
        packet_power: &[f64],
        noise_power: f64,
    ) -> Result<Vec<PacketSinr>> {
        let sets = schedule.interference_sets();
        let mut sinrs = Vec::with_capacity(schedule.n_packets());
        for (step_idx, step) in schedule.steps.iter().enumerate() {
            let us = decoding_vectors(est_grid, schedule, step_idx, encoding)?;
            let (receiver, ref interf, _) = sets[step_idx];
            for (u, &p) in us.iter().zip(&step.decode) {
                let mut num = 0.0;
                let mut den = noise_power;
                let own = true_grid
                    .link(schedule.owners[p], receiver)
                    .mul_vec(&encoding[p]);
                num += packet_power[p] * u.dot(&own).norm_sqr();
                for &q in interf {
                    let img = true_grid
                        .link(schedule.owners[q], receiver)
                        .mul_vec(&encoding[q]);
                    den += packet_power[q] * u.dot(&img).norm_sqr();
                }
                for &q in &step.decode {
                    if q == p {
                        continue;
                    }
                    let img = true_grid
                        .link(schedule.owners[q], receiver)
                        .mul_vec(&encoding[q]);
                    den += packet_power[q] * u.dot(&img).norm_sqr();
                }
                for &c in &step.cancel {
                    let h_err = true_grid.link(schedule.owners[c], receiver)
                        - est_grid.link(schedule.owners[c], receiver);
                    let img = h_err.mul_vec(&encoding[c]);
                    den += packet_power[c] * u.dot(&img).norm_sqr();
                }
                sinrs.push(PacketSinr {
                    packet: p,
                    receiver,
                    sinr: num / den,
                });
            }
        }
        Ok(sinrs)
    }

    pub fn predicted_rate(est: &ChannelGrid, config: &AlignedConfig) -> f64 {
        let powers = equal_split_powers(&config.schedule, POWER);
        decode(est, est, &config.schedule, &config.encoding, &powers, NOISE)
            .map(|s| {
                let s: Vec<f64> = s.iter().map(|p| p.sinr).collect();
                iac_core::rate::rate_bits_per_hz(&s)
            })
            .unwrap_or(0.0)
    }

    pub fn uplink4(est: &ChannelGrid) -> Result<AlignedConfig> {
        let prod = est
            .link(2, 1)
            .inverse()?
            .mul_mat(est.link(1, 1))
            .mul_mat(&est.link(1, 0).inverse()?)
            .mul_mat(est.link(2, 0));
        let pairs = eig2(&prod)?;
        let schedule = DecodeSchedule::uplink_2m(2);
        let mut best: Option<(f64, AlignedConfig)> = None;
        for (_, v3) in pairs {
            let v3 = v3.normalize()?;
            let v2 = est
                .link(1, 0)
                .inverse()?
                .mul_mat(est.link(2, 0))
                .mul_vec(&v3)
                .normalize()?;
            let v1 = est
                .link(0, 0)
                .inverse()?
                .mul_mat(est.link(2, 0))
                .mul_vec(&v3)
                .normalize()?;
            let aligned = est.link(0, 0).mul_vec(&v1);
            let u0 = aligned.orth_2d()?;
            let v0 = est.link(0, 0).hermitian().mul_vec(&u0).normalize()?;
            let config = AlignedConfig {
                schedule: schedule.clone(),
                encoding: vec![v0, v1, v2, v3],
            };
            let score = predicted_rate(est, &config);
            if best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
                best = Some((score, config));
            }
        }
        Ok(best.expect("two eigen solutions").1)
    }

    pub fn downlink3(est: &ChannelGrid) -> Result<AlignedConfig> {
        let a = est
            .link(1, 2)
            .mul_mat(&est.link(1, 0).inverse()?)
            .mul_mat(est.link(2, 0));
        let b = est
            .link(0, 2)
            .mul_mat(&est.link(0, 1).inverse()?)
            .mul_mat(est.link(2, 1));
        let prod = a.inverse()?.mul_mat(&b);
        let pairs = eig2(&prod)?;
        let mut best: Option<(f64, AlignedConfig)> = None;
        for (_, v2) in pairs {
            let v2 = v2.normalize()?;
            let v1 = est
                .link(1, 0)
                .inverse()?
                .mul_mat(est.link(2, 0))
                .mul_vec(&v2)
                .normalize()?;
            let v0 = est
                .link(0, 1)
                .inverse()?
                .mul_mat(est.link(2, 1))
                .mul_vec(&v2)
                .normalize()?;
            let config = AlignedConfig {
                schedule: DecodeSchedule::downlink_3_packets(),
                encoding: vec![v0, v1, v2],
            };
            let score = predicted_rate(est, &config);
            if best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
                best = Some((score, config));
            }
        }
        Ok(best.expect("two eigen solutions").1)
    }
}

/// A 2×2 link `U·diag(1, 1/κ)·Vᴴ` with random unitary `U`, `V`; `κ = ∞`
/// gives an exactly rank-one link.
fn conditioned_link(cond: f64, rng: &mut Rng64) -> CMat {
    let unitary = |rng: &mut Rng64| {
        let a = CVec::random_unit(2, rng);
        let b = a.orth_2d().unwrap();
        CMat::from_cols(&[a, b])
    };
    let u = unitary(rng);
    let v = unitary(rng);
    let s = CMat::diag(&[C64::one(), C64::real(1.0 / cond)]);
    u.mul_mat(&s).mul_mat(&v.hermitian())
}

/// A 5-node grid (5 transmitters × 3 receivers on the uplink, 3 × 5 on the
/// downlink) plus the 3 nodes a group picks from it. `kind` 0 leaves it
/// random; 1 replaces one of the group's links by one of condition number
/// `10^exp`; 2 makes that link rank-one.
fn fixture(direction: Direction, seed: u64, kind: usize, exp: f64) -> (ChannelGrid, [usize; 3]) {
    let mut rng = Rng64::new(seed);
    let (txs, rxs) = match direction {
        Direction::Uplink => (5, 3),
        Direction::Downlink => (3, 5),
    };
    let grid = ChannelGrid::random(direction, txs, rxs, 2, 2, &mut rng);
    let mut ids: Vec<usize> = (0..5).collect();
    rng.shuffle(&mut ids);
    let order = [ids[0], ids[1], ids[2]];
    if kind == 0 {
        return (grid, order);
    }
    let cond = if kind == 1 { 10f64.powf(exp) } else { f64::INFINITY };
    let (node, ap) = (order[rng.below(3) as usize], rng.below(3) as usize);
    let (bad_t, bad_r) = match direction {
        Direction::Uplink => (node, ap),
        Direction::Downlink => (ap, node),
    };
    let bad = conditioned_link(cond, &mut rng);
    let h: Vec<Vec<CMat>> = (0..txs)
        .map(|t| {
            (0..rxs)
                .map(|r| {
                    if (t, r) == (bad_t, bad_r) {
                        bad.clone()
                    } else {
                        grid.link(t, r).clone()
                    }
                })
                .collect()
        })
        .collect();
    (ChannelGrid::new(direction, h), order)
}

/// The group's sub-grid, cloned the way scoring used to.
fn cloned_subgrid(grid: &ChannelGrid, order: &[usize; 3]) -> ChannelGrid {
    let h: Vec<Vec<CMat>> = match grid.direction() {
        Direction::Uplink => order
            .iter()
            .map(|&t| (0..3).map(|r| grid.link(t, r).clone()).collect())
            .collect(),
        Direction::Downlink => (0..3)
            .map(|a| order.iter().map(|&c| grid.link(a, c).clone()).collect())
            .collect(),
    };
    ChannelGrid::new(grid.direction(), h)
}

fn bits(config: &AlignedConfig) -> Vec<(u64, u64)> {
    config
        .encoding
        .iter()
        .flat_map(|v| v.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())))
        .collect()
}

/// Score the group the new way: a view, caller-supplied inverses (the
/// body is not called when one of them is singular), and a reused scratch.
fn score_new(
    grid: &ChannelGrid,
    order: &[usize; 3],
    scratch: &mut ScoreScratch,
) -> iac_linalg::Result<f64> {
    match grid.direction() {
        Direction::Uplink => {
            let view = GridView::new(grid, Some(order), None);
            let i21 = view.link(2, 1).inverse()?;
            let i10 = view.link(1, 0).inverse()?;
            let i00 = view.link(0, 0).inverse()?;
            optimize::uplink4_scored(view, [&i21, &i10, &i00], scratch)
        }
        Direction::Downlink => {
            let view = GridView::new(grid, None, Some(order));
            let i10 = view.link(1, 0).inverse()?;
            let i01 = view.link(0, 1).inverse()?;
            optimize::downlink3_scored(view, [&i10, &i01], scratch)
        }
    }
}

fn check(direction: Direction, seed: u64, kind: usize, exp: f64) -> Result<(), TestCaseError> {
    let (grid, order) = fixture(direction, seed, kind, exp);
    let sub = cloned_subgrid(&grid, &order);
    let (old, public) = match direction {
        Direction::Uplink => (
            reference::uplink4(&sub),
            optimize::uplink4_optimized(&sub, POWER, NOISE),
        ),
        Direction::Downlink => (
            reference::downlink3(&sub),
            optimize::downlink3_optimized(&sub, POWER, NOISE),
        ),
    };
    // A dirty scratch: score an unrelated group first.
    let mut scratch = match direction {
        Direction::Uplink => ScoreScratch::uplink4(POWER, NOISE),
        Direction::Downlink => ScoreScratch::downlink3(POWER, NOISE),
    };
    let (warm, warm_order) = fixture(direction, seed ^ 0x5A5A, 0, 0.0);
    let _ = score_new(&warm, &warm_order, &mut scratch);
    let new = score_new(&grid, &order, &mut scratch);

    prop_assert_eq!(new.is_ok(), old.is_ok(), "Ok-ness differs: new {:?}, old {:?}", new, old.as_ref().err());
    prop_assert_eq!(public.is_ok(), old.is_ok());
    if let (Ok(score), Ok(old)) = (new, old) {
        let config = scratch.config();
        prop_assert_eq!(bits(config), bits(&old));
        prop_assert_eq!(bits(&public.unwrap()), bits(&old));
        prop_assert_eq!(&config.schedule, &old.schedule);
        let rate = optimize::predicted_rate(&sub, config, POWER, NOISE);
        prop_assert_eq!(score.to_bits(), rate.to_bits());
        prop_assert_eq!(score.to_bits(), reference::predicted_rate(&sub, &old).to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn uplink4_body_is_bit_identical(seed in any::<u64>(), kind in 0usize..3, exp in 2.0f64..12.0) {
        check(Direction::Uplink, seed, kind, exp)?;
    }

    #[test]
    fn downlink3_body_is_bit_identical(seed in any::<u64>(), kind in 0usize..3, exp in 2.0f64..12.0) {
        check(Direction::Downlink, seed, kind, exp)?;
    }
}

#[test]
fn singular_links_fail_on_both_paths() {
    // A rank-one link on a link the optimiser inverts: old and new both err.
    for direction in [Direction::Uplink, Direction::Downlink] {
        let mut failures = 0;
        for seed in 0..64 {
            let (grid, order) = fixture(direction, seed, 2, 0.0);
            let sub = cloned_subgrid(&grid, &order);
            let old = match direction {
                Direction::Uplink => reference::uplink4(&sub),
                Direction::Downlink => reference::downlink3(&sub),
            };
            let new = score_new(&grid, &order, &mut match direction {
                Direction::Uplink => ScoreScratch::uplink4(POWER, NOISE),
                Direction::Downlink => ScoreScratch::downlink3(POWER, NOISE),
            });
            assert_eq!(new.is_ok(), old.is_ok(), "{direction:?} seed {seed}");
            failures += usize::from(old.is_err());
        }
        assert!(failures > 0, "{direction:?}: no fixture exercised the failure path");
    }
}
