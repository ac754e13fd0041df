//! Small-scale fading models.
//!
//! Indoor non-line-of-sight links between half-wavelength-spaced antennas are
//! well modelled by i.i.d. Rayleigh fading: each entry of `H` is `CN(0,1)`.
//! Entries are normalised to unit average power so that large-scale gain is
//! applied separately by the link budget ([`crate::pathloss`]).

use iac_linalg::{C64, CMat, Rng64};

/// Draw an `rx×tx` Rayleigh block-fading channel: i.i.d. `CN(0,1)` entries.
pub fn rayleigh(rx: usize, tx: usize, rng: &mut Rng64) -> CMat {
    CMat::random(rx, tx, rng)
}

/// Draw a Ricean channel with K-factor `k` (linear, not dB): a fixed
/// line-of-sight component of relative power `k/(k+1)` plus Rayleigh scatter.
/// `k = 0` degenerates to pure Rayleigh.
///
/// The LOS component uses unit-modulus phase ramps across the arrays, the
/// standard far-field model.
pub fn ricean(rx: usize, tx: usize, k: f64, rng: &mut Rng64) -> CMat {
    assert!(k >= 0.0, "Ricean K-factor must be non-negative");
    let los_scale = (k / (k + 1.0)).sqrt();
    let nlos_scale = (1.0 / (k + 1.0)).sqrt();
    // Random but fixed angles of departure/arrival for this draw.
    let theta_t = rng.uniform(0.0, std::f64::consts::TAU);
    let theta_r = rng.uniform(0.0, std::f64::consts::TAU);
    CMat::from_fn(rx, tx, |r, t| {
        let los = C64::cis(theta_r * r as f64 - theta_t * t as f64);
        los * los_scale + rng.cn01() * nlos_scale
    })
}

/// Rayleigh draw rejected until the condition number is below `max_cond`.
///
/// The paper's footnote 3: "channel matrices are typically invertible because
/// the antennas are chosen to be more than half a wavelength apart. If the
/// matrix is not invertible, then you don't really have a MIMO system." The
/// solvers in `iac-core` invert channels, so the testbed generator mirrors
/// the physical guarantee by rejecting the (measure-zero, but numerically
/// possible) nearly-singular draws.
pub fn well_conditioned_rayleigh(rx: usize, tx: usize, max_cond: f64, rng: &mut Rng64) -> CMat {
    assert!(max_cond > 1.0, "condition bound must exceed 1");
    loop {
        let h = rayleigh(rx, tx, rng);
        if condition_at_most(&h, max_cond) {
            return h;
        }
    }
}

/// `h.condition_number() <= k`, decided without an SVD for 2×2 matrices.
///
/// With `σ₁ ≥ σ₂` the singular values, `‖h‖²_F = σ₁² + σ₂²` and
/// `|det h| = σ₁σ₂`, so `‖h‖²_F / |det h| = c + 1/c` for `c = σ₁/σ₂`,
/// which increases with `c ≥ 1`: `c ≤ k ⇔ ‖h‖²_F ≤ (k + 1/k)·|det h|`.
/// Both sides carry relative rounding errors of order `ε·k`, and so does
/// the SVD's `c`; within a relative guard band of 1e-6 around the
/// threshold, for `k` above 1e6, outside a safe exponent range and for
/// non-finite entries, the SVD decides, so the answer is always the SVD's.
fn condition_at_most(h: &CMat, k: f64) -> bool {
    const GUARD: f64 = 1e-6;
    if h.shape() == (2, 2) && k <= 1e6 {
        let (h00, h01, h10, h11) = (h[(0, 0)], h[(0, 1)], h[(1, 0)], h[(1, 1)]);
        let frob = h00.norm_sqr() + h01.norm_sqr() + h10.norm_sqr() + h11.norm_sqr();
        let det = (h00 * h11 - h01 * h10).abs();
        let threshold = (k + 1.0 / k) * det;
        if (1e-200..=1e200).contains(&frob)
            && threshold.is_finite()
            && (frob - threshold).abs() > GUARD * frob
        {
            return frob < threshold;
        }
    }
    h.condition_number() <= k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rayleigh_unit_average_power() {
        let mut rng = Rng64::new(1);
        let n = 2000;
        let mut power = 0.0;
        for _ in 0..n {
            let h = rayleigh(2, 2, &mut rng);
            power += h.frobenius_norm().powi(2) / 4.0;
        }
        let avg = power / n as f64;
        assert!((avg - 1.0).abs() < 0.05, "average entry power {avg}");
    }

    #[test]
    fn rayleigh_entries_uncorrelated() {
        let mut rng = Rng64::new(2);
        let n = 5000;
        let mut cross = C64::zero();
        for _ in 0..n {
            let h = rayleigh(2, 2, &mut rng);
            cross += h[(0, 0)] * h[(1, 1)].conj();
        }
        assert!(
            (cross.abs() / n as f64) < 0.05,
            "cross-correlation {}",
            cross.abs() / n as f64
        );
    }

    #[test]
    fn ricean_k0_is_rayleigh_like() {
        let mut rng = Rng64::new(3);
        let n = 2000;
        let mut power = 0.0;
        for _ in 0..n {
            let h = ricean(2, 2, 0.0, &mut rng);
            power += h.frobenius_norm().powi(2) / 4.0;
        }
        assert!((power / n as f64 - 1.0).abs() < 0.05);
    }

    #[test]
    fn ricean_high_k_concentrates() {
        // With K → ∞ the channel is deterministic; variance shrinks as 1/(K+1).
        let mut rng = Rng64::new(4);
        let k = 100.0;
        let n = 500;
        let mut dev = 0.0;
        for _ in 0..n {
            let h = ricean(2, 2, k, &mut rng);
            // Every entry should have modulus close to the LOS scale.
            for r in 0..2 {
                for c in 0..2 {
                    dev += (h[(r, c)].abs() - (k / (k + 1.0)).sqrt()).abs();
                }
            }
        }
        assert!(dev / f64::from(n * 4) < 0.15);
    }

    #[test]
    fn ricean_preserves_unit_power() {
        let mut rng = Rng64::new(5);
        let n = 2000;
        let mut power = 0.0;
        for _ in 0..n {
            let h = ricean(2, 2, 3.0, &mut rng);
            power += h.frobenius_norm().powi(2) / 4.0;
        }
        assert!((power / n as f64 - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn ricean_rejects_negative_k() {
        let mut rng = Rng64::new(6);
        let _ = ricean(2, 2, -1.0, &mut rng);
    }

    #[test]
    fn well_conditioned_respects_bound() {
        let mut rng = Rng64::new(7);
        for _ in 0..100 {
            let h = well_conditioned_rayleigh(2, 2, 20.0, &mut rng);
            assert!(h.condition_number() <= 20.0);
        }
    }

    /// `U·diag(s₁, s₂)·Vᴴ` for random 2×2 unitaries `U`, `V`.
    fn with_singular_values(s1: f64, s2: f64, rng: &mut Rng64) -> CMat {
        let mut unitary = || {
            let u = iac_linalg::CVec::random_unit(2, rng);
            CMat::new(2, 2, vec![u[0], -u[1].conj(), u[1], u[0].conj()])
        };
        let (u, v) = (unitary(), unitary());
        u.mul_mat(&CMat::diag(&[C64::real(s1), C64::real(s2)]))
            .mul_mat(&v.hermitian())
    }

    fn svd_decision(h: &CMat, k: f64) -> bool {
        h.condition_number() <= k
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn closed_form_draw_check_decides_as_the_svd(seed in proptest::prelude::any::<u64>(), k in 1.001f64..1e6) {
            let mut rng = Rng64::new(seed);
            for bound in [k, 20.0, 1e4] {
                let h = rayleigh(2, 2, &mut rng);
                for scale in [1.0, 1e150, 1e-150] {
                    let m = h.scale(scale);
                    proptest::prop_assert_eq!(condition_at_most(&m, bound), svd_decision(&m, bound));
                }
                for delta in [1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 0.0] {
                    let s2 = rng.uniform(0.1, 3.0);
                    let m = with_singular_values(s2 * bound * (1.0 + delta), s2, &mut rng);
                    proptest::prop_assert_eq!(
                        condition_at_most(&m, bound),
                        svd_decision(&m, bound),
                        "bound {} delta {}", bound, delta
                    );
                }
                let rank_one = CMat::from_cols(&[h.col(0), h.col(0).scale(rng.uniform(-2.0, 2.0))]);
                proptest::prop_assert_eq!(condition_at_most(&rank_one, bound), svd_decision(&rank_one, bound));
            }
        }
    }

    #[test]
    fn draw_check_edge_cases_decide_as_the_svd() {
        let nan = C64::new(f64::NAN, 0.0);
        for h in [
            CMat::zeros(2, 2),
            CMat::identity(2),
            CMat::new(2, 2, vec![C64::real(1.0), C64::zero(), C64::zero(), C64::real(0.05)]),
            CMat::new(2, 2, vec![nan, C64::zero(), C64::zero(), C64::real(1.0)]),
            CMat::identity(3),
        ] {
            for k in [1.5, 20.0, 1e4, 1e7] {
                assert_eq!(condition_at_most(&h, k), svd_decision(&h, k), "{h:?} k {k}");
            }
        }
    }

    #[test]
    fn well_conditioned_is_invertible() {
        let mut rng = Rng64::new(8);
        for _ in 0..50 {
            let h = well_conditioned_rayleigh(3, 3, 50.0, &mut rng);
            assert!(h.inverse().is_ok());
        }
    }
}
