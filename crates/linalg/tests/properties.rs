//! Property-based tests for the linear-algebra substrate.
//!
//! The alignment maths downstream assumes these identities hold for *every*
//! well-conditioned input, not just hand-picked ones; proptest hammers them
//! with random matrices while skipping genuinely ill-conditioned draws (which
//! the library is entitled to reject as singular).

use iac_linalg::qr::{null_space, orthogonal_complement_vector, orthonormal_basis};
use iac_linalg::{
    eig2, eig2_into, eigh, eigh_into, C64, CMat, CVec, EighScratch, Lu, Qr, Rng64, Svd,
};
use proptest::prelude::*;

/// Strategy: a seeded RNG, so matrix entries come from our own CN(0,1)
/// generator — the exact distribution the simulator uses.
fn seeds() -> impl Strategy<Value = u64> {
    any::<u64>()
}

fn random_mat(seed: u64, n: usize) -> CMat {
    let mut rng = Rng64::new(seed);
    CMat::random(n, n, &mut rng)
}

fn well_conditioned(m: &CMat) -> bool {
    let c = m.condition_number();
    c.is_finite() && c < 1e6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_residual_small(seed in seeds(), n in 2usize..6) {
        let a = random_mat(seed, n);
        prop_assume!(well_conditioned(&a));
        let mut rng = Rng64::new(seed ^ 0xABCD);
        let x_true = CVec::random(n, &mut rng);
        let b = a.mul_vec(&x_true);
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        prop_assert!((&x - &x_true).norm() < 1e-6 * x_true.norm().max(1.0));
    }

    #[test]
    fn inverse_is_two_sided(seed in seeds(), n in 2usize..6) {
        let a = random_mat(seed, n);
        prop_assume!(well_conditioned(&a));
        let inv = a.inverse().unwrap();
        let i = CMat::identity(n);
        prop_assert!((&a.mul_mat(&inv) - &i).frobenius_norm() < 1e-7);
        prop_assert!((&inv.mul_mat(&a) - &i).frobenius_norm() < 1e-7);
    }

    #[test]
    fn qr_reconstruction_and_orthogonality(seed in seeds(), n in 2usize..6) {
        let a = random_mat(seed, n);
        let qr = Qr::compute(&a).unwrap();
        prop_assert!((&qr.q.mul_mat(&qr.r) - &a).frobenius_norm() < 1e-8);
        let g = qr.q.hermitian().mul_mat(&qr.q);
        prop_assert!((&g - &CMat::identity(n)).frobenius_norm() < 1e-9);
    }

    #[test]
    fn svd_reconstruction(seed in seeds(), n in 2usize..6) {
        let a = random_mat(seed, n);
        let svd = Svd::compute(&a);
        let err = (&svd.reconstruct() - &a).frobenius_norm();
        prop_assert!(err < 1e-8 * a.frobenius_norm().max(1.0));
        // Descending σ.
        for w in svd.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn eig2_satisfies_characteristic_relations(seed in seeds()) {
        let a = random_mat(seed, 2);
        let [(l1, v1), (l2, v2)] = eig2(&a).unwrap();
        prop_assert!((l1 + l2 - a.trace()).abs() < 1e-8);
        prop_assert!((l1 * l2 - a.det().unwrap()).abs() < 1e-8);
        prop_assert!((&a.mul_vec(&v1) - &v1.scale_c(l1)).norm() < 1e-7);
        prop_assert!((&a.mul_vec(&v2) - &v2.scale_c(l2)).norm() < 1e-7);
    }

    #[test]
    fn eigh_of_gram_matrix_nonnegative(seed in seeds(), n in 2usize..6) {
        let b = random_mat(seed, n);
        let a = b.mul_mat(&b.hermitian()); // Hermitian PSD
        let (ls, v) = eigh(&a).unwrap();
        for &l in &ls {
            prop_assert!(l > -1e-8, "PSD eigenvalue {l} negative");
        }
        // A·V ≈ V·diag(λ)
        for (j, &l) in ls.iter().enumerate().take(n) {
            let resid = (&a.mul_vec(&v.col(j)) - &v.col(j).scale(l)).norm();
            prop_assert!(resid < 1e-7 * a.frobenius_norm().max(1.0));
        }
    }

    #[test]
    fn null_space_vectors_annihilate(seed in seeds()) {
        // A random 2×4 matrix has a 2-dimensional null space.
        let mut rng = Rng64::new(seed);
        let a = CMat::random(2, 4, &mut rng);
        let ns = null_space(&a, 1e-9);
        prop_assert_eq!(ns.len(), 2);
        for v in &ns {
            prop_assert!(a.mul_vec(v).norm() < 1e-8);
        }
    }

    #[test]
    fn orthogonal_complement_hits_everything(seed in seeds()) {
        let mut rng = Rng64::new(seed);
        let v1 = CVec::random(3, &mut rng);
        let v2 = CVec::random(3, &mut rng);
        prop_assume!(v1.alignment_with(&v2) < 0.999);
        let u = orthogonal_complement_vector(&[v1.clone(), v2.clone()], 3).unwrap();
        prop_assert!(v1.dot(&u).abs() < 1e-8);
        prop_assert!(v2.dot(&u).abs() < 1e-8);
    }

    #[test]
    fn orthonormal_basis_spans_inputs(seed in seeds(), k in 1usize..4) {
        let mut rng = Rng64::new(seed);
        let vs: Vec<CVec> = (0..k).map(|_| CVec::random(4, &mut rng)).collect();
        let basis = orthonormal_basis(&vs, 1e-9);
        prop_assert_eq!(basis.len(), k); // random vectors: independent a.s.
        // Every input reconstructs from its projections on the basis.
        for v in &vs {
            let mut recon = CVec::zeros(4);
            for b in &basis {
                recon.axpy(b.dot(v), b);
            }
            prop_assert!((&recon - v).norm() < 1e-8 * v.norm().max(1.0));
        }
    }

    #[test]
    fn alignment_measure_bounds(seed in seeds()) {
        let mut rng = Rng64::new(seed);
        let a = CVec::random(3, &mut rng);
        let b = CVec::random(3, &mut rng);
        let al = a.alignment_with(&b);
        prop_assert!((0.0..=1.0).contains(&al));
        // Invariance under complex scaling of either argument.
        let rotated = b.scale_c(C64::cis(2.1)).scale(3.7);
        prop_assert!((a.alignment_with(&rotated) - al).abs() < 1e-9);
    }

    #[test]
    fn det_product_rule(seed in seeds(), n in 2usize..5) {
        let a = random_mat(seed, n);
        let b = random_mat(seed.wrapping_add(1), n);
        let dab = a.mul_mat(&b).det().unwrap();
        let dadb = a.det().unwrap() * b.det().unwrap();
        prop_assert!((dab - dadb).abs() < 1e-6 * dadb.abs().max(1.0));
    }

    #[test]
    fn rng_below_bounds(seed in seeds(), n in 1u64..1000) {
        let mut rng = Rng64::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }
}

// ---- `_into` kernels must be bit-identical to their allocating forms,
// even when handed dirty, wrongly-shaped reuse buffers ----

fn mat_bits(m: &CMat) -> (usize, usize, Vec<(u64, u64)>) {
    let bits = m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect();
    (m.rows(), m.cols(), bits)
}

fn vec_bits(v: &CVec) -> Vec<(u64, u64)> {
    v.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// A dirty matrix buffer of an unrelated shape.
fn dirty_mat(rng: &mut Rng64) -> CMat {
    let rows = 1 + rng.below(7) as usize;
    let cols = 1 + rng.below(7) as usize;
    CMat::random(rows, cols, rng)
}

/// A dirty vector buffer of an unrelated length.
fn dirty_vec(rng: &mut Rng64) -> CVec {
    let n = rng.below(7) as usize;
    CVec::random(n, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mul_mat_into_bit_identical(seed in seeds(), n in 1usize..6, k in 1usize..6, m in 1usize..6) {
        let mut rng = Rng64::new(seed);
        let a = CMat::random(n, k, &mut rng);
        let b = CMat::random(k, m, &mut rng);
        let mut out = dirty_mat(&mut rng);
        a.mul_mat_into(&b, &mut out);
        prop_assert_eq!(mat_bits(&out), mat_bits(&a.mul_mat(&b)));
    }

    #[test]
    fn hermitian_sub_col_into_bit_identical(seed in seeds(), n in 1usize..6, m in 1usize..6) {
        let mut rng = Rng64::new(seed);
        let a = CMat::random(n, m, &mut rng);
        let b = CMat::random(n, m, &mut rng);
        let mut out = dirty_mat(&mut rng);
        a.hermitian_into(&mut out);
        prop_assert_eq!(mat_bits(&out), mat_bits(&a.hermitian()));
        a.sub_into(&b, &mut out);
        prop_assert_eq!(mat_bits(&out), mat_bits(&(&a - &b)));
        let mut col = dirty_vec(&mut rng);
        a.col_into(m - 1, &mut col);
        prop_assert_eq!(vec_bits(&col), vec_bits(&a.col(m - 1)));
    }

    #[test]
    fn inverse_into_bit_identical(seed in seeds(), n in 1usize..6, exp in 0.0f64..14.0) {
        // Well- and ill-conditioned inputs: the second row is pulled toward
        // the first, down to (numerical) singularity.
        let mut rng = Rng64::new(seed);
        let mut a = CMat::random(n, n, &mut rng);
        if n > 1 {
            let eps = 10f64.powf(-exp);
            for c in 0..n {
                a[(1, c)] = a[(0, c)] + a[(1, c)].scale(eps);
            }
        }
        let mut out = dirty_mat(&mut rng);
        let mut lu = Lu::factor(&CMat::random(6, 6, &mut rng)).unwrap();
        let got = a.inverse_into(&mut out, &mut lu);
        match a.inverse() {
            Ok(want) => {
                prop_assert!(got.is_ok());
                prop_assert_eq!(mat_bits(&out), mat_bits(&want));
            }
            Err(e) => prop_assert_eq!(got.unwrap_err(), e),
        }
    }

    #[test]
    fn eigh_into_bit_identical(seed in seeds(), n in 1usize..6) {
        let mut rng = Rng64::new(seed);
        let g = CMat::random(n, n, &mut rng);
        let a = g.mul_mat(&g.hermitian());
        // Dirty scratch: warmed on a different size.
        let mut scratch = EighScratch::default();
        let mut values = vec![7.0; 3];
        let mut vectors = dirty_mat(&mut rng);
        let other = CMat::random(7 - n, 7 - n, &mut rng);
        let other = other.mul_mat(&other.hermitian());
        eigh_into(&other, &mut values, &mut vectors, &mut scratch).unwrap();
        eigh_into(&a, &mut values, &mut vectors, &mut scratch).unwrap();
        let (want_values, want_vectors) = eigh(&a).unwrap();
        let bits: Vec<u64> = values.iter().map(|x| x.to_bits()).collect();
        let want_bits: Vec<u64> = want_values.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(bits, want_bits);
        prop_assert_eq!(mat_bits(&vectors), mat_bits(&want_vectors));
    }

    #[test]
    fn eig2_into_bit_identical(seed in seeds(), defective in any::<bool>()) {
        let mut rng = Rng64::new(seed);
        let a = if defective {
            // λI: every vector is an eigenvector (the A − λI ≈ 0 branch).
            CMat::identity(2).scale_c(rng.cn01())
        } else {
            random_mat(seed, 2)
        };
        let mut out = [
            (rng.cn01(), dirty_vec(&mut rng)),
            (rng.cn01(), dirty_vec(&mut rng)),
        ];
        eig2_into(&a, &mut out).unwrap();
        let want = eig2(&a).unwrap();
        for (got, want) in out.iter().zip(&want) {
            prop_assert_eq!(got.0.re.to_bits(), want.0.re.to_bits());
            prop_assert_eq!(got.0.im.to_bits(), want.0.im.to_bits());
            prop_assert_eq!(vec_bits(&got.1), vec_bits(&want.1));
        }
    }

    #[test]
    fn normalize_and_orth_2d_into_bit_identical(
        seed in seeds(),
        n in 1usize..6,
        tiny in any::<bool>(),
    ) {
        let mut rng = Rng64::new(seed);
        let mut v = CVec::random(n, &mut rng);
        if tiny {
            v = v.scale(1e-301); // below the zero threshold: both must err
        }
        let mut out = dirty_vec(&mut rng);
        match v.normalize() {
            Ok(want) => {
                prop_assert!(v.normalize_into(&mut out).is_ok());
                prop_assert_eq!(vec_bits(&out), vec_bits(&want));
            }
            Err(e) => prop_assert_eq!(v.normalize_into(&mut out).unwrap_err(), e),
        }
        let mut out = dirty_vec(&mut rng);
        match v.orth_2d() {
            Ok(want) => {
                prop_assert!(v.orth_2d_into(&mut out).is_ok());
                prop_assert_eq!(vec_bits(&out), vec_bits(&want));
            }
            Err(e) => prop_assert_eq!(v.orth_2d_into(&mut out).unwrap_err(), e),
        }
    }
}
