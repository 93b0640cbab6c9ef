//! Randomized property tests of the linear algebra kernel, driven by the
//! deterministic workspace RNG (seeded loops instead of a shrinking
//! framework: failures print the case index, which is enough to replay).

use fdc_linalg::{ols_projection, Cholesky, Matrix};
use fdc_rng::Rng;

/// A `rows × cols` matrix of uniform values in `[lo, hi)`.
fn random(rng: &mut Rng, rows: usize, cols: usize, lo: f64, hi: f64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for v in m.row_mut(r) {
            *v = rng.f64_range(lo, hi);
        }
    }
    m
}

/// The largest absolute element difference of two equal-shape matrices.
fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    (0..a.rows())
        .flat_map(|r| a.row(r).iter().zip(b.row(r)).map(|(x, y)| (x - y).abs()))
        .fold(0.0, f64::max)
}

/// A random well-conditioned SPD matrix `A = B Bᵀ + n·I`.
fn random_spd(rng: &mut Rng) -> Matrix {
    let n = 2 + rng.usize_below(4);
    let b = random(rng, n, n, -2.0, 2.0);
    let mut a = b.matmul(&b.transpose()).unwrap();
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Cholesky solves SPD systems and inverts them.
#[test]
fn cholesky_solves_spd_systems() {
    let mut rng = Rng::seed_from_u64(0x11a1);
    for case in 0..64 {
        let a = random_spd(&mut rng);
        let n = a.rows();
        let ch = Cholesky::new(&a).expect("SPD by construction");
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let x = ch.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-7, "case {case}: {u} vs {v}");
        }
        let prod = a.matmul(&ch.inverse().unwrap()).unwrap();
        assert!(
            max_abs_diff(&prod, &Matrix::identity(n)) < 1e-8,
            "case {case}"
        );
    }
}

/// OLS projection of a summing matrix is idempotent, symmetric and
/// fixes coherent vectors.
#[test]
fn projection_properties() {
    for leaves in 2usize..5 {
        // Hierarchy: total + each leaf.
        let mut s = Matrix::zeros(leaves + 1, leaves);
        for j in 0..leaves {
            s[(0, j)] = 1.0;
            s[(j + 1, j)] = 1.0;
        }
        let p = ols_projection(&s).unwrap();
        let pp = p.matmul(&p).unwrap();
        assert!(max_abs_diff(&pp, &p) < 1e-9);
        assert!(max_abs_diff(&p, &p.transpose()) < 1e-9);
        // Coherent vector: total = Σ leaves.
        let mut y = vec![0.0; leaves + 1];
        for j in 1..=leaves {
            y[j] = j as f64;
            y[0] += j as f64;
        }
        let py = p.matvec(&y).unwrap();
        for (u, v) in py.iter().zip(&y) {
            assert!((u - v).abs() < 1e-9);
        }
    }
}

/// Matrix transpose is an involution and matmul is associative on
/// small random matrices.
#[test]
fn matrix_algebra_laws() {
    let mut rng = Rng::seed_from_u64(0x11a4);
    for case in 0..64 {
        let a = random(&mut rng, 2, 3, -3.0, 3.0);
        let b = random(&mut rng, 3, 2, -3.0, 3.0);
        let c = random(&mut rng, 2, 2, -3.0, 3.0);
        assert_eq!(a.transpose().transpose(), a.clone());
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(max_abs_diff(&left, &right) < 1e-9, "case {case}");
        // (AB)ᵀ = BᵀAᵀ
        let abt = a.matmul(&b).unwrap().transpose();
        let btat = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(max_abs_diff(&abt, &btat) < 1e-9, "case {case}");
    }
}
