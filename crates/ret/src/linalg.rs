//! Minimal dense linear algebra for phase-type computations.
//!
//! Networks have at most a few dozen states, so a simple row-major `Vec<f64>`
//! matrix with uniformization-based matrix-exponential action is plenty and
//! keeps the crate dependency-free.

/// Row-major dense square matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    pub(crate) fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    pub(crate) fn add_to(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
    }

    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (i, out) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            *out = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Row sums (useful for exit-rate vectors of sub-generators).
    pub(crate) fn row_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| self.data[i * self.n..(i + 1) * self.n].iter().sum())
            .collect()
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is numerically singular or `b.len() != n`.
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let (pivot_row, pivot_val) = (col..n)
                .map(|r| (r, a[r * n + col].abs()))
                .max_by(|l, r| l.1.total_cmp(&r.1))
                .expect("non-empty column");
            assert!(pivot_val > 1e-300, "matrix is singular");
            if pivot_row != col {
                for j in 0..n {
                    a.swap(pivot_row * n + j, col * n + j);
                }
                x.swap(pivot_row, col);
            }
            let inv = 1.0 / a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] * inv;
                // Exact-zero test (`float_cmp` exempts comparisons with
                // zero): it only skips row updates that would be
                // arithmetic no-ops.
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= f * a[col * n + j];
                }
                x[r] -= f * x[col];
            }
        }
        for col in (0..n).rev() {
            x[col] /= a[col * n + col];
            for r in 0..col {
                x[r] -= a[r * n + col] * x[col];
            }
        }
        x
    }

    /// Computes `exp(A t) · v` by uniformization.
    ///
    /// Valid for generator-like matrices (non-negative off-diagonals). Picks
    /// `q ≥ max |A_ii|`, forms the stochastic-ish `P = I + A/q` and sums the
    /// Poisson-weighted series until the truncated tail is below `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != n` or `t` is negative.
    pub(crate) fn expm_action(&self, t: f64, v: &[f64], tol: f64) -> Vec<f64> {
        assert_eq!(v.len(), self.n);
        assert!(t >= 0.0, "time must be non-negative");
        let q = (0..self.n)
            .map(|i| self.get(i, i).abs())
            .fold(0.0_f64, f64::max)
            .max(1e-12);
        let qt = q * t;
        if qt <= 0.0 {
            return v.to_vec();
        }
        // P = I + A/q
        let mut p = self.clone();
        for k in 0..self.n * self.n {
            p.data[k] /= q;
        }
        for i in 0..self.n {
            p.add_to(i, i, 1.0);
        }
        let mut term = v.to_vec(); // P^k v
        let mut result = vec![0.0; self.n];
        // Poisson(qt) weights, accumulated until coverage ≥ 1 - tol.
        let mut weight = (-qt).exp();
        let mut covered = 0.0;
        let max_terms = ((qt + 8.0 * qt.sqrt() + 32.0).ceil() as usize).max(16);
        for k in 0..=max_terms {
            if k > 0 {
                weight *= qt / k as f64;
                term = p.matvec(&term);
            }
            for (r, x) in result.iter_mut().zip(&term) {
                *r += weight * x;
            }
            covered += weight;
            if 1.0 - covered < tol {
                break;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let mut a = Matrix::zeros(3);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        assert_eq!(a.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn expm_scalar_decay() {
        // 1x1 generator [-λ]: exp(At)·1 = e^{-λt}.
        let mut a = Matrix::zeros(1);
        a.set(0, 0, -2.0);
        let r = a.expm_action(0.7, &[1.0], 1e-12);
        assert!((r[0] - (-1.4_f64).exp()).abs() < 1e-10);
    }

    #[test]
    fn expm_two_state_chain() {
        // State 0 -> state 1 at rate a; state 1 absorbs at rate b.
        // Survival in transient states: closed form for hypoexponential.
        let (a, b) = (3.0, 1.5);
        let mut s = Matrix::zeros(2);
        s.set(0, 0, -a);
        s.set(0, 1, a);
        s.set(1, 1, -b);
        let t = 0.9;
        let r = s.expm_action(t, &[1.0, 1.0], 1e-13);
        // From state 0 the survival is (b e^{-a t} - a e^{-b t})/(b - a).
        let expect0 = (b * (-a * t).exp() - a * (-b * t).exp()) / (b - a);
        let expect1 = (-b * t).exp();
        assert!((r[0] - expect0).abs() < 1e-9, "{} vs {}", r[0], expect0);
        assert!((r[1] - expect1).abs() < 1e-9);
    }

    #[test]
    fn solve_small_system() {
        let mut a = Matrix::zeros(3);
        let rows = [[2.0, 1.0, -1.0], [-3.0, -1.0, 2.0], [-2.0, 1.0, 2.0]];
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                a.set(i, j, *v);
            }
        }
        let x = a.solve(&[8.0, -11.0, -3.0]);
        let expect = [2.0, 3.0, -1.0];
        for (got, want) in x.iter().zip(expect) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn solve_rejects_singular() {
        let mut a = Matrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        a.solve(&[1.0, 2.0]);
    }

    #[test]
    fn row_sums_of_generator_are_exit_rates() {
        let mut s = Matrix::zeros(2);
        s.set(0, 0, -5.0);
        s.set(0, 1, 2.0);
        s.set(1, 1, -1.0);
        let sums = s.row_sums();
        assert_eq!(sums, vec![-3.0, -1.0]); // exit rate = -(row sum)
    }
}
