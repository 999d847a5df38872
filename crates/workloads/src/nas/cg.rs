//! CG — conjugate gradient kernel.
//!
//! NPB CG computes an approximation to the smallest eigenvalue of a
//! large sparse symmetric positive-definite matrix via inverse power
//! iteration, whose inner loop is a conjugate-gradient solve. Class C:
//! n = 150 000, 75 power iterations.
//!
//! Each worker genuinely runs CG steps on a scaled-down local SPD system
//! (diagonally dominant sparse matrix in CSR form); communication sizes
//! and per-iteration compute times are charged at class-C scale by
//! [`super::common::NasParams`].

use dgc_simnet::time::SimDuration;

use super::common::{KernelMath, NasParams};

/// Class-C-scaled parameters; each field's comment states its class-C
/// basis.
pub fn class_c() -> NasParams {
    NasParams {
        name: "CG",
        workers: 256,
        iterations: 75,
        exchange: true,
        // ~n/W doubles per all-gather chunk at class C, scaled so the
        // 75-iteration all-gather totals ≈ the paper's 194 GB app traffic.
        chunk_bytes: 37_500,
        compute_per_iter: SimDuration::from_secs(45),
        reply_bytes: 2_048,
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct Csr {
    n: usize,
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
}

impl Csr {
    /// Builds a random sparse symmetric diagonally-dominant matrix of
    /// dimension `n` with about `per_row` off-diagonal entries per row.
    /// Diagonal dominance makes it SPD, so CG converges.
    pub fn random_spd(n: usize, per_row: usize, seed: u64) -> Csr {
        assert!(n > 0);
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        // Symmetric pattern: store (i, j, v) for j < i, mirror later.
        let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for _ in 0..per_row {
                let j = (next() % n as u64) as usize;
                if j == i {
                    continue;
                }
                let v = ((next() % 1000) as f64 / 1000.0) * 0.5 + 0.01;
                let (lo, hi) = (i.min(j), i.max(j));
                entries[hi].push((lo, v));
            }
        }
        // Assemble CSR with both triangles plus a dominant diagonal.
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut row_sums = vec![0.0f64; n];
        for (hi, cols) in entries.iter().enumerate() {
            for (lo, v) in cols {
                rows[hi].push((*lo, *v));
                rows[*lo].push((hi, *v));
                row_sums[hi] += v;
                row_sums[*lo] += v;
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        let mut val = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            rows[i].push((i, row_sums[i] + 1.0)); // dominant diagonal
            rows[i].sort_by_key(|(j, _)| *j);
            for (j, v) in &rows[i] {
                col.push(*j);
                val.push(*v);
            }
            row_ptr.push(col.len());
        }
        Csr {
            n,
            row_ptr,
            col,
            val,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `y = A·x`.
    #[allow(clippy::needless_range_loop)]
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for i in 0..self.n {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.val[k] * x[self.col[k]];
            }
            y[i] = acc;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The per-worker CG state: solves `A·x = b` incrementally, one CG step
/// per NAS iteration.
pub struct CgMath {
    a: Csr,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    rho: f64,
}

impl CgMath {
    /// Builds the local system for worker `index` (distinct seeds give
    /// distinct matrices, like NPB's per-rank matrix blocks).
    pub fn new(n: usize, per_row: usize, index: u32) -> Self {
        let a = Csr::random_spd(n, per_row, 0x9E37_79B9 ^ (index as u64) << 8);
        let b = vec![1.0; n];
        let x = vec![0.0; n];
        let r = b; // r = b - A·0
        let p = r.clone();
        let rho = dot(&r, &r);
        CgMath {
            a,
            x,
            r,
            p,
            q: vec![0.0; n],
            rho,
        }
    }

    /// Current residual norm ‖r‖₂.
    pub fn residual(&self) -> f64 {
        dot(&self.r, &self.r).sqrt()
    }
}

impl KernelMath for CgMath {
    fn compute(&mut self, _iteration: u32) -> f64 {
        // One textbook CG step.
        self.a.matvec(&self.p, &mut self.q);
        let pq = dot(&self.p, &self.q);
        if pq.abs() < f64::MIN_POSITIVE || self.rho.abs() < 1e-300 {
            return self.residual();
        }
        let alpha = self.rho / pq;
        for i in 0..self.x.len() {
            self.x[i] += alpha * self.p[i];
            self.r[i] -= alpha * self.q[i];
        }
        let rho_new = dot(&self.r, &self.r);
        let beta = rho_new / self.rho;
        self.rho = rho_new;
        for i in 0..self.p.len() {
            self.p[i] = self.r[i] + beta * self.p[i];
        }
        self.residual()
    }

    fn checksum(&self) -> f64 {
        self.x.iter().sum()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn csr_matvec_matches_dense() {
        let a = Csr::random_spd(16, 3, 42);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 + 1.0) / 16.0).collect();
        let mut y = vec![0.0; 16];
        a.matvec(&x, &mut y);
        // Rebuild densely and compare.
        let mut dense = vec![vec![0.0f64; 16]; 16];
        for i in 0..16 {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                // duplicate (i, j) entries are legal in this CSR; they sum
                dense[i][a.col[k]] += a.val[k];
            }
        }
        for i in 0..16 {
            let expect: f64 = (0..16).map(|j| dense[i][j] * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let a = Csr::random_spd(24, 4, 7);
        let mut dense = vec![vec![0.0f64; 24]; 24];
        for i in 0..24 {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                dense[i][a.col[k]] += a.val[k];
            }
        }
        for i in 0..24 {
            for j in 0..24 {
                assert!((dense[i][j] - dense[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cg_converges_on_spd_system() {
        let mut cg = CgMath::new(64, 4, 0);
        let initial = cg.residual();
        for it in 0..60 {
            cg.compute(it);
        }
        assert!(
            cg.residual() < initial * 1e-8,
            "CG must converge on a diagonally dominant SPD system: {} -> {}",
            initial,
            cg.residual()
        );
    }

    #[test]
    fn distinct_workers_get_distinct_matrices() {
        let a = CgMath::new(32, 3, 0);
        let b = CgMath::new(32, 3, 1);
        assert_ne!(a.a.val, b.a.val);
    }

    #[test]
    fn class_c_matches_paper_structure() {
        let p = class_c();
        assert_eq!(p.workers, 256);
        assert_eq!(p.iterations, 75);
        assert!(p.exchange);
    }
}
