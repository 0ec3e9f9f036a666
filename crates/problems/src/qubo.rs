//! Quadratic Unconstrained Binary Optimization: minimize `xᵀQx` over
//! `x ∈ {0,1}ⁿ` with symmetric integer `Q`. The classic testbed for
//! binary local search with O(1) single-flip deltas via cached row sums.

use lnls_core::{BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::FlipMove;
use rand::Rng;

/// A QUBO instance with dense symmetric matrix.
#[derive(Clone, Debug)]
pub struct Qubo {
    n: usize,
    /// Row-major symmetric matrix.
    q: Vec<i64>,
}

impl Qubo {
    /// Build from a full symmetric matrix (row-major, length `n²`).
    ///
    /// # Panics
    /// Panics if the matrix is not square or not symmetric.
    pub fn new(n: usize, q: Vec<i64>) -> Self {
        assert_eq!(q.len(), n * n, "Q must be n×n");
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(q[i * n + j], q[j * n + i], "Q must be symmetric at ({i},{j})");
            }
        }
        Self { n, q }
    }

    /// Random instance: entries uniform in `[-bound, bound]`, density in
    /// `(0, 1]` controls the fraction of nonzero off-diagonal couplings.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, bound: i64, density: f64) -> Self {
        let mut q = vec![0i64; n * n];
        for i in 0..n {
            q[i * n + i] = rng.gen_range(-bound..=bound);
            for j in (i + 1)..n {
                if rng.gen::<f64>() < density {
                    let v = rng.gen_range(-bound..=bound);
                    q[i * n + j] = v;
                    q[j * n + i] = v;
                }
            }
        }
        Self { n, q }
    }

    #[inline]
    fn entry(&self, i: usize, j: usize) -> i64 {
        self.q[i * self.n + j]
    }

    /// The raw row-major matrix (length `n²`), e.g. for device upload.
    pub fn matrix(&self) -> &[i64] {
        &self.q
    }
}

/// Persisted as the dimension plus the dense row-major matrix. Needed
/// so QUBO fleet jobs survive checkpoint/restore.
impl lnls_core::Persist for Qubo {
    fn write(&self, out: &mut Vec<u8>) {
        lnls_core::Persist::write(&self.n, out);
        self.q.write(out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let n: usize = r.read()?;
        // The matrix is n² entries: bound the dimension so a corrupt
        // prefix errors instead of aborting on an absurd allocation.
        if n > 1 << 14 {
            return Err(lnls_core::PersistError::new(format!("implausible qubo size {n}")));
        }
        let q: Vec<i64> = r.read()?;
        // `Qubo::new` asserts its invariants; corrupt input must error
        // instead, so re-check them first.
        if q.len() != n * n {
            return Err(lnls_core::PersistError::new(format!(
                "qubo matrix has {} entries, expected {n}²",
                q.len()
            )));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if q[i * n + j] != q[j * n + i] {
                    return Err(lnls_core::PersistError::new(format!(
                        "qubo matrix asymmetric at ({i},{j})"
                    )));
                }
            }
        }
        Ok(Qubo::new(n, q))
    }
}

impl lnls_core::PersistTag for Qubo {
    const TAG: &'static str = "qubo";
}

impl QuboState {
    /// Current fitness tracked by the state.
    pub fn fitness(&self) -> i64 {
        self.fitness
    }

    /// The cached off-diagonal row sums `r_i = Σ_{j≠i} Q_ij x_j`.
    pub fn row_sums(&self) -> &[i64] {
        &self.r
    }
}

/// Incremental state: fitness plus the off-diagonal row sums
/// `r_i = Σ_{j≠i} Q_ij x_j`, giving single-flip deltas in O(1) and k-flip
/// deltas in O(k²).
#[derive(Clone, Debug)]
pub struct QuboState {
    fitness: i64,
    r: Vec<i64>,
}

impl BinaryProblem for Qubo {
    fn dim(&self) -> usize {
        self.n
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        let mut f = 0i64;
        for i in 0..self.n {
            if !s.get(i) {
                continue;
            }
            f += self.entry(i, i);
            for j in (i + 1)..self.n {
                if s.get(j) {
                    f += 2 * self.entry(i, j);
                }
            }
        }
        f
    }

    fn name(&self) -> String {
        format!("qubo-{}", self.n)
    }
}

impl IncrementalEval for Qubo {
    type State = QuboState;

    fn init_state(&self, s: &BitString) -> QuboState {
        let mut r = vec![0i64; self.n];
        for (i, ri) in r.iter_mut().enumerate() {
            for j in 0..self.n {
                if j != i && s.get(j) {
                    *ri += self.entry(i, j);
                }
            }
        }
        QuboState { fitness: self.evaluate(s), r }
    }

    fn state_fitness(&self, state: &QuboState) -> i64 {
        state.fitness
    }

    #[inline]
    fn neighbor_fitness(&self, state: &mut QuboState, s: &BitString, mv: &FlipMove) -> i64 {
        // Apply the flips sequentially; only the flipped coordinates'
        // effective x and r values change along the way (O(k²)).
        let bits = mv.bits();
        let mut f = state.fitness;
        // x̃ and r̃ views restricted to the move's coordinates.
        let mut flipped = [false; 4];
        for (t, &bt) in bits.iter().enumerate() {
            let i = bt as usize;
            let xi = s.get(i) ^ flipped[t];
            let mut ri = state.r[i];
            for (u, &bu) in bits.iter().enumerate() {
                if u != t && flipped[u] {
                    let j = bu as usize;
                    // j was flipped earlier in the sequence: its x changed
                    // by ±1, shifting r_i by ±Q_ij.
                    let delta = if s.get(j) { -1 } else { 1 };
                    ri += delta * self.entry(i, j);
                }
            }
            let sign = if xi { -1 } else { 1 };
            f += sign * (self.entry(i, i) + 2 * ri);
            flipped[t] = true;
        }
        f
    }

    fn apply_move(&self, state: &mut QuboState, s: &BitString, mv: &FlipMove) {
        state.fitness = self.neighbor_fitness(&mut state.clone(), s, mv);
        // Update row sums for every coordinate.
        for &bt in mv.bits() {
            let j = bt as usize;
            let delta = if s.get(j) { -1 } else { 1 };
            for i in 0..self.n {
                if i != j {
                    state.r[i] += delta * self.entry(i, j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_neighborhood::{KHamming, LexMoves, Neighborhood};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn evaluate_matches_matrix_algebra() {
        // Hand-checked 3-variable instance.
        #[rustfmt::skip]
        let q = Qubo::new(3, vec![
            2, -1, 0,
            -1, 3, 4,
            0, 4, -5,
        ]);
        let x = BitString::from_bits(&[true, false, true]);
        // f = Q00 + Q22 + 2*Q02 = 2 - 5 + 0 = -3
        assert_eq!(q.evaluate(&x), -3);
        let y = BitString::from_bits(&[true, true, true]);
        // all pairs: 2+3-5 + 2*(-1+0+4) = 0 + 6 = 6
        assert_eq!(q.evaluate(&y), 6);
    }

    #[test]
    fn delta_matches_full_eval_exhaustively() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = Qubo::random(&mut rng, 14, 9, 0.6);
        let s = BitString::random(&mut rng, 14);
        let mut st = q.init_state(&s);
        for k in 1..=4usize {
            for (_, mv) in LexMoves::new(14, k) {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(q.neighbor_fitness(&mut st, &s, &mv), q.evaluate(&s2), "k={k} {mv}");
            }
        }
    }

    #[test]
    fn random_walk_keeps_state_consistent() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = Qubo::random(&mut rng, 20, 5, 0.5);
        let mut s = BitString::random(&mut rng, 20);
        let mut st = q.init_state(&s);
        let hood = KHamming::new(20, 3);
        for _ in 0..100 {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            let predicted = q.neighbor_fitness(&mut st, &s, &mv);
            q.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            assert_eq!(st.fitness, predicted);
            assert_eq!(st.fitness, q.evaluate(&s));
        }
    }

    #[test]
    fn brute_force_optimum_found_by_search() {
        use lnls_core::{SearchConfig, SequentialExplorer, TabuSearch};
        let mut rng = StdRng::seed_from_u64(3);
        let q = Qubo::random(&mut rng, 12, 7, 0.7);
        // Brute force all 4096 assignments.
        let mut best = i64::MAX;
        for mask in 0u32..(1 << 12) {
            let bits: Vec<bool> = (0..12).map(|i| (mask >> i) & 1 == 1).collect();
            best = best.min(q.evaluate(&BitString::from_bits(&bits)));
        }
        let hood = KHamming::new(12, 2);
        let mut ex = SequentialExplorer::new(hood);
        let search =
            TabuSearch::paper(SearchConfig::budget(500).with_target(Some(best)), hood.size());
        let r = search.run(&q, &mut ex, BitString::zeros(12));
        assert_eq!(r.best_fitness, best, "tabu must find the global optimum");
    }

    #[test]
    fn persist_roundtrip_preserves_semantics() {
        use lnls_core::{Persist, Reader};
        let mut rng = StdRng::seed_from_u64(8);
        let q = Qubo::random(&mut rng, 15, 7, 0.5);
        let back: Qubo = Reader::new(&q.to_bytes()).read().expect("decode");
        assert_eq!(back.dim(), q.dim());
        assert_eq!(back.matrix(), q.matrix());
        for _ in 0..16 {
            let s = BitString::random(&mut rng, 15);
            assert_eq!(back.evaluate(&s), q.evaluate(&s));
        }
        // Corrupt payloads error instead of panicking.
        let mut asym = Vec::new();
        2usize.write(&mut asym);
        vec![0i64, 1, 2, 0].write(&mut asym);
        assert!(Reader::new(&asym).read::<Qubo>().is_err(), "asymmetry must be refused");
        let mut short = Vec::new();
        3usize.write(&mut short);
        vec![0i64; 4].write(&mut short);
        assert!(Reader::new(&short).read::<Qubo>().is_err(), "wrong length must be refused");
        let mut huge = Vec::new();
        (1usize << 40).write(&mut huge);
        assert!(
            Reader::new(&huge).read::<Qubo>().is_err(),
            "an absurd dimension must error, not allocate"
        );
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_rejected() {
        let _ = Qubo::new(2, vec![0, 1, 2, 0]);
    }
}
