//! Edwards–Anderson Ising spin glass on a 2-D torus, the physics
//! workhorse for binary local search. Bit `i` encodes spin
//! `σ_i = 1 − 2·s_i ∈ {+1, −1}` at lattice site `i = row·L + col`;
//! couplings `J` live on the 4-neighbor bonds of an `L×L` torus and the
//! energy to minimize is
//!
//! `E(σ) = − Σ_{<ij>} J_ij σ_i σ_j − Σ_i h_i σ_i`.
//!
//! Single-spin-flip deltas are O(1): `ΔE = 2 σ_i (Σ_j J_ij σ_j + h_i)`,
//! tracked through cached local fields. The ferromagnetic instance
//! (`J ≡ +1, h ≡ 0`) has the known ground state "all spins aligned"
//! with energy `−2L²`, used as a fixture.

use lnls_core::{BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::FlipMove;
use rand::Rng;

/// An `L×L` toroidal Ising spin glass.
#[derive(Clone, Debug)]
pub struct IsingLattice {
    l: usize,
    /// `jr[i]` couples site `i` with its right neighbor `(row, col+1)`.
    jr: Vec<i64>,
    /// `jd[i]` couples site `i` with its down neighbor `(row+1, col)`.
    jd: Vec<i64>,
    /// External field per site.
    h: Vec<i64>,
}

impl IsingLattice {
    /// Build from explicit bond and field arrays (each of length `L²`).
    ///
    /// # Panics
    /// Panics if `l < 2` (the torus would double-count bonds) or the
    /// array lengths disagree with `l²`.
    pub fn new(l: usize, jr: Vec<i64>, jd: Vec<i64>, h: Vec<i64>) -> Self {
        assert!(l >= 2, "torus needs l >= 2");
        let n = l * l;
        assert_eq!(jr.len(), n, "jr length");
        assert_eq!(jd.len(), n, "jd length");
        assert_eq!(h.len(), n, "h length");
        Self { l, jr, jd, h }
    }

    /// The pure ferromagnet: all couplings +1, no field. Ground states
    /// are the two uniform configurations with energy `−2L²`.
    pub fn ferromagnet(l: usize) -> Self {
        let n = l * l;
        Self::new(l, vec![1; n], vec![1; n], vec![0; n])
    }

    /// ±J spin glass: each bond independently ±1 with equal probability,
    /// optional uniform field magnitude `hmax` (0 for the classic EA
    /// model).
    pub fn random_pm<R: Rng + ?Sized>(rng: &mut R, l: usize, hmax: i64) -> Self {
        let n = l * l;
        let pm = |rng: &mut R| if rng.gen::<bool>() { 1 } else { -1 };
        let jr = (0..n).map(|_| pm(rng)).collect();
        let jd = (0..n).map(|_| pm(rng)).collect();
        let h = (0..n).map(|_| if hmax == 0 { 0 } else { rng.gen_range(-hmax..=hmax) }).collect();
        Self::new(l, jr, jd, h)
    }

    /// Lattice side length `L`.
    pub fn side(&self) -> usize {
        self.l
    }

    #[inline]
    fn spin(s: &BitString, i: usize) -> i64 {
        if s.get(i) {
            -1
        } else {
            1
        }
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        (r % self.l) * self.l + (c % self.l)
    }

    /// The four neighbors of site `i` with their bond couplings.
    fn bonds_of(&self, i: usize) -> [(usize, i64); 4] {
        let (r, c) = (i / self.l, i % self.l);
        [
            (self.idx(r, c + 1), self.jr[i]), // right
            (self.idx(r, c + self.l - 1), self.jr[self.idx(r, c + self.l - 1)]), // left
            (self.idx(r + 1, c), self.jd[i]), // down
            (self.idx(r + self.l - 1, c), self.jd[self.idx(r + self.l - 1, c)]), // up
        ]
    }

    /// Net magnetization `Σ σ_i` (a physics observable, handy in tests).
    pub fn magnetization(&self, s: &BitString) -> i64 {
        (0..self.l * self.l).map(|i| Self::spin(s, i)).sum()
    }
}

/// Incremental state: energy plus per-site local fields
/// `φ_i = Σ_j J_ij σ_j + h_i`.
#[derive(Clone, Debug)]
pub struct IsingState {
    energy: i64,
    phi: Vec<i64>,
}

impl BinaryProblem for IsingLattice {
    fn dim(&self) -> usize {
        self.l * self.l
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        let mut e = 0i64;
        let n = self.l * self.l;
        for i in 0..n {
            let si = Self::spin(s, i);
            // Count each bond once via its canonical (right/down) owner.
            let (r, c) = (i / self.l, i % self.l);
            e -= self.jr[i] * si * Self::spin(s, self.idx(r, c + 1));
            e -= self.jd[i] * si * Self::spin(s, self.idx(r + 1, c));
            e -= self.h[i] * si;
        }
        e
    }

    fn name(&self) -> String {
        format!("ising-{}x{}", self.l, self.l)
    }
}

impl IncrementalEval for IsingLattice {
    type State = IsingState;

    fn init_state(&self, s: &BitString) -> IsingState {
        let n = self.l * self.l;
        let mut phi = vec![0i64; n];
        for (i, p) in phi.iter_mut().enumerate() {
            *p = self.h[i]
                + self.bonds_of(i).iter().map(|&(j, jij)| jij * Self::spin(s, j)).sum::<i64>();
        }
        IsingState { energy: self.evaluate(s), phi }
    }

    fn state_fitness(&self, state: &IsingState) -> i64 {
        state.energy
    }

    #[inline]
    fn neighbor_fitness(&self, state: &mut IsingState, s: &BitString, mv: &FlipMove) -> i64 {
        // ΔE for one flip: 2·σ_i·φ_i. For multi-flips, bonds between two
        // flipped sites keep their product, so each such bond's double
        // toggle must be corrected (exactly like Max-Cut's pair term).
        let bits = mv.bits();
        let mut e = state.energy;
        for &bi in bits {
            let i = bi as usize;
            e += 2 * Self::spin(s, i) * state.phi[i];
        }
        for (t, &bi) in bits.iter().enumerate() {
            let i = bi as usize;
            for &bj in &bits[t + 1..] {
                let j = bj as usize;
                for &(nb, jij) in &self.bonds_of(i) {
                    if nb == j {
                        // Both endpoints flip: product σ_iσ_j unchanged,
                        // but both flips charged ±2Jσ_iσ_j. Undo 2×.
                        e -= 4 * jij * Self::spin(s, i) * Self::spin(s, j);
                    }
                }
            }
        }
        e
    }

    fn apply_move(&self, state: &mut IsingState, s: &BitString, mv: &FlipMove) {
        state.energy = self.neighbor_fitness(&mut state.clone(), s, mv);
        for &bi in mv.bits() {
            let i = bi as usize;
            // σ_i flips: neighbors' local fields lose 2J σ_i.
            let si = Self::spin(s, i);
            for &(j, jij) in &self.bonds_of(i) {
                state.phi[j] -= 2 * jij * si;
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
    fn ferromagnet_ground_state_energy() {
        let g = IsingLattice::ferromagnet(4);
        // all spins up (all bits 0): every one of the 2L² bonds is
        // satisfied → E = −2·16 = −32
        assert_eq!(g.evaluate(&BitString::zeros(16)), -32);
        // all spins down is degenerate
        let down = BitString::from_bits(&[true; 16]);
        assert_eq!(g.evaluate(&down), -32);
        assert_eq!(g.magnetization(&BitString::zeros(16)), 16);
        assert_eq!(g.magnetization(&down), -16);
    }

    #[test]
    fn single_flip_from_ground_costs_eight() {
        // Flipping one spin of the 2-D ferromagnet breaks 4 unit bonds:
        // ΔE = 2·4 = 8.
        let g = IsingLattice::ferromagnet(4);
        let s = BitString::zeros(16);
        let mut st = g.init_state(&s);
        let f = g.neighbor_fitness(&mut st, &s, &FlipMove::one(5));
        assert_eq!(f, -32 + 8);
    }

    #[test]
    fn delta_matches_full_eval_exhaustively() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = IsingLattice::random_pm(&mut rng, 4, 2);
        let s = BitString::random(&mut rng, 16);
        let mut st = g.init_state(&s);
        assert_eq!(g.state_fitness(&st), g.evaluate(&s));
        for k in 1..=4usize {
            for (_, mv) in LexMoves::new(16, k) {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(g.neighbor_fitness(&mut st, &s, &mv), g.evaluate(&s2), "k={k} {mv}");
            }
        }
    }

    #[test]
    fn random_walk_keeps_state_consistent() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = IsingLattice::random_pm(&mut rng, 5, 1);
        let mut s = BitString::random(&mut rng, 25);
        let mut st = g.init_state(&s);
        let hood = KHamming::new(25, 3);
        for _ in 0..120 {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            let predicted = g.neighbor_fitness(&mut st, &s, &mv);
            g.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            assert_eq!(st.energy, predicted);
            assert_eq!(st.energy, g.evaluate(&s));
            let fresh = g.init_state(&s);
            assert_eq!(st.phi, fresh.phi, "local fields drifted");
        }
    }

    #[test]
    fn search_finds_ferromagnet_ground_state() {
        use lnls_core::{SearchConfig, SequentialExplorer, TabuSearch};
        let g = IsingLattice::ferromagnet(4);
        let hood = KHamming::new(16, 1);
        let mut ex = SequentialExplorer::new(hood);
        let search =
            TabuSearch::paper(SearchConfig::budget(500).with_target(Some(-32)), hood.size());
        let mut rng = StdRng::seed_from_u64(23);
        let start = BitString::random(&mut rng, 16);
        let r = search.run(&g, &mut ex, start);
        assert_eq!(r.best_fitness, -32);
    }

    #[test]
    #[should_panic(expected = "l >= 2")]
    fn degenerate_torus_rejected() {
        let _ = IsingLattice::new(1, vec![1], vec![1], vec![0]);
    }
}
