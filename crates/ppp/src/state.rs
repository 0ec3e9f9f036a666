//! The PPP as an [`IncrementalEval`] problem: `O(m·k + n)` neighbor
//! evaluation instead of `O(m·n)` full re-evaluation, with no
//! data-dependent branch per row.
//!
//! The state tracks the product vector `Y`, the candidate histogram `H'`
//! (non-negative bins), both cost terms, and the range `ymin..=ymax` of
//! `Y`. A `k`-flip changes row `j` by `ΔY_j = Σ_c 4·(a_jc ⊕ v_c) − 2k`,
//! and a neighbor is evaluated in two passes:
//!
//! 1. **Rows.** Per packed column word, the `k` xor-adjusted column words
//!    are formed once. For `k = 2` only the rows with `ΔY = ±4` change:
//!    `d0 & d1` holds the `+4` rows and `!d0 & !d1` the `−4` rows, each
//!    walked by a `trailing_zeros` set-bit loop. Other `k` walk every
//!    row. A changed row adds `max(0, −2·new) − max(0, −2·old)` to the
//!    negativity cost and moves one count from `delta[old]` to
//!    `delta[new]`, unconditionally: the scratch `delta` spans the values
//!    `−n−8..=n+8`, so a negative `Y` needs no test.
//! 2. **Histogram.** The histogram-cost change is summed over every bin
//!    `max(0, ymin−2k)..=min(n, ymax+2k)` a move can reach, changed or
//!    not, and one `fill(0)` clears the window.
//!
//! [`apply_move`](IncrementalEval::apply_move) runs the same two passes,
//! writing `Y` and `H'` as it goes, then re-scans `ymin`/`ymax`.

use crate::instance::PppInstance;
use crate::matrix::EpsilonMatrix;
use crate::objective::{fitness_parts, NEG_WEIGHT};
use lnls_core::{BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::flip::MAX_FLIPS;
use lnls_neighborhood::FlipMove;

/// The PPP wrapped as a minimization problem.
#[derive(Clone, Debug)]
pub struct Ppp {
    /// The instance being attacked.
    pub inst: PppInstance,
}

impl Ppp {
    /// Wrap an instance.
    pub fn new(inst: PppInstance) -> Self {
        Self { inst }
    }
}

impl lnls_core::Persist for Ppp {
    fn write(&self, out: &mut Vec<u8>) {
        // The `.ppp` text format already round-trips instances without a
        // serialization crate; embed it as one length-prefixed string.
        lnls_core::Persist::write(&self.inst.save_to_string(), out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let text: String = r.read()?;
        let inst = PppInstance::parse(&text).map_err(lnls_core::PersistError::new)?;
        Ok(Ppp::new(inst))
    }
}

impl lnls_core::PersistTag for Ppp {
    const TAG: &'static str = "ppp";
}

/// How far past `±n` the scratch `delta` reaches: `|ΔY| ≤ 2k`.
const PAD: i32 = 2 * MAX_FLIPS as i32;

/// Incremental-evaluation state for [`Ppp`].
#[derive(Clone, Debug)]
pub struct PppState {
    /// Product vector `Y = A·x`.
    pub y: Vec<i32>,
    /// Histogram of non-negative `Y` values (`0..=n`).
    pub hist: Vec<i32>,
    /// `Σ_j (|Y_j| − Y_j)` (un-weighted).
    pub neg_cost: i64,
    /// `Σ_i |H_i − H'_i|`.
    pub hist_cost: i64,
    /// Smallest entry of `y`.
    ymin: i32,
    /// Largest entry of `y`.
    ymax: i32,
    /// Scratch delta-histogram over the values `−n−PAD..=n+PAD`, indexed
    /// `y + n + PAD` (always all-zero between calls).
    delta: Vec<i32>,
}

impl PppState {
    /// The two cost terms combined, the paper's `f(V')`.
    #[inline]
    pub fn fitness(&self) -> i64 {
        NEG_WEIGHT * self.neg_cost + self.hist_cost
    }

    /// Pass 1 for `mv`: moves one `delta` count per changed row and
    /// returns the negativity-cost change. With `COMMIT` it also writes
    /// the new `Y`.
    #[inline(always)]
    fn walk_rows<const COMMIT: bool>(
        &mut self,
        a: &EpsilonMatrix,
        s: &BitString,
        mv: &FlipMove,
    ) -> i64 {
        match mv.k() {
            1 => self.walk_every_row::<1, COMMIT>(a, s, mv),
            2 => self.walk_changed_pairs::<COMMIT>(a, s, mv),
            3 => self.walk_every_row::<3, COMMIT>(a, s, mv),
            4 => self.walk_every_row::<4, COMMIT>(a, s, mv),
            k => unreachable!("moves flip at most {MAX_FLIPS} bits, got k={k}"),
        }
    }

    /// [`walk_rows`](Self::walk_rows) for `k = 2`: only the rows where
    /// both xor-adjusted column bits are set (`ΔY = +4`) or both clear
    /// (`ΔY = −4`) change, and each set is walked bit by bit.
    #[inline(always)]
    fn walk_changed_pairs<const COMMIT: bool>(
        &mut self,
        a: &EpsilonMatrix,
        s: &BitString,
        mv: &FlipMove,
    ) -> i64 {
        let [(col0, inv0), (col1, inv1)] = flip_cols(a, s, mv);
        let (m, off) = (a.m(), a.n() as i32 + PAD);
        let Self { y, delta, .. } = self;
        let mut neg_d = 0i64;
        for (w, (&c0, &c1)) in col0.iter().zip(col1).enumerate() {
            let lo = w * 64;
            let valid = u64::MAX >> (64 - (m - lo).min(64));
            let (d0, d1) = (c0 ^ inv0, c1 ^ inv1);
            for (mut rows, dy) in [(d0 & d1 & valid, 4), (!(d0 | d1) & valid, -4)] {
                while rows != 0 {
                    let j = lo + rows.trailing_zeros() as usize;
                    rows &= rows - 1;
                    neg_d += change_row::<COMMIT>(y, delta, off, j, dy);
                }
            }
        }
        neg_d
    }

    /// [`walk_rows`](Self::walk_rows) for `k = K`: every row, with
    /// `ΔY = 4·(set bits) − 2K` (a `ΔY = 0` row moves its count out of
    /// and back into the same bin).
    #[inline(always)]
    fn walk_every_row<const K: usize, const COMMIT: bool>(
        &mut self,
        a: &EpsilonMatrix,
        s: &BitString,
        mv: &FlipMove,
    ) -> i64 {
        let cols = flip_cols::<K>(a, s, mv);
        let (m, off) = (a.m(), a.n() as i32 + PAD);
        let base = -2 * K as i32;
        let Self { y, delta, .. } = self;
        let mut neg_d = 0i64;
        for w in 0..a.words_per_col() {
            let lo = w * 64;
            let words = cols.map(|(col, inv)| col[w] ^ inv);
            for j in lo..m.min(lo + 64) {
                let r = j - lo;
                let set: u64 = words.iter().map(|word| (word >> r) & 1).sum();
                neg_d += change_row::<COMMIT>(y, delta, off, j, 4 * set as i32 + base);
            }
        }
        neg_d
    }

    /// Pass 2 for a `k`-flip: the histogram-cost change over every bin the
    /// move can reach, then clears the `delta` window. With `COMMIT` it
    /// also adds the counts to `hist`.
    #[inline(always)]
    fn sweep_hist<const COMMIT: bool>(&mut self, target: &[i32], k: usize) -> i64 {
        let n = self.hist.len() as i32 - 1;
        let (reach, off) = (2 * k as i32, n + PAD);
        let (lo, hi) = ((self.ymin - reach).max(0), (self.ymax + reach).min(n));
        // |Σ| ≤ Σ|delta| ≤ 2m, so the sum fits an `i32` (and vectorizes).
        let mut hist_d = 0i32;
        if lo <= hi {
            let (lo, hi) = (lo as usize, hi as usize);
            let (hist, delta) = (&mut self.hist[lo..=hi], &self.delta[lo + off as usize..]);
            for ((&h, &hp), &d) in target[lo..=hi].iter().zip(&*hist).zip(delta) {
                hist_d += (h - (hp + d)).abs() - (h - hp).abs();
            }
            if COMMIT {
                for (hp, &d) in hist.iter_mut().zip(delta) {
                    *hp += d;
                }
            }
        }
        let window = (self.ymin - reach + off) as usize..=(self.ymax + reach + off) as usize;
        self.delta[window].fill(0);
        hist_d as i64
    }
}

/// The `K` flipped columns of `mv` as packed words, each with the mask
/// that xor-adjusts it so a set bit means `+4` to `ΔY`.
#[inline(always)]
fn flip_cols<'a, const K: usize>(
    a: &'a EpsilonMatrix,
    s: &BitString,
    mv: &FlipMove,
) -> [(&'a [u64], u64); K] {
    let bits = mv.bits();
    std::array::from_fn(|t| {
        let c = bits[t] as usize;
        (a.col_words(c), if s.get(c) { u64::MAX } else { 0 })
    })
}

/// One changed row `j`: moves its `delta` count from the old `Y_j` to
/// `Y_j + dy` and returns its negativity-cost change, without testing
/// either value's sign.
#[inline(always)]
fn change_row<const COMMIT: bool>(
    y: &mut [i32],
    delta: &mut [i32],
    off: i32,
    j: usize,
    dy: i32,
) -> i64 {
    let old = y[j];
    let new = old + dy;
    if COMMIT {
        y[j] = new;
    }
    delta[(old + off) as usize] -= 1;
    delta[(new + off) as usize] += 1;
    ((-2 * new).max(0) - (-2 * old).max(0)) as i64
}

/// `(min, max)` of a non-empty product vector.
fn y_range(y: &[i32]) -> (i32, i32) {
    y.iter().fold((i32::MAX, i32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

impl BinaryProblem for Ppp {
    fn dim(&self) -> usize {
        self.inst.n()
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        crate::objective::full_fitness(&self.inst, s)
    }

    fn name(&self) -> String {
        format!("ppp-{}x{}", self.inst.m(), self.inst.n())
    }

    fn target_fitness(&self) -> Option<i64> {
        Some(0)
    }
}

impl IncrementalEval for Ppp {
    type State = PppState;

    fn init_state(&self, s: &BitString) -> PppState {
        let n = self.inst.n();
        let mut y = Vec::new();
        self.inst.a.product(s, &mut y);
        let mut hist = vec![0i32; n + 1];
        for &yj in &y {
            if yj >= 0 {
                hist[yj as usize] += 1;
            }
        }
        let (neg_cost, hist_cost) = fitness_parts(&self.inst, s);
        let (ymin, ymax) = y_range(&y);
        let delta = vec![0; 2 * (n + PAD as usize) + 1];
        PppState { y, hist, neg_cost, hist_cost, ymin, ymax, delta }
    }

    fn state_fitness(&self, state: &PppState) -> i64 {
        state.fitness()
    }

    #[inline]
    fn neighbor_fitness(&self, state: &mut PppState, s: &BitString, mv: &FlipMove) -> i64 {
        let neg_d = state.walk_rows::<false>(&self.inst.a, s, mv);
        let hist_d = state.sweep_hist::<false>(&self.inst.target_hist, mv.k());
        NEG_WEIGHT * (state.neg_cost + neg_d) + (state.hist_cost + hist_d)
    }

    fn apply_move(&self, state: &mut PppState, s: &BitString, mv: &FlipMove) {
        state.neg_cost += state.walk_rows::<true>(&self.inst.a, s, mv);
        state.hist_cost += state.sweep_hist::<true>(&self.inst.target_hist, mv.k());
        (state.ymin, state.ymax) = y_range(&state.y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_neighborhood::{LexMoves, Neighborhood, ThreeHamming};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_all_moves(m: usize, n: usize, k: usize, seed: u64) {
        let inst = PppInstance::generate(m, n, seed);
        let p = Ppp::new(inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let s = BitString::random(&mut rng, n);
        let mut st = p.init_state(&s);
        assert_eq!(st.fitness(), p.evaluate(&s), "state fitness at init");
        for (_, mv) in LexMoves::new(n, k) {
            let mut s2 = s.clone();
            s2.apply(&mv);
            let expect = p.evaluate(&s2);
            let got = p.neighbor_fitness(&mut st, &s, &mv);
            assert_eq!(got, expect, "m={m} n={n} {mv}");
        }
        // Scratch must be clean afterwards.
        assert!(st.delta.iter().all(|&d| d == 0));
    }

    #[test]
    fn neighbor_fitness_matches_full_eval_k1() {
        check_all_moves(15, 15, 1, 1);
        check_all_moves(21, 33, 1, 2);
    }

    #[test]
    fn neighbor_fitness_matches_full_eval_k2() {
        check_all_moves(15, 15, 2, 3);
        check_all_moves(33, 21, 2, 4);
    }

    #[test]
    fn neighbor_fitness_matches_full_eval_k3() {
        check_all_moves(13, 17, 3, 5);
    }

    #[test]
    fn apply_move_keeps_state_consistent_over_random_walk() {
        let inst = PppInstance::generate(31, 31, 9);
        let p = Ppp::new(inst);
        let mut rng = StdRng::seed_from_u64(10);
        let mut s = BitString::random(&mut rng, 31);
        let mut st = p.init_state(&s);
        let hood = ThreeHamming::new(31);
        for step in 0..200 {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            let predicted = p.neighbor_fitness(&mut st, &s, &mv);
            p.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            assert_eq!(st.fitness(), predicted, "step {step}");
            assert_eq!(st.fitness(), p.evaluate(&s), "step {step} vs full eval");
            // Internal invariants.
            let mut hist = vec![0i32; 32];
            let mut y = Vec::new();
            p.inst.a.product(&s, &mut y);
            assert_eq!(y, st.y, "Y vector at step {step}");
            let range = (*y.iter().min().unwrap(), *y.iter().max().unwrap());
            assert_eq!((st.ymin, st.ymax), range, "Y range at step {step}");
            assert!(st.delta.iter().all(|&d| d == 0), "dirty scratch at step {step}");
            for &yj in &y {
                if yj >= 0 {
                    hist[yj as usize] += 1;
                }
            }
            assert_eq!(hist, st.hist, "histogram at step {step}");
        }
    }

    #[test]
    fn secret_state_is_zero() {
        let inst = PppInstance::generate(73, 73, 77);
        let secret = inst.secret.clone().unwrap();
        let p = Ppp::new(inst);
        let st = p.init_state(&secret);
        assert_eq!(st.fitness(), 0);
        assert_eq!(st.neg_cost, 0);
        assert_eq!(st.hist_cost, 0);
    }
}
