//! 0/1 knapsack as penalized pseudo-Boolean minimization: pick a subset
//! of items (bit `i` = item `i` packed) maximizing total value subject
//! to a weight capacity. Infeasible selections are admitted but charged
//! a linear penalty, the standard way to hand constrained problems to
//! an unconstrained binary local search:
//!
//! `f(s) = −Σ value_i·s_i + penalty · max(0, Σ weight_i·s_i − capacity)`
//!
//! With `penalty > max_i(value_i / weight_i)` every optimal solution of
//! the penalized problem is feasible, so the encodings agree. A
//! dynamic-programming exact solver is included for cross-checks.

use lnls_core::{BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::FlipMove;
use rand::Rng;

/// A 0/1 knapsack instance with a linear overweight penalty.
#[derive(Clone, Debug)]
pub struct Knapsack {
    values: Vec<i64>,
    weights: Vec<i64>,
    capacity: i64,
    penalty: i64,
}

impl Knapsack {
    /// Build from parallel `values` / `weights` arrays.
    ///
    /// The penalty rate is set to `max(value_i) + 1`. With that rate,
    /// while a selection is overweight, dropping *any* packed item
    /// strictly improves fitness (it removes at least one unit of
    /// overweight, worth more than any single item's value), so every
    /// penalized optimum is feasible and coincides with the constrained
    /// optimum. A rate based on value/weight ratios — the tempting
    /// cheaper choice — is *not* sufficient: an item barely exceeding
    /// the capacity can then beat the empty knapsack.
    ///
    /// # Panics
    /// Panics on length mismatch, non-positive weights or values, or a
    /// negative capacity.
    pub fn new(values: Vec<i64>, weights: Vec<i64>, capacity: i64) -> Self {
        assert_eq!(values.len(), weights.len(), "values/weights length mismatch");
        assert!(capacity >= 0, "negative capacity");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        assert!(values.iter().all(|&v| v > 0), "values must be positive");
        let penalty = values.iter().copied().max().unwrap_or(0) + 1;
        Self { values, weights, capacity, penalty }
    }

    /// Random instance: `n` items, weights in `[1, wmax]`, values
    /// correlated with weights (`value = weight + U[1, spread]`), the
    /// classic "weakly correlated" generator; capacity is half the total
    /// weight (the hardest regime).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, wmax: i64, spread: i64) -> Self {
        let weights: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=wmax)).collect();
        let values: Vec<i64> = weights.iter().map(|&w| w + rng.gen_range(1..=spread)).collect();
        let capacity = weights.iter().sum::<i64>() / 2;
        Self::new(values, weights, capacity)
    }

    /// The penalty rate in use.
    pub fn penalty_rate(&self) -> i64 {
        self.penalty
    }

    /// Total weight of a selection.
    pub fn weight_of(&self, s: &BitString) -> i64 {
        (0..self.values.len()).filter(|&i| s.get(i)).map(|i| self.weights[i]).sum()
    }

    /// Total value of a selection (ignoring feasibility).
    pub fn value_of(&self, s: &BitString) -> i64 {
        (0..self.values.len()).filter(|&i| s.get(i)).map(|i| self.values[i]).sum()
    }

    /// True if the selection fits in the capacity.
    pub fn feasible(&self, s: &BitString) -> bool {
        self.weight_of(s) <= self.capacity
    }

    /// Exact optimum value by dynamic programming over capacity —
    /// O(n·capacity); use on small instances for verification.
    pub fn optimum_value(&self) -> i64 {
        let cap = self.capacity as usize;
        let mut dp = vec![0i64; cap + 1];
        for (i, &w) in self.weights.iter().enumerate() {
            let w = w as usize;
            if w > cap {
                continue;
            }
            for c in (w..=cap).rev() {
                dp[c] = dp[c].max(dp[c - w] + self.values[i]);
            }
        }
        dp[cap]
    }
}

/// Persisted as the parallel value/weight arrays plus the capacity —
/// the penalty rate is a pure function of the values, so `new` rebuilds
/// it identically. Needed so knapsack fleet jobs (LNS repair included)
/// survive checkpoint/restore.
impl lnls_core::Persist for Knapsack {
    fn write(&self, out: &mut Vec<u8>) {
        self.values.write(out);
        self.weights.write(out);
        lnls_core::Persist::write(&self.capacity, out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let values: Vec<i64> = r.read()?;
        let weights: Vec<i64> = r.read()?;
        let capacity: i64 = r.read()?;
        // `Knapsack::new` asserts its invariants; corrupt input must
        // error instead, so re-check them first.
        if values.len() != weights.len() {
            return Err(lnls_core::PersistError::new(format!(
                "knapsack arrays disagree: {} values vs {} weights",
                values.len(),
                weights.len()
            )));
        }
        if values.len() > 1 << 24 {
            return Err(lnls_core::PersistError::new(format!(
                "implausible knapsack size {}",
                values.len()
            )));
        }
        if capacity < 0 {
            return Err(lnls_core::PersistError::new(format!(
                "negative knapsack capacity {capacity}"
            )));
        }
        if values.iter().any(|&v| v <= 0) || weights.iter().any(|&w| w <= 0) {
            return Err(lnls_core::PersistError::new(
                "knapsack values and weights must be positive",
            ));
        }
        Ok(Knapsack::new(values, weights, capacity))
    }
}

impl lnls_core::PersistTag for Knapsack {
    const TAG: &'static str = "knapsack";
}

/// Incremental state: running total value and weight.
#[derive(Clone, Debug)]
pub struct KnapsackState {
    value: i64,
    weight: i64,
}

impl Knapsack {
    #[inline]
    fn fitness_of(&self, value: i64, weight: i64) -> i64 {
        -value + self.penalty * (weight - self.capacity).max(0)
    }
}

impl BinaryProblem for Knapsack {
    fn dim(&self) -> usize {
        self.values.len()
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        self.fitness_of(self.value_of(s), self.weight_of(s))
    }

    fn name(&self) -> String {
        format!("knapsack-{}c{}", self.values.len(), self.capacity)
    }

    fn target_fitness(&self) -> Option<i64> {
        None // optimum unknown in general; searches run to budget
    }
}

impl IncrementalEval for Knapsack {
    type State = KnapsackState;

    fn init_state(&self, s: &BitString) -> KnapsackState {
        KnapsackState { value: self.value_of(s), weight: self.weight_of(s) }
    }

    fn state_fitness(&self, state: &KnapsackState) -> i64 {
        self.fitness_of(state.value, state.weight)
    }

    #[inline]
    fn neighbor_fitness(&self, state: &mut KnapsackState, s: &BitString, mv: &FlipMove) -> i64 {
        let mut value = state.value;
        let mut weight = state.weight;
        for &b in mv.bits() {
            let i = b as usize;
            if s.get(i) {
                value -= self.values[i];
                weight -= self.weights[i];
            } else {
                value += self.values[i];
                weight += self.weights[i];
            }
        }
        self.fitness_of(value, weight)
    }

    fn apply_move(&self, state: &mut KnapsackState, s: &BitString, mv: &FlipMove) {
        for &b in mv.bits() {
            let i = b as usize;
            if s.get(i) {
                state.value -= self.values[i];
                state.weight -= self.weights[i];
            } else {
                state.value += self.values[i];
                state.weight += self.weights[i];
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

    fn tiny() -> Knapsack {
        // values 6,10,12; weights 1,2,3; capacity 5 → optimum 22 (items 1,2)
        Knapsack::new(vec![6, 10, 12], vec![1, 2, 3], 5)
    }

    #[test]
    fn hand_checked_fitness() {
        let k = tiny();
        let none = BitString::zeros(3);
        assert_eq!(k.evaluate(&none), 0);
        let all = BitString::from_bits(&[true, true, true]);
        // weight 6 > 5 → penalized; value 28, overweight 1
        assert_eq!(k.evaluate(&all), -28 + k.penalty_rate());
        assert!(!k.feasible(&all));
        let best = BitString::from_bits(&[false, true, true]);
        assert_eq!(k.evaluate(&best), -22);
        assert!(k.feasible(&best));
    }

    #[test]
    fn dp_optimum_on_tiny() {
        assert_eq!(tiny().optimum_value(), 22);
    }

    #[test]
    fn penalty_dominates_any_density() {
        // With the automatic penalty, removing an overweight item never
        // increases fitness: check exhaustively on a small instance.
        let mut rng = StdRng::seed_from_u64(3);
        let k = Knapsack::random(&mut rng, 10, 9, 5);
        for mask in 0u32..(1 << 10) {
            let bits: Vec<bool> = (0..10).map(|i| (mask >> i) & 1 == 1).collect();
            let s = BitString::from_bits(&bits);
            if k.feasible(&s) {
                continue;
            }
            // dropping any packed item must not worsen fitness
            let f = k.evaluate(&s);
            for i in 0..10 {
                if s.get(i) {
                    let mut s2 = s.clone();
                    s2.apply(&FlipMove::one(i as u32));
                    assert!(k.evaluate(&s2) <= f, "dropping item {i} worsened fitness");
                }
            }
        }
    }

    #[test]
    fn delta_matches_full_eval_exhaustively() {
        let mut rng = StdRng::seed_from_u64(4);
        let k = Knapsack::random(&mut rng, 14, 12, 6);
        let s = BitString::random(&mut rng, 14);
        let mut st = k.init_state(&s);
        assert_eq!(k.state_fitness(&st), k.evaluate(&s));
        for kk in 1..=4usize {
            for (_, mv) in LexMoves::new(14, kk) {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(k.neighbor_fitness(&mut st, &s, &mv), k.evaluate(&s2));
            }
        }
    }

    #[test]
    fn search_reaches_dp_optimum() {
        // A live instance of the paper's thesis: on this seed the
        // 2-Hamming tabu plateaus at fitness −95 for thousands of
        // iterations, while the 3-Hamming neighborhood reaches the DP
        // optimum (−104) within ten.
        use lnls_core::{SearchConfig, SequentialExplorer, TabuSearch};
        let mut rng = StdRng::seed_from_u64(5);
        let k = Knapsack::random(&mut rng, 16, 10, 8);
        let opt = k.optimum_value();
        let hood = KHamming::new(16, 3);
        let mut ex = SequentialExplorer::new(hood);
        let search =
            TabuSearch::paper(SearchConfig::budget(500).with_target(Some(-opt)), hood.size());
        let r = search.run(&k, &mut ex, BitString::zeros(16));
        assert_eq!(r.best_fitness, -opt, "3-Hamming tabu should reach the DP optimum");
        assert!(k.feasible(&r.best), "penalized optimum must be feasible");
    }

    #[test]
    fn random_walk_keeps_state_consistent() {
        let mut rng = StdRng::seed_from_u64(6);
        let k = Knapsack::random(&mut rng, 20, 8, 4);
        let mut s = BitString::random(&mut rng, 20);
        let mut st = k.init_state(&s);
        let hood = KHamming::new(20, 2);
        for _ in 0..100 {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            let predicted = k.neighbor_fitness(&mut st, &s, &mv);
            k.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            assert_eq!(k.state_fitness(&st), predicted);
            assert_eq!(k.state_fitness(&st), k.evaluate(&s));
        }
    }

    #[test]
    fn persist_roundtrip_preserves_semantics() {
        use lnls_core::{Persist, Reader};
        let mut rng = StdRng::seed_from_u64(9);
        let k = Knapsack::random(&mut rng, 18, 10, 6);
        let back: Knapsack = Reader::new(&k.to_bytes()).read().expect("decode");
        assert_eq!(back.dim(), k.dim());
        assert_eq!(back.penalty_rate(), k.penalty_rate());
        for _ in 0..16 {
            let s = BitString::random(&mut rng, 18);
            assert_eq!(back.evaluate(&s), k.evaluate(&s));
        }
        // Corrupt payloads error instead of panicking.
        let mut bad = Vec::new();
        vec![1i64, 2].write(&mut bad);
        vec![1i64].write(&mut bad);
        3i64.write(&mut bad);
        assert!(Reader::new(&bad).read::<Knapsack>().is_err(), "length mismatch must be refused");
        let mut neg = Vec::new();
        vec![1i64].write(&mut neg);
        vec![0i64].write(&mut neg);
        3i64.write(&mut neg);
        assert!(Reader::new(&neg).read::<Knapsack>().is_err(), "zero weight must be refused");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = Knapsack::new(vec![1, 2], vec![1], 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = Knapsack::new(vec![1], vec![0], 3);
    }
}
