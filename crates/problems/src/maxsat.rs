//! MAX-3SAT as minimization: count unsatisfied clauses. Incremental
//! evaluation through per-clause satisfied-literal counts and per-variable
//! occurrence lists — the standard WalkSAT bookkeeping, generalized to
//! k-flip moves with a stamp-deduplicated affected-clause scan.

use lnls_core::{BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::FlipMove;
use rand::Rng;

/// A literal: variable index and polarity (`true` = positive, satisfied
/// when the variable bit is 1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Lit {
    /// Variable index.
    pub var: u32,
    /// Polarity.
    pub positive: bool,
}

impl Lit {
    #[inline]
    fn satisfied(&self, s: &BitString) -> bool {
        s.get(self.var as usize) == self.positive
    }
}

/// A MAX-3SAT instance (fixed-width 3-literal clauses).
#[derive(Clone, Debug)]
pub struct MaxSat {
    n: usize,
    clauses: Vec<[Lit; 3]>,
    /// Clause indices touching each variable.
    occ: Vec<Vec<u32>>,
}

impl MaxSat {
    /// Build from explicit clauses.
    ///
    /// # Panics
    /// Panics if a literal references a variable `>= n` or a clause
    /// repeats a variable.
    pub fn new(n: usize, clauses: Vec<[Lit; 3]>) -> Self {
        let mut occ = vec![Vec::new(); n];
        for (ci, clause) in clauses.iter().enumerate() {
            for (t, lit) in clause.iter().enumerate() {
                assert!((lit.var as usize) < n, "literal var out of range");
                for other in &clause[..t] {
                    assert_ne!(other.var, lit.var, "clause {ci} repeats variable {}", lit.var);
                }
                occ[lit.var as usize].push(ci as u32);
            }
        }
        Self { n, clauses, occ }
    }

    /// Uniform random 3-SAT with `m` clauses over `n` variables (distinct
    /// variables per clause, random polarities).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, m: usize) -> Self {
        assert!(n >= 3, "need at least 3 variables");
        let mut clauses = Vec::with_capacity(m);
        for _ in 0..m {
            let mut vars = [0u32; 3];
            let mut picked = 0;
            while picked < 3 {
                let v = rng.gen_range(0..n as u32);
                if !vars[..picked].contains(&v) {
                    vars[picked] = v;
                    picked += 1;
                }
            }
            let clause = [
                Lit { var: vars[0], positive: rng.gen() },
                Lit { var: vars[1], positive: rng.gen() },
                Lit { var: vars[2], positive: rng.gen() },
            ];
            clauses.push(clause);
        }
        Self::new(n, clauses)
    }

    /// Number of clauses.
    pub fn clause_count(&self) -> usize {
        self.clauses.len()
    }

    /// Satisfied-literal count of clause `ci` under `s` with the bits of
    /// `mv` (if any) virtually flipped.
    #[inline]
    fn sat_count(&self, ci: usize, s: &BitString, mv: Option<&FlipMove>) -> u8 {
        let mut c = 0u8;
        for lit in &self.clauses[ci] {
            let mut val = lit.satisfied(s);
            if let Some(mv) = mv {
                if mv.contains(lit.var) {
                    val = !val;
                }
            }
            c += val as u8;
        }
        c
    }
}

/// One clause flattened for persistence: three `(var, polarity)` pairs.
type FlatClause = ((u32, bool), (u32, bool), (u32, bool));

/// Persisted as the variable count plus the clause list (three
/// `(var, polarity)` pairs per clause) — the occurrence lists rebuild
/// deterministically in `new`. Needed so MAX-3SAT fleet jobs survive
/// checkpoint/restore.
impl lnls_core::Persist for MaxSat {
    fn write(&self, out: &mut Vec<u8>) {
        lnls_core::Persist::write(&self.n, out);
        let flat: Vec<FlatClause> = self
            .clauses
            .iter()
            .map(|c| {
                ((c[0].var, c[0].positive), (c[1].var, c[1].positive), (c[2].var, c[2].positive))
            })
            .collect();
        flat.write(out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let n: usize = r.read()?;
        // The occurrence-list allocation is O(n) before any clause check
        // can run: bound the count so a corrupt prefix errors instead of
        // aborting on an absurd allocation.
        if n > 1 << 24 {
            return Err(lnls_core::PersistError::new(format!("implausible max3sat size {n}")));
        }
        let flat: Vec<FlatClause> = r.read()?;
        // `MaxSat::new` asserts its invariants; corrupt input must error
        // instead, so re-check them first.
        let mut clauses = Vec::with_capacity(flat.len());
        for (ci, &((v0, p0), (v1, p1), (v2, p2))) in flat.iter().enumerate() {
            if v0 == v1 || v0 == v2 || v1 == v2 {
                return Err(lnls_core::PersistError::new(format!(
                    "max3sat clause {ci} repeats a variable"
                )));
            }
            if [v0, v1, v2].iter().any(|&v| v as usize >= n) {
                return Err(lnls_core::PersistError::new(format!(
                    "max3sat clause {ci} references a variable >= {n}"
                )));
            }
            clauses.push([
                Lit { var: v0, positive: p0 },
                Lit { var: v1, positive: p1 },
                Lit { var: v2, positive: p2 },
            ]);
        }
        Ok(MaxSat::new(n, clauses))
    }
}

impl lnls_core::PersistTag for MaxSat {
    const TAG: &'static str = "max3sat";
}

/// Incremental state: per-clause satisfied-literal counts, the number of
/// unsatisfied clauses, and a stamp array for deduplicating the clauses a
/// k-flip move touches.
#[derive(Clone, Debug)]
pub struct MaxSatState {
    sat: Vec<u8>,
    unsat: i64,
    stamp: Vec<u32>,
    epoch: u32,
}

impl BinaryProblem for MaxSat {
    fn dim(&self) -> usize {
        self.n
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        self.clauses.iter().filter(|c| c.iter().all(|l| !l.satisfied(s))).count() as i64
    }

    fn name(&self) -> String {
        format!("max3sat-{}v-{}c", self.n, self.clauses.len())
    }

    fn target_fitness(&self) -> Option<i64> {
        Some(0)
    }
}

impl IncrementalEval for MaxSat {
    type State = MaxSatState;

    fn init_state(&self, s: &BitString) -> MaxSatState {
        let sat: Vec<u8> = (0..self.clauses.len()).map(|ci| self.sat_count(ci, s, None)).collect();
        let unsat = sat.iter().filter(|&&c| c == 0).count() as i64;
        MaxSatState { sat, unsat, stamp: vec![0; self.clauses.len()], epoch: 0 }
    }

    fn state_fitness(&self, state: &MaxSatState) -> i64 {
        state.unsat
    }

    #[inline]
    fn neighbor_fitness(&self, state: &mut MaxSatState, s: &BitString, mv: &FlipMove) -> i64 {
        state.epoch = state.epoch.wrapping_add(1);
        let epoch = state.epoch;
        let mut f = state.unsat;
        for &b in mv.bits() {
            for &ci in &self.occ[b as usize] {
                let ci = ci as usize;
                if state.stamp[ci] == epoch {
                    continue; // clause already reprocessed for this move
                }
                state.stamp[ci] = epoch;
                let old_unsat = state.sat[ci] == 0;
                let new_unsat = self.sat_count(ci, s, Some(mv)) == 0;
                f += new_unsat as i64 - old_unsat as i64;
            }
        }
        f
    }

    fn apply_move(&self, state: &mut MaxSatState, s: &BitString, mv: &FlipMove) {
        state.epoch = state.epoch.wrapping_add(1);
        let epoch = state.epoch;
        for &b in mv.bits() {
            for &ci in &self.occ[b as usize] {
                let ci = ci as usize;
                if state.stamp[ci] == epoch {
                    continue;
                }
                state.stamp[ci] = epoch;
                let new = self.sat_count(ci, s, Some(mv));
                let old_unsat = state.sat[ci] == 0;
                state.sat[ci] = new;
                state.unsat += (new == 0) as i64 - old_unsat as i64;
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

    fn lit(var: u32, positive: bool) -> Lit {
        Lit { var, positive }
    }

    #[test]
    fn evaluate_hand_checked() {
        // (x0 ∨ x1 ∨ x2) ∧ (¬x0 ∨ ¬x1 ∨ ¬x2)
        let p = MaxSat::new(
            3,
            vec![
                [lit(0, true), lit(1, true), lit(2, true)],
                [lit(0, false), lit(1, false), lit(2, false)],
            ],
        );
        assert_eq!(p.evaluate(&BitString::from_bits(&[false, false, false])), 1);
        assert_eq!(p.evaluate(&BitString::from_bits(&[true, false, false])), 0);
        assert_eq!(p.evaluate(&BitString::from_bits(&[true, true, true])), 1);
    }

    #[test]
    fn delta_matches_full_eval_exhaustively() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = MaxSat::random(&mut rng, 12, 50);
        let s = BitString::random(&mut rng, 12);
        let mut st = p.init_state(&s);
        for k in 1..=4usize {
            for (_, mv) in LexMoves::new(12, k) {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(p.neighbor_fitness(&mut st, &s, &mv), p.evaluate(&s2), "k={k} {mv}");
            }
        }
    }

    #[test]
    fn random_walk_keeps_state_consistent() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = MaxSat::random(&mut rng, 30, 120);
        let mut s = BitString::random(&mut rng, 30);
        let mut st = p.init_state(&s);
        let hood = KHamming::new(30, 2);
        for _ in 0..200 {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            let predicted = p.neighbor_fitness(&mut st, &s, &mv);
            p.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            assert_eq!(st.unsat, predicted);
            assert_eq!(st.unsat, p.evaluate(&s));
        }
    }

    #[test]
    fn occurrence_lists_cover_all_clauses() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = MaxSat::random(&mut rng, 10, 40);
        let total: usize = p.occ.iter().map(Vec::len).sum();
        assert_eq!(total, 3 * 40);
    }

    #[test]
    fn persist_roundtrip_preserves_semantics() {
        use lnls_core::{Persist, Reader};
        let mut rng = StdRng::seed_from_u64(7);
        let p = MaxSat::random(&mut rng, 16, 70);
        let back: MaxSat = Reader::new(&p.to_bytes()).read().expect("decode");
        assert_eq!(back.dim(), p.dim());
        assert_eq!(back.clause_count(), p.clause_count());
        for _ in 0..16 {
            let s = BitString::random(&mut rng, 16);
            assert_eq!(back.evaluate(&s), p.evaluate(&s));
        }
        // Corrupt payloads error instead of panicking.
        let mut dup = Vec::new();
        3usize.write(&mut dup);
        vec![((0u32, true), (0u32, false), (1u32, true))].write(&mut dup);
        assert!(Reader::new(&dup).read::<MaxSat>().is_err(), "repeated variable must be refused");
        let mut oob = Vec::new();
        3usize.write(&mut oob);
        vec![((0u32, true), (1u32, false), (5u32, true))].write(&mut oob);
        assert!(Reader::new(&oob).read::<MaxSat>().is_err(), "out-of-range var must be refused");
        let mut huge = Vec::new();
        (1usize << 40).write(&mut huge);
        assert!(
            Reader::new(&huge).read::<MaxSat>().is_err(),
            "an absurd variable count must error, not allocate"
        );
    }

    #[test]
    #[should_panic(expected = "repeats variable")]
    fn duplicate_vars_rejected() {
        let _ = MaxSat::new(3, vec![[lit(0, true), lit(0, false), lit(1, true)]]);
    }
}
