//! The row-walk evaluation kernel (`lnls_core::fill_fitness`) against
//! the per-move walk (`Neighborhood::for_each_move_in`): for every
//! incremental-evaluation family, every radius 1..=4, unions of radii
//! and arbitrary `lo..hi` sub-ranges, both give the same fitness vector
//! bit for bit.

use lnls::core::{fill_fitness, BitString, IncrementalEval};
use lnls::neighborhood::{KHamming, Neighborhood, UnionHamming};
use lnls::ppp::{Ppp, PppInstance};
use lnls::problems::{IsingLattice, Knapsack, MaxCut, MaxSat, NkLandscape, OneMax, Qubo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fitness of the neighbors `lo..hi` of `s`, one `for_each_move_in`
/// callback per move.
fn per_move<P: IncrementalEval, N: Neighborhood>(
    p: &P,
    s: &BitString,
    hood: &N,
    lo: u64,
    hi: u64,
) -> Vec<i64> {
    let mut state = p.init_state(s);
    let mut out = Vec::new();
    hood.for_each_move_in(lo, hi, &mut |_, mv| {
        out.push(p.neighbor_fitness(&mut state, s, &mv));
        true
    });
    out
}

/// Row walk vs per-move walk over the full neighborhood and over the
/// sub-range that `a`, `b` pick.
fn agree<P: IncrementalEval, N: Neighborhood>(
    p: &P,
    s: &BitString,
    hood: &N,
    a: u64,
    b: u64,
) -> Result<(), TestCaseError> {
    let m = hood.size();
    let lo = a % m;
    let hi = lo + 1 + b % (m - lo);
    let mut state = p.init_state(s);
    for (lo, hi) in [(0, m), (lo, hi)] {
        let mut rows = vec![0i64; (hi - lo) as usize];
        fill_fitness(hood, p, s, &mut state, lo, &mut rows);
        prop_assert_eq!(rows, per_move(p, s, hood, lo, hi), "{} {}..{}", hood.name(), lo, hi);
    }
    Ok(())
}

/// One case: a random solution, one radius `1 + sel % 4`, and the union
/// of the radii set in bits 2..6 of `sel`.
fn check<P: IncrementalEval>(
    p: &P,
    seed: u64,
    sel: u64,
    a: u64,
    b: u64,
) -> Result<(), TestCaseError> {
    let n = p.dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let s = BitString::random(&mut rng, n);
    let k = (1 + sel as usize % 4).min(n);
    agree(p, &s, &KHamming::new(n, k), a, b)?;
    let radii: Vec<usize> = (1..=4usize.min(n)).filter(|r| (sel >> (1 + r)) & 1 == 1).collect();
    if !radii.is_empty() {
        agree(p, &s, &UnionHamming::new(n, &radii), a, b)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn onemax_rows_match_moves(n in 1usize..24, seed in any::<u64>(), sel in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        check(&OneMax::new(n), seed, sel, a, b)?;
    }

    #[test]
    fn qubo_rows_match_moves(n in 4usize..20, seed in any::<u64>(), sel in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let p = Qubo::random(&mut StdRng::seed_from_u64(seed), n, 10, 0.5);
        check(&p, seed, sel, a, b)?;
    }

    #[test]
    fn maxsat_rows_match_moves(n in 4usize..20, m in 1usize..60, seed in any::<u64>(), sel in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let p = MaxSat::random(&mut StdRng::seed_from_u64(seed), n, m);
        check(&p, seed, sel, a, b)?;
    }

    #[test]
    fn nk_rows_match_moves(n in 6usize..20, k_epi in 0usize..5, seed in any::<u64>(), sel in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let p = NkLandscape::random(&mut StdRng::seed_from_u64(seed), n, k_epi.min(n - 1), 100);
        check(&p, seed, sel, a, b)?;
    }

    #[test]
    fn maxcut_rows_match_moves(n in 4usize..20, seed in any::<u64>(), sel in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let p = MaxCut::random(&mut StdRng::seed_from_u64(seed), n, 0.4, 9);
        check(&p, seed, sel, a, b)?;
    }

    #[test]
    fn knapsack_rows_match_moves(n in 4usize..20, seed in any::<u64>(), sel in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let p = Knapsack::random(&mut StdRng::seed_from_u64(seed), n, 12, 6);
        check(&p, seed, sel, a, b)?;
    }

    #[test]
    fn ising_rows_match_moves(l in 2usize..5, hmax in 0i64..3, seed in any::<u64>(), sel in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let p = IsingLattice::random_pm(&mut StdRng::seed_from_u64(seed), l, hmax);
        check(&p, seed, sel, a, b)?;
    }

    #[test]
    fn ppp_rows_match_moves(m in 5usize..24, n in 5usize..20, seed in any::<u64>(), sel in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let p = Ppp::new(PppInstance::generate(m, n, seed));
        check(&p, seed, sel, a, b)?;
    }
}
