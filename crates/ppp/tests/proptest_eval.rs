//! Property-based tests of the PPP objective and incremental state: the
//! invariant every experiment rests on is `neighbor_fitness(s, mv) ==
//! evaluate(s ⊕ mv)` for *all* moves and all reachable states.

use lnls_core::{BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::{FlipMove, KHamming, Neighborhood};
use lnls_ppp::objective::full_fitness;
use lnls_ppp::{Ppp, PppInstance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_move(n: usize) -> impl Strategy<Value = FlipMove> {
    (1usize..=4, any::<u64>()).prop_map(move |(k, x)| pick(n, k, x))
}

/// Row counts that cross the packed-column word boundaries: up to three
/// 64-row words, with 64 and 128 themselves drawn often.
fn arb_rows() -> impl Strategy<Value = usize> {
    (0u8..4, 5usize..200).prop_map(|(which, m)| match which {
        0 => 64,
        1 => 128,
        _ => m,
    })
}

/// `None` (a random start) or `Some(flips)` (near the secret), evenly.
fn arb_near() -> impl Strategy<Value = Option<usize>> {
    (0usize..8).prop_map(|x| (x < 4).then_some(x))
}

/// A starting state: uniformly random (`near == None`), or the planted
/// secret with `near` bits flipped, where most `Y` are non-negative and
/// the histogram term dominates the fitness.
fn start(inst: &PppInstance, seed: u64, near: Option<usize>) -> BitString {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let n = inst.n();
    match near {
        None => BitString::random(&mut rng, n),
        Some(flips) => {
            let mut s = inst.secret.clone().unwrap();
            for _ in 0..flips {
                s.flip(rng.gen_range(0..n));
            }
            s
        }
    }
}

/// The `k`-flip move that `x` picks from `KHamming(n, k)`.
fn pick(n: usize, k: usize, x: u64) -> FlipMove {
    let hood = KHamming::new(n, k);
    hood.unrank(x % hood.size())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Incremental neighbor fitness equals full evaluation.
    #[test]
    fn delta_equals_full(
        m in arb_rows(),
        n in 5usize..90,
        seed in any::<u64>(),
        near in arb_near(),
        mv_seed in any::<u64>(),
    ) {
        let inst = PppInstance::generate(m, n, seed);
        let s = start(&inst, seed, near);
        let p = Ppp::new(inst);
        let mut st = p.init_state(&s);
        let mv = pick(n, (mv_seed % 4 + 1) as usize, mv_seed);
        let mut s2 = s.clone();
        s2.apply(&mv);
        prop_assert_eq!(p.neighbor_fitness(&mut st, &s, &mv), p.evaluate(&s2));
    }

    /// State stays exact across arbitrary committed walks, and after every
    /// committed move `neighbor_fitness` still agrees with full
    /// evaluation for sampled k = 1..=4 moves (a stale `Y` range or a
    /// dirty scratch histogram shows up here, not in `state_fitness`).
    #[test]
    fn state_exact_after_walks(
        m in arb_rows(),
        n in 5usize..70,
        seed in any::<u64>(),
        near in arb_near(),
        moves in prop::collection::vec(any::<u64>(), 1..20),
    ) {
        let inst = PppInstance::generate(m, n, seed);
        let mut s = start(&inst, seed, near);
        let p = Ppp::new(inst);
        let mut st = p.init_state(&s);
        for x in moves {
            let mv = pick(n, (x % 4 + 1) as usize, x);
            p.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            prop_assert_eq!(p.state_fitness(&st), p.evaluate(&s));
            for k in 1..=4 {
                let probe = pick(n, k, x.rotate_left(16 * k as u32));
                let mut s2 = s.clone();
                s2.apply(&probe);
                prop_assert_eq!(p.neighbor_fitness(&mut st, &s, &probe), p.evaluate(&s2));
            }
        }
    }

    /// The planted secret always scores 0 and fitness is non-negative
    /// everywhere.
    #[test]
    fn fitness_nonnegative_and_secret_optimal(
        m in 5usize..50,
        n in 5usize..50,
        seed in any::<u64>(),
        probe in any::<u64>(),
    ) {
        let inst = PppInstance::generate(m, n, seed);
        let secret = inst.secret.clone().unwrap();
        prop_assert_eq!(full_fitness(&inst, &secret), 0);
        let mut rng = StdRng::seed_from_u64(probe);
        let v = BitString::random(&mut rng, n);
        prop_assert!(full_fitness(&inst, &v) >= 0);
    }

    /// Zero fitness is exactly multiset equality (the success criterion).
    #[test]
    fn zero_fitness_iff_solution(mn in 5usize..40, seed in any::<u64>(), flips in 0usize..3) {
        let inst = PppInstance::generate(mn, mn, seed);
        let mut v = inst.secret.clone().unwrap();
        for i in 0..flips {
            v.flip((seed as usize + i * 7) % mn);
        }
        prop_assert_eq!(full_fitness(&inst, &v) == 0, inst.is_solution(&v));
    }

    /// Instance persistence round-trips through the text format.
    #[test]
    fn save_parse_roundtrip(m in 3usize..40, n in 3usize..40, seed in any::<u64>()) {
        let inst = PppInstance::generate(m, n, seed);
        let back = PppInstance::parse(&inst.save_to_string()).unwrap();
        prop_assert_eq!(inst.a, back.a);
        prop_assert_eq!(inst.target_hist, back.target_hist);
        prop_assert_eq!(inst.secret, back.secret);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The GPU kernel agrees with the host evaluator on random instances
    /// — the bit-exactness that lets quality experiments run on either
    /// backend (heavier, fewer cases).
    #[test]
    fn gpu_kernel_equals_host(
        m in 5usize..40,
        n in 8usize..32,
        seed in any::<u64>(),
        k in 1usize..=3,
    ) {
        use lnls_core::{Explorer, SequentialExplorer};
        use lnls_ppp::{GpuExplorerConfig, PppGpuExplorer};
        let inst = PppInstance::generate(m, n, seed);
        let p = Ppp::new(inst);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = BitString::random(&mut rng, n);
        let mut st = p.init_state(&s);
        let mut gpu = PppGpuExplorer::new(&p, k, GpuExplorerConfig::default());
        let mut cpu = SequentialExplorer::new(KHamming::new(n, k));
        let mut out_gpu = Vec::new();
        let mut out_cpu = Vec::new();
        gpu.explore(&p, &s, &mut st, &mut out_gpu);
        Explorer::<Ppp>::explore(&mut cpu, &p, &s, &mut st, &mut out_cpu);
        prop_assert_eq!(out_gpu, out_cpu);
    }

    /// Arbitrary moves applied via `arb_move` keep the scratch clean
    /// (the delta histogram must always return to all-zeros).
    #[test]
    fn scratch_always_clean(mn in 6usize..30, seed in any::<u64>(), mv in arb_move(20)) {
        // n fixed to 20 by arb_move; instance must match.
        let _ = mn;
        let inst = PppInstance::generate(25, 20, seed);
        let p = Ppp::new(inst);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = BitString::random(&mut rng, 20);
        let mut st = p.init_state(&s);
        let f1 = p.neighbor_fitness(&mut st, &s, &mv);
        let f2 = p.neighbor_fitness(&mut st, &s, &mv);
        prop_assert_eq!(f1, f2, "second call differs: dirty scratch");
    }
}
