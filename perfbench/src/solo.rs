//! The solo pass: every admitted arrival rebuilt from its recipe and
//! run alone through its family's public `run`, outside the fleet.
//!
//! It prices search without the fleet around it (tabu evaluation and
//! selection apart, via `Explorer::wall`), and it checks that the fleet
//! does not change results: a job that ran to its own budget must reach
//! the solo run's best fitness in the solo run's iteration count.

use crate::spans::Recorder;
use lnls_core::{
    BitString, Explorer, IncrementalEval, SearchConfig, SequentialExplorer, SimulatedAnnealing,
    TabuSearch,
};
use lnls_lns::{LnsSearch, PortfolioSearch};
use lnls_neighborhood::{KHamming, Neighborhood};
use lnls_ppp::{Ppp, PppInstance};
use lnls_problems::{Knapsack, MaxCut, MaxSat, OneMax, Qubo};
use lnls_qap::{Permutation, QapInstance, RobustTabu, RtsConfig, TableEvaluator};
use lnls_runtime::JobReport;
use lnls_workload::{Arrival, JobRecipe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct SoloTotals {
    /// Tabu `run` wall and the part of it spent in `Explorer::explore`.
    pub tabu_run: Duration,
    pub tabu_explore: Duration,
    /// Neighbors evaluated by the tabu runs.
    pub neighbors: u64,
    pub anneal: Duration,
    pub qap: Duration,
    pub lns: Duration,
    pub portfolio: Duration,
    /// Jobs compared against the fleet, and jobs left out because an
    /// envelope budget, a deadline, a shed or the crash cut them short.
    pub checked: u64,
    pub excluded: u64,
    /// Checked jobs whose solo result differs from the fleet's.
    pub mismatches: u64,
}

impl SoloTotals {
    pub fn search_wall(&self) -> Duration {
        self.tabu_run + self.anneal + self.qap + self.lns + self.portfolio
    }
}

/// Run one admitted arrival solo and compare it with the fleet's report
/// (`None` when the job was lost at a crash).
pub fn solo(
    arrival: &Arrival,
    fleet: Option<&JobReport>,
    acc: &mut SoloTotals,
    rec: &mut Recorder,
) {
    let iters = recipe_iters(&arrival.recipe);
    let cut = match fleet {
        None => true,
        Some(r) => r.cancelled || r.rejected || arrival.iter_budget.is_some_and(|b| b < iters),
    };
    // A cut job is re-run for the iterations it got, so that the solo
    // pass does the fleet's work; only whole jobs are compared.
    let budget = match fleet {
        Some(r) if cut => r.outcome.iterations(),
        _ => iters,
    };
    let (best, iterations) = run(&arrival.recipe, budget, acc, rec);
    match fleet {
        Some(r) if !cut => {
            acc.checked += 1;
            if (best, iterations) != (r.outcome.best_fitness(), r.outcome.iterations()) {
                eprintln!(
                    "solo mismatch on {}: fleet (best {}, iters {}), solo (best {best}, iters {iterations})",
                    arrival.name,
                    r.outcome.best_fitness(),
                    r.outcome.iterations()
                );
                acc.mismatches += 1;
            }
        }
        _ => acc.excluded += 1,
    }
}

fn recipe_iters(recipe: &JobRecipe) -> u64 {
    match *recipe {
        JobRecipe::TabuOneMax { iters, .. }
        | JobRecipe::TabuPpp { iters, .. }
        | JobRecipe::TabuMaxCut { iters, .. }
        | JobRecipe::AnnealOneMax { iters, .. }
        | JobRecipe::Qap { iters, .. }
        | JobRecipe::LnsRepair { iters, .. }
        | JobRecipe::PortfolioRace { iters, .. } => iters,
    }
}

/// Rebuild the job exactly as `Arrival::submit` does (same RNG draws in
/// the same order) and run it with `budget` iterations. Returns the best
/// fitness and the iteration count.
fn run(recipe: &JobRecipe, budget: u64, acc: &mut SoloTotals, rec: &mut Recorder) -> (i64, u64) {
    match *recipe {
        JobRecipe::TabuOneMax { dim, seed, .. } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = BitString::random(&mut rng, dim);
            tabu(&OneMax::new(dim), dim, init, budget, seed, acc, rec)
        }
        JobRecipe::TabuPpp { dim, seed, .. } => {
            let problem = Ppp::new(PppInstance::generate(dim, dim, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let init = BitString::random(&mut rng, dim);
            tabu(&problem, dim, init, budget, seed, acc, rec)
        }
        JobRecipe::TabuMaxCut { dim, seed, .. } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let problem = MaxCut::random(&mut rng, dim, 0.35, 5);
            let init = BitString::random(&mut rng, dim);
            tabu(&problem, dim, init, budget, seed, acc, rec)
        }
        JobRecipe::AnnealOneMax { dim, seed, .. } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = BitString::random(&mut rng, dim);
            let sa = SimulatedAnnealing::new(
                SearchConfig::budget(budget).with_seed(seed),
                KHamming::new(dim, 2),
                1.5,
            );
            let span = rec.begin("search.anneal.solo");
            let t0 = Instant::now();
            let r = sa.run(&OneMax::new(dim), init);
            acc.anneal += t0.elapsed();
            rec.end(span);
            (r.best_fitness, r.iterations)
        }
        JobRecipe::Qap { n, seed, .. } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = QapInstance::random_uniform(&mut rng, n);
            let init = Permutation::random(&mut rng, n);
            let rts = RobustTabu::new(RtsConfig::budget(budget).with_seed(seed));
            let span = rec.begin("search.qap.solo");
            let t0 = Instant::now();
            let r = rts.run(&inst, &mut TableEvaluator::new(), init);
            acc.qap += t0.elapsed();
            rec.end(span);
            (r.best_cost, r.iterations)
        }
        JobRecipe::LnsRepair { dim, seed, .. } => {
            let cfg = SearchConfig::budget(budget).with_seed(seed).with_target(None);
            let search = LnsSearch::paper(cfg);
            let span = rec.begin("search.lns.solo");
            let t0 = Instant::now();
            let r = zoo(
                dim,
                seed,
                |p, i| search.run(p, i),
                |p, i| search.run(p, i),
                |p, i| search.run(p, i),
            );
            acc.lns += t0.elapsed();
            rec.end(span);
            (r.best_fitness, r.iterations)
        }
        JobRecipe::PortfolioRace { dim, seed, .. } => {
            let cfg = SearchConfig::budget(budget).with_seed(seed).with_target(None);
            let search = PortfolioSearch::paper(cfg);
            let span = rec.begin("search.portfolio.solo");
            let t0 = Instant::now();
            let r = zoo(
                dim,
                seed,
                |p, i| search.run(p, i),
                |p, i| search.run(p, i),
                |p, i| search.run(p, i),
            );
            acc.portfolio += t0.elapsed();
            rec.end(span);
            (r.best_fitness, r.iterations)
        }
    }
}

/// The Knapsack / Max-3-Sat / QUBO instance a LNS or portfolio recipe
/// draws (`seed % 3` picks the kind), handed to the matching runner.
fn zoo<R>(
    dim: usize,
    seed: u64,
    knapsack: impl FnOnce(&Knapsack, BitString) -> R,
    maxsat: impl FnOnce(&MaxSat, BitString) -> R,
    qubo: impl FnOnce(&Qubo, BitString) -> R,
) -> R {
    let mut rng = StdRng::seed_from_u64(seed);
    match seed % 3 {
        0 => {
            let problem = Knapsack::random(&mut rng, dim, 10, 6);
            let init = BitString::random(&mut rng, dim);
            knapsack(&problem, init)
        }
        1 => {
            let problem = MaxSat::random(&mut rng, dim, 4 * dim);
            let init = BitString::random(&mut rng, dim);
            maxsat(&problem, init)
        }
        _ => {
            let problem = Qubo::random(&mut rng, dim, 7, 0.5);
            let init = BitString::random(&mut rng, dim);
            qubo(&problem, init)
        }
    }
}

fn tabu<P: IncrementalEval>(
    problem: &P,
    dim: usize,
    init: BitString,
    budget: u64,
    seed: u64,
    acc: &mut SoloTotals,
    rec: &mut Recorder,
) -> (i64, u64) {
    let hood = KHamming::new(dim, 2);
    let search = TabuSearch::paper(SearchConfig::budget(budget).with_seed(seed), hood.size());
    let mut explorer = SequentialExplorer::new(hood);
    let span = rec.begin("core.tabu.solo");
    let r = search.run(problem, &mut explorer, init);
    rec.end(span);
    acc.tabu_run += r.wall;
    acc.tabu_explore += Explorer::<P>::wall(&explorer);
    acc.neighbors += r.evals;
    (r.best_fitness, r.iterations)
}
