//! Max-Cut as pseudo-Boolean minimization: partition the vertices of a
//! weighted graph into two sides (bit `i` = side of vertex `i`) so the
//! total weight of edges crossing the partition is maximized. We
//! minimize `-cut(s)`, so lower is better and the framework's
//! conventions apply unchanged.
//!
//! Single-flip deltas are O(deg(v)) via cached per-vertex *gain* values
//! (the classic Kernighan–Lin bookkeeping); k-flip deltas re-inspect
//! only the edges inside the flipped set.

use lnls_core::{BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::FlipMove;
use rand::Rng;

/// A weighted undirected graph for Max-Cut, stored as adjacency lists.
#[derive(Clone, Debug)]
pub struct MaxCut {
    n: usize,
    /// `adj[v]` = list of `(neighbor, weight)`; each undirected edge
    /// appears in both endpoint lists.
    adj: Vec<Vec<(u32, i64)>>,
    /// Total number of undirected edges.
    edges: usize,
}

impl MaxCut {
    /// Build from an undirected edge list `(u, v, w)`.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn new(n: usize, edge_list: &[(u32, u32, i64)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v, w) in edge_list {
            assert_ne!(u, v, "self-loop at vertex {u}");
            assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of range");
            assert!(!adj[u as usize].iter().any(|&(x, _)| x == v), "duplicate edge ({u},{v})");
            adj[u as usize].push((v, w));
            adj[v as usize].push((u, w));
        }
        Self { n, adj, edges: edge_list.len() }
    }

    /// Erdős–Rényi random graph `G(n, p)` with integer weights uniform
    /// in `[1, wmax]` (positive weights keep the problem non-trivial).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64, wmax: i64) -> Self {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < p {
                    edges.push((u, v, rng.gen_range(1..=wmax)));
                }
            }
        }
        Self::new(n, &edges)
    }

    /// A ring of `n` unit-weight edges: the optimum cut is `n` for even
    /// `n` and `n − 1` for odd `n` (useful as a known-optimum fixture).
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring needs at least 3 vertices");
        let edges: Vec<(u32, u32, i64)> =
            (0..n as u32).map(|u| (u, (u + 1) % n as u32, 1)).collect();
        Self::new(n, &edges)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The cut value of a partition (maximization view).
    pub fn cut_value(&self, s: &BitString) -> i64 {
        -self.evaluate(s)
    }

    /// Export the graph in CSR form — `(offsets, neighbors, weights)`
    /// with `offsets.len() == n + 1` — e.g. for device upload.
    pub fn to_csr(&self) -> (Vec<u32>, Vec<u32>, Vec<i64>) {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut nbr = Vec::new();
        let mut wgt = Vec::new();
        offsets.push(0u32);
        for lst in &self.adj {
            for &(v, w) in lst {
                nbr.push(v);
                wgt.push(w);
            }
            offsets.push(nbr.len() as u32);
        }
        (offsets, nbr, wgt)
    }
}

/// Persisted as the vertex count plus the undirected edge list (each
/// edge once, lower endpoint first) — enough to rebuild the adjacency
/// lists with identical search semantics. Needed so Max-Cut fleet jobs
/// survive checkpoint/restore like OneMax and PPP ones do.
impl lnls_core::Persist for MaxCut {
    fn write(&self, out: &mut Vec<u8>) {
        lnls_core::Persist::write(&self.n, out);
        let mut edges: Vec<(u32, u32, i64)> = Vec::with_capacity(self.edges);
        for (u, lst) in self.adj.iter().enumerate() {
            for &(v, w) in lst {
                if (v as usize) > u {
                    edges.push((u as u32, v, w));
                }
            }
        }
        edges.write(out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let n: usize = r.read()?;
        // The adjacency allocation is O(n) before any edge check can
        // run: bound the count so a corrupt prefix errors instead of
        // aborting on an absurd allocation (2^24 vertices is already
        // far past anything a fleet-job snapshot legitimately holds).
        if n > 1 << 24 {
            return Err(lnls_core::PersistError::new(format!("implausible maxcut size {n}")));
        }
        let edges: Vec<(u32, u32, i64)> = r.read()?;
        // `MaxCut::new` asserts its invariants; corrupt input must error
        // instead, so re-check them first.
        let mut seen = std::collections::BTreeSet::new();
        for &(u, v, _) in &edges {
            if u == v || (u as usize) >= n || (v as usize) >= n {
                return Err(lnls_core::PersistError::new(format!("bad maxcut edge ({u},{v})")));
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(lnls_core::PersistError::new(format!(
                    "duplicate maxcut edge ({u},{v})"
                )));
            }
        }
        Ok(MaxCut::new(n, &edges))
    }
}

impl lnls_core::PersistTag for MaxCut {
    const TAG: &'static str = "maxcut";
}

impl MaxCutState {
    /// Current fitness (= −cut) tracked by the state.
    pub fn fitness(&self) -> i64 {
        self.fitness
    }

    /// Per-vertex total weight to opposite-side neighbors.
    pub fn cross(&self) -> &[i64] {
        &self.cross
    }

    /// Per-vertex total weight to same-side neighbors.
    pub fn same(&self) -> &[i64] {
        &self.same
    }
}

/// Incremental state: the (negated) cut plus per-vertex crossing sums
/// `c_v = Σ_{(v,u)∈E, side(u)≠side(v)} w(v,u)` and same-side sums, from
/// which flip gains follow in O(1) per edge inspected.
#[derive(Clone, Debug)]
pub struct MaxCutState {
    /// Current fitness (= −cut).
    fitness: i64,
    /// For each vertex, total weight to *opposite-side* neighbors.
    cross: Vec<i64>,
    /// For each vertex, total weight to *same-side* neighbors.
    same: Vec<i64>,
}

impl BinaryProblem for MaxCut {
    fn dim(&self) -> usize {
        self.n
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        let mut cut = 0i64;
        for (u, lst) in self.adj.iter().enumerate() {
            for &(v, w) in lst {
                if (v as usize) > u && s.get(u) != s.get(v as usize) {
                    cut += w;
                }
            }
        }
        -cut
    }

    fn name(&self) -> String {
        format!("maxcut-{}v{}e", self.n, self.edges)
    }
}

impl IncrementalEval for MaxCut {
    type State = MaxCutState;

    fn init_state(&self, s: &BitString) -> MaxCutState {
        let mut cross = vec![0i64; self.n];
        let mut same = vec![0i64; self.n];
        for (u, lst) in self.adj.iter().enumerate() {
            for &(v, w) in lst {
                if s.get(u) != s.get(v as usize) {
                    cross[u] += w;
                } else {
                    same[u] += w;
                }
            }
        }
        MaxCutState { fitness: self.evaluate(s), cross, same }
    }

    fn state_fitness(&self, state: &MaxCutState) -> i64 {
        state.fitness
    }

    #[inline]
    fn neighbor_fitness(&self, state: &mut MaxCutState, s: &BitString, mv: &FlipMove) -> i64 {
        // Flipping vertex v turns its crossing edges into same-side ones
        // and vice versa: Δ(−cut) = cross_v − same_v. For multi-bit moves
        // the edges *between* two flipped vertices keep their relative
        // sides, so each such edge's contribution was toggled twice and
        // must be corrected once per endpoint pair.
        let bits = mv.bits();
        let mut delta = 0i64;
        for &bv in bits {
            let v = bv as usize;
            delta += state.cross[v] - state.same[v];
        }
        // Correct pairs of flipped endpoints: their edge keeps its status,
        // but was counted as toggled from both sides.
        for (t, &bu) in bits.iter().enumerate() {
            for &bv in &bits[t + 1..] {
                let u = bu as usize;
                if let Some(&(_, w)) = self.adj[u].iter().find(|&&(x, _)| x == bv) {
                    // The edge (u,v) was crossing ⇒ both endpoints counted
                    // +w (leaving the cut); it actually stays crossing:
                    // undo 2w. Symmetrically for same-side.
                    if s.get(u) != s.get(bv as usize) {
                        delta -= 2 * w;
                    } else {
                        delta += 2 * w;
                    }
                }
            }
        }
        state.fitness + delta
    }

    fn apply_move(&self, state: &mut MaxCutState, s: &BitString, mv: &FlipMove) {
        state.fitness = self.neighbor_fitness(&mut state.clone(), s, mv);
        // Recompute the crossing/same sums around each flipped vertex.
        let bits = mv.bits();
        let flipped = |x: u32| bits.contains(&x);
        for &bv in bits {
            let v = bv as usize;
            // v itself changes side; every incident edge toggles unless
            // the other endpoint flipped too.
            for &(u, w) in &self.adj[v] {
                if flipped(u) {
                    continue; // relative sides unchanged
                }
                let u = u as usize;
                if s.get(v) != s.get(u) {
                    // was crossing, becomes same-side
                    state.cross[v] -= w;
                    state.cross[u] -= w;
                    state.same[v] += w;
                    state.same[u] += w;
                } else {
                    state.same[v] -= w;
                    state.same[u] -= w;
                    state.cross[v] += w;
                    state.cross[u] += w;
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
    fn triangle_cut_values() {
        // Unit triangle: any 2-1 split cuts 2 edges; the trivial split 0.
        let g = MaxCut::new(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        assert_eq!(g.evaluate(&BitString::zeros(3)), 0);
        assert_eq!(g.evaluate(&BitString::from_bits(&[true, false, false])), -2);
        assert_eq!(g.cut_value(&BitString::from_bits(&[true, true, false])), 2);
    }

    #[test]
    fn ring_even_optimum_is_all_edges() {
        let g = MaxCut::ring(8);
        // alternating partition cuts all 8 edges
        let alt = BitString::from_bits(&[true, false, true, false, true, false, true, false]);
        assert_eq!(g.cut_value(&alt), 8);
    }

    #[test]
    fn delta_matches_full_eval_exhaustively() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = MaxCut::random(&mut rng, 13, 0.45, 7);
        let s = BitString::random(&mut rng, 13);
        let mut st = g.init_state(&s);
        for k in 1..=4usize {
            for (_, mv) in LexMoves::new(13, k) {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(g.neighbor_fitness(&mut st, &s, &mv), g.evaluate(&s2), "k={k} {mv}");
            }
        }
    }

    #[test]
    fn random_walk_keeps_state_consistent() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = MaxCut::random(&mut rng, 18, 0.4, 5);
        let mut s = BitString::random(&mut rng, 18);
        let mut st = g.init_state(&s);
        let hood = KHamming::new(18, 3);
        for _ in 0..120 {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            let predicted = g.neighbor_fitness(&mut st, &s, &mv);
            g.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            assert_eq!(st.fitness, predicted);
            assert_eq!(st.fitness, g.evaluate(&s));
            // cross/same must stay exact too
            let fresh = g.init_state(&s);
            assert_eq!(st.cross, fresh.cross);
            assert_eq!(st.same, fresh.same);
        }
    }

    #[test]
    fn search_finds_ring_optimum() {
        use lnls_core::{SearchConfig, SequentialExplorer, TabuSearch};
        let g = MaxCut::ring(12);
        let hood = KHamming::new(12, 2);
        let mut ex = SequentialExplorer::new(hood);
        let search =
            TabuSearch::paper(SearchConfig::budget(300).with_target(Some(-12)), hood.size());
        let r = search.run(&g, &mut ex, BitString::zeros(12));
        assert_eq!(r.best_fitness, -12, "alternating cut of the even ring");
    }

    #[test]
    fn persist_roundtrip_preserves_semantics() {
        use lnls_core::{Persist, Reader};
        let mut rng = StdRng::seed_from_u64(21);
        let g = MaxCut::random(&mut rng, 14, 0.4, 6);
        let back: MaxCut = Reader::new(&g.to_bytes()).read().expect("decode");
        assert_eq!(back.dim(), g.dim());
        assert_eq!(back.edge_count(), g.edge_count());
        for _ in 0..16 {
            let s = BitString::random(&mut rng, 14);
            assert_eq!(back.evaluate(&s), g.evaluate(&s));
        }
        // Corrupt payloads error instead of panicking.
        let mut bad = Vec::new();
        3usize.write(&mut bad);
        vec![(1u32, 1u32, 1i64)].write(&mut bad);
        assert!(Reader::new(&bad).read::<MaxCut>().is_err(), "self-loop must be refused");
        let mut dup = Vec::new();
        3usize.write(&mut dup);
        vec![(0u32, 1u32, 1i64), (1u32, 0u32, 2i64)].write(&mut dup);
        assert!(Reader::new(&dup).read::<MaxCut>().is_err(), "duplicate edge must be refused");
        let mut huge = Vec::new();
        (1usize << 40).write(&mut huge);
        Vec::<(u32, u32, i64)>::new().write(&mut huge);
        assert!(
            Reader::new(&huge).read::<MaxCut>().is_err(),
            "an absurd vertex count must error, not allocate"
        );
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = MaxCut::new(3, &[(1, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_edge_rejected() {
        let _ = MaxCut::new(3, &[(0, 1, 1), (1, 0, 2)]);
    }
}
