//! Union of Hamming neighborhoods: one flat index space covering
//! several radii at once.
//!
//! The paper explores radii 1, 2 and 3 *separately* (one kernel per
//! table). A union neighborhood concatenates their index spaces —
//! indices `0..n` are the 1-flips, the next `C(n,2)` the 2-flips, and
//! so on — so a *single* kernel launch (or one sequential scan)
//! evaluates the whole ladder and the search picks the best move across
//! radii every iteration. This is the "very large-scale neighborhood"
//! view of §I, and it maps to GPU threads exactly like its parts: the
//! segment is found by offset comparison, then the part's own §III
//! mapping decodes the remainder.

use crate::khamming::KHamming;
use crate::{FlipMove, Neighborhood, RowWalk};

/// Concatenation of `KHamming` neighborhoods with distinct radii, in
/// ascending-`k` order.
#[derive(Clone, Debug)]
pub struct UnionHamming {
    n: usize,
    parts: Vec<KHamming>,
    /// `offsets[i]` = first flat index of part `i`; a final entry holds
    /// the total size.
    offsets: Vec<u64>,
}

impl UnionHamming {
    /// Union of the given radii over `n`-bit strings.
    ///
    /// # Panics
    /// Panics if `ks` is empty, unsorted, has duplicates, or any radius
    /// is invalid for [`KHamming`].
    pub fn new(n: usize, ks: &[usize]) -> Self {
        assert!(!ks.is_empty(), "union of nothing");
        assert!(ks.windows(2).all(|w| w[0] < w[1]), "radii must be strictly ascending");
        let parts: Vec<KHamming> = ks.iter().map(|&k| KHamming::new(n, k)).collect();
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        let mut acc = 0u64;
        for p in &parts {
            offsets.push(acc);
            acc += p.size();
        }
        offsets.push(acc);
        Self { n, parts, offsets }
    }

    /// The classic 1∪2∪3 ladder of the paper.
    pub fn ladder123(n: usize) -> Self {
        Self::new(n, &[1, 2, 3])
    }

    /// The member neighborhoods, ascending by radius.
    pub fn parts(&self) -> &[KHamming] {
        &self.parts
    }

    /// The flat-index range `lo..hi` occupied by part `i`.
    pub fn segment(&self, i: usize) -> (u64, u64) {
        (self.offsets[i], self.offsets[i + 1])
    }

    /// Which part a flat index belongs to.
    fn part_of(&self, index: u64) -> usize {
        // offsets is ascending; find the last offset ≤ index.
        match self.offsets.binary_search(&index) {
            Ok(i) if i == self.parts.len() => i - 1, // index == total size (caller panics later)
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }
}

impl Neighborhood for UnionHamming {
    fn dim(&self) -> usize {
        self.n
    }

    /// The *largest* radius in the union (moves have mixed sizes; this
    /// is the upper bound drivers need for scratch space).
    fn k(&self) -> usize {
        self.parts.last().expect("non-empty").k()
    }

    fn size(&self) -> u64 {
        *self.offsets.last().expect("non-empty")
    }

    fn unrank(&self, index: u64) -> FlipMove {
        assert!(index < self.size(), "index {index} out of range ({})", self.size());
        let i = self.part_of(index);
        self.parts[i].unrank(index - self.offsets[i])
    }

    fn rank(&self, mv: &FlipMove) -> u64 {
        let k = mv.k();
        let i = self
            .parts
            .iter()
            .position(|p| p.k() == k)
            .unwrap_or_else(|| panic!("no part with radius {k} in this union"));
        self.offsets[i] + self.parts[i].rank(mv)
    }

    fn try_rank(&self, mv: &FlipMove) -> Option<u64> {
        let i = self.parts.iter().position(|p| p.k() == mv.k())?;
        Some(self.offsets[i] + self.parts[i].try_rank(mv)?)
    }

    fn for_each_move_in(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, FlipMove) -> bool) {
        let hi = hi.min(self.size());
        let mut stopped = false;
        for (i, part) in self.parts.iter().enumerate() {
            if stopped {
                return;
            }
            let (plo, phi) = self.segment(i);
            let slo = lo.max(plo);
            let shi = hi.min(phi);
            if slo >= shi {
                continue;
            }
            let off = plo;
            part.for_each_move_in(slo - off, shi - off, &mut |idx, mv| {
                let go = f(idx + off, mv);
                if !go {
                    stopped = true;
                }
                go
            });
        }
    }

    fn for_each_row_walk(&self, lo: u64, hi: u64, f: &mut dyn FnMut(RowWalk)) {
        for (i, part) in self.parts.iter().enumerate() {
            let (plo, phi) = self.segment(i);
            let (slo, shi) = (lo.max(plo), hi.min(phi));
            if slo < shi {
                part.for_each_row_walk(slo - plo, shi - plo, f);
            }
        }
    }

    fn name(&self) -> &'static str {
        "union-Hamming"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial;

    #[test]
    fn sizes_and_segments() {
        let u = UnionHamming::ladder123(10);
        assert_eq!(u.size(), 10 + 45 + 120);
        assert_eq!(u.segment(0), (0, 10));
        assert_eq!(u.segment(1), (10, 55));
        assert_eq!(u.segment(2), (55, 175));
        assert_eq!(u.k(), 3);
        assert_eq!(u.dim(), 10);
    }

    #[test]
    fn unrank_dispatches_to_the_right_radius() {
        let u = UnionHamming::ladder123(9);
        assert_eq!(u.unrank(0).k(), 1);
        assert_eq!(u.unrank(8).k(), 1);
        assert_eq!(u.unrank(9).k(), 2);
        assert_eq!(u.unrank(9 + binomial(9, 2) - 1).k(), 2);
        assert_eq!(u.unrank(9 + binomial(9, 2)).k(), 3);
        assert_eq!(u.unrank(u.size() - 1).k(), 3);
    }

    #[test]
    fn rank_unrank_roundtrip_everywhere() {
        let u = UnionHamming::new(8, &[1, 2, 4]);
        for idx in 0..u.size() {
            let mv = u.unrank(idx);
            assert_eq!(u.rank(&mv), idx, "{mv}");
            assert_eq!(u.try_rank(&mv), Some(idx));
        }
    }

    #[test]
    fn try_rank_rejects_foreign_radii() {
        let u = UnionHamming::new(8, &[1, 3]);
        let two_flip = FlipMove::two(0, 1);
        assert_eq!(u.try_rank(&two_flip), None);
    }

    #[test]
    fn for_each_covers_everything_in_order() {
        let u = UnionHamming::ladder123(7);
        let mut seen = Vec::new();
        u.for_each_move_in(0, u.size(), &mut |idx, mv| {
            assert_eq!(mv, u.unrank(idx));
            seen.push(idx);
            true
        });
        assert_eq!(seen, (0..u.size()).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_respects_ranges_across_segments() {
        let u = UnionHamming::ladder123(7);
        // A range straddling the 1H/2H boundary (7) and ending inside 2H.
        let mut seen = Vec::new();
        u.for_each_move_in(5, 15, &mut |idx, mv| {
            assert_eq!(mv, u.unrank(idx));
            seen.push(idx);
            true
        });
        assert_eq!(seen, (5..15).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_early_exit_stops_across_segments() {
        let u = UnionHamming::ladder123(7);
        let mut count = 0;
        u.for_each_move_in(0, u.size(), &mut |_, _| {
            count += 1;
            count < 9 // stop inside the 2-Hamming segment
        });
        assert_eq!(count, 9);
    }

    #[test]
    fn row_walks_cover_ranges_across_segments() {
        let u = UnionHamming::ladder123(7);
        for (lo, hi) in [(0, u.size()), (5, 15), (9, 60), (30, 31)] {
            let mut got = Vec::new();
            u.for_each_row_walk(lo, hi, &mut |walk| {
                let k = walk.k();
                for row in walk {
                    for b in row.last {
                        let mut idx = row.prefix;
                        idx[k - 1] = b;
                        got.push(FlipMove::from_array(idx, k));
                    }
                }
            });
            let want: Vec<_> = (lo..hi).map(|i| u.unrank(i)).collect();
            assert_eq!(got, want, "{lo}..{hi}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_radii_rejected() {
        let _ = UnionHamming::new(8, &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_index_rejected() {
        let u = UnionHamming::new(6, &[1]);
        let _ = u.unrank(6);
    }
}
