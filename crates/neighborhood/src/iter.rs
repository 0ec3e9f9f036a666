//! Iteration over neighborhoods in flat-index order.

use crate::flip::MAX_FLIPS;
use crate::{FlipMove, Neighborhood};
use core::ops::Range;

/// Iterator over `(index, move)` pairs of a neighborhood, in index order.
///
/// Produced by [`Neighborhood::moves`]. Unranks lazily, so iterating a
/// prefix of a huge neighborhood costs only what is consumed.
pub struct MoveIter<'a, N: Neighborhood> {
    hood: &'a N,
    next: u64,
    end: u64,
}

impl<'a, N: Neighborhood> MoveIter<'a, N> {
    pub(crate) fn new(hood: &'a N) -> Self {
        Self { hood, next: 0, end: hood.size() }
    }

    /// Restrict the iterator to the half-open index range `lo..hi`
    /// (clamped to the neighborhood size). Used for partitioned scans.
    pub fn range(hood: &'a N, lo: u64, hi: u64) -> Self {
        let end = hi.min(hood.size());
        Self { hood, next: lo.min(end), end }
    }
}

impl<N: Neighborhood> Iterator for MoveIter<'_, N> {
    type Item = (u64, FlipMove);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        Some((idx, self.hood.unrank(idx)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl<N: Neighborhood> ExactSizeIterator for MoveIter<'_, N> {}

/// Advance a strictly increasing combination over `0..n` to its
/// lexicographic successor in place. Returns `false` (leaving the slice
/// unspecified) when `bits` was the last combination.
///
/// This is the O(1)-amortized companion to unranking: scans that visit
/// *every* move (a tabu iteration's selection pass) should enumerate
/// instead of unranking each index.
#[inline]
pub fn lex_advance(bits: &mut [u32], n: u32) -> bool {
    let k = bits.len();
    debug_assert!(k >= 1);
    // Find the rightmost position that can still grow.
    let mut i = k;
    while i > 0 {
        i -= 1;
        let max_at_i = n - (k - i) as u32;
        if bits[i] < max_at_i {
            bits[i] += 1;
            for j in (i + 1)..k {
                bits[j] = bits[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// One row of a fixed-`k` lexicographic neighborhood: the moves that
/// share their first `k − 1` bits, in index order. The last bit sweeps
/// a contiguous range, so a scan over the row is a tight loop that
/// writes one array slot per move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoveRow {
    /// The `k − 1` fixed bits in `prefix[..k - 1]`; every other slot is
    /// zero, so writing the last bit at `prefix[k - 1]` yields a valid
    /// [`FlipMove::from_array`] input.
    pub prefix: [u32; MAX_FLIPS],
    /// The values the last bit takes, ascending.
    pub last: Range<u32>,
}

/// Row-by-row walk over a contiguous run of flat indices of a fixed-`k`
/// lexicographic neighborhood (produced by
/// [`Neighborhood::for_each_row_walk`]).
///
/// The first row starts wherever the run starts; each later row begins
/// with one [`lex_advance`] of the `k − 1` prefix bits, and the last row
/// stops where the run stops. No move is unranked after the first.
#[derive(Clone, Debug)]
pub struct RowWalk {
    n: u32,
    k: usize,
    prefix: [u32; MAX_FLIPS],
    next_last: u32,
    left: u64,
}

impl RowWalk {
    /// Walk `count` consecutive moves of the `first.k()`-Hamming
    /// neighborhood over `n`-bit strings, starting at `first`. `count`
    /// must not run past the neighborhood's last move.
    pub fn new(n: usize, first: FlipMove, count: u64) -> Self {
        let k = first.k();
        let mut prefix = [0u32; MAX_FLIPS];
        prefix[..k - 1].copy_from_slice(&first.bits()[..k - 1]);
        Self { n: n as u32, k, prefix, next_last: first.bits()[k - 1], left: count }
    }

    /// Hamming weight of every move in the walk.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Moves left in the walk.
    #[inline]
    pub fn move_count(&self) -> u64 {
        self.left
    }
}

impl Iterator for RowWalk {
    type Item = MoveRow;

    #[inline]
    fn next(&mut self) -> Option<MoveRow> {
        if self.left == 0 {
            return None;
        }
        let start = self.next_last;
        let len = u64::from(self.n - start).min(self.left);
        self.left -= len;
        let row = MoveRow { prefix: self.prefix, last: start..start + len as u32 };
        if self.left > 0 {
            // Next prefix: a (k−1)-combination whose top bit leaves room
            // for one more, i.e. over 0..n−1.
            let p = self.k - 1;
            assert!(
                p > 0 && lex_advance(&mut self.prefix[..p], self.n - 1),
                "row walk ran past the neighborhood's last move"
            );
            self.next_last = self.prefix[p - 1] + 1;
        }
        Some(row)
    }
}

/// Iterator over `(index, move)` pairs in lexicographic order using
/// [`lex_advance`] — index-compatible with [`MoveIter`] but O(1) per step
/// instead of one unranking per step.
pub struct LexMoves {
    cur: [u32; crate::flip::MAX_FLIPS],
    k: usize,
    n: u32,
    next_idx: u64,
    size: u64,
}

impl LexMoves {
    /// Enumerate the full k-Hamming neighborhood over `n`-bit strings.
    pub fn new(n: usize, k: usize) -> Self {
        assert!((1..=crate::flip::MAX_FLIPS).contains(&k) && k <= n);
        let mut cur = [0u32; crate::flip::MAX_FLIPS];
        for (i, c) in cur.iter_mut().enumerate().take(k) {
            *c = i as u32;
        }
        Self { cur, k, n: n as u32, next_idx: 0, size: crate::binomial(n as u64, k as u64) }
    }
}

impl Iterator for LexMoves {
    type Item = (u64, FlipMove);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.next_idx >= self.size {
            return None;
        }
        let idx = self.next_idx;
        let mv = FlipMove::from_sorted(&self.cur[..self.k]);
        self.next_idx += 1;
        if self.next_idx < self.size {
            let advanced = lex_advance(&mut self.cur[..self.k], self.n);
            debug_assert!(advanced);
        }
        Some((idx, mv))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.size - self.next_idx) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for LexMoves {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThreeHamming, TwoHamming};

    #[test]
    fn full_iteration_covers_everything_once() {
        let h = TwoHamming::new(9);
        let collected: Vec<_> = h.moves().collect();
        assert_eq!(collected.len() as u64, h.size());
        for (t, (idx, mv)) in collected.iter().enumerate() {
            assert_eq!(*idx, t as u64);
            assert_eq!(h.rank(mv), *idx);
        }
    }

    #[test]
    fn range_iteration() {
        let h = ThreeHamming::new(10);
        let all: Vec<_> = h.moves().collect();
        let mid: Vec<_> = MoveIter::range(&h, 20, 40).collect();
        assert_eq!(mid.len(), 20);
        assert_eq!(&all[20..40], &mid[..]);
        // Clamped range.
        let tail: Vec<_> = MoveIter::range(&h, h.size() - 3, h.size() + 100).collect();
        assert_eq!(tail.len(), 3);
    }

    #[test]
    fn size_hint_is_exact() {
        let h = TwoHamming::new(12);
        let mut it = h.moves();
        assert_eq!(it.size_hint(), (66, Some(66)));
        it.next();
        assert_eq!(it.size_hint(), (65, Some(65)));
    }

    #[test]
    fn lex_moves_matches_unranking_for_all_k() {
        for (n, k) in [(9usize, 1usize), (9, 2), (9, 3), (9, 4), (21, 3)] {
            let hood = crate::KHamming::new(n, k);
            let by_unrank: Vec<_> = hood.moves().collect();
            let by_lex: Vec<_> = LexMoves::new(n, k).collect();
            assert_eq!(by_unrank, by_lex, "n={n} k={k}");
        }
    }

    #[test]
    fn lex_advance_terminates_exactly() {
        let mut bits = [0u32, 1, 2];
        let mut count = 1;
        while lex_advance(&mut bits, 7) {
            count += 1;
        }
        assert_eq!(count, 35); // C(7,3)
    }

    /// Expand a row walk back into moves, one per flat index.
    fn expand(walk: RowWalk) -> Vec<FlipMove> {
        let k = walk.k();
        walk.flat_map(|row| {
            row.last.map(move |b| {
                let mut idx = row.prefix;
                idx[k - 1] = b;
                FlipMove::from_array(idx, k)
            })
        })
        .collect()
    }

    #[test]
    fn row_walks_match_unranking_on_every_subrange() {
        for (n, k) in [(7usize, 1usize), (7, 2), (7, 3), (7, 4), (9, 2)] {
            let hood = crate::KHamming::new(n, k);
            let m = hood.size();
            for lo in 0..m {
                for hi in lo + 1..=m {
                    let mut got = Vec::new();
                    hood.for_each_row_walk(lo, hi, &mut |walk| got.extend(expand(walk)));
                    let want: Vec<_> = (lo..hi).map(|i| hood.unrank(i)).collect();
                    assert_eq!(got, want, "n={n} k={k} {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn rows_break_where_the_prefix_changes() {
        let rows: Vec<_> = RowWalk::new(5, FlipMove::two(1, 3), 5).collect();
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].prefix[0], rows[0].last.clone()), (1, 3..5));
        assert_eq!((rows[1].prefix[0], rows[1].last.clone()), (2, 3..5));
        assert_eq!((rows[2].prefix[0], rows[2].last.clone()), (3, 4..5));
    }

    #[test]
    #[should_panic(expected = "past the neighborhood's last move")]
    fn overlong_row_walk_is_refused() {
        let _ = RowWalk::new(4, FlipMove::two(2, 3), 2).count();
    }

    #[test]
    fn lex_moves_handles_singleton_neighborhood() {
        let all: Vec<_> = LexMoves::new(3, 3).collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1.bits(), &[0, 1, 2]);
    }
}
