//! Generalized k-Hamming neighborhood via the combinatorial number system
//! — the extension the paper's §V ("handling larger neighborhoods")
//! motivates. For k ∈ {1,2,3} it is index-compatible with the specialized
//! types and therefore also with the paper's mappings.

use crate::combinadic::{rank_combinadic, unrank_combinadic};
use crate::flip::MAX_FLIPS;
use crate::{checked_binomial, FlipMove, Neighborhood};

/// The neighborhood of all `k`-bit flips of an `n`-bit string
/// (`C(n, k)` moves), `1 ≤ k ≤` [`MAX_FLIPS`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KHamming {
    n: usize,
    k: usize,
    size: u64,
}

impl KHamming {
    /// Neighborhood of Hamming distance `k` over `n`-bit strings.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > MAX_FLIPS`, `k > n`, or `C(n, k)`
    /// overflows `u64`; [`try_new`](Self::try_new) reports these instead.
    pub fn new(n: usize, k: usize) -> Self {
        assert!((1..=MAX_FLIPS).contains(&k), "KHamming supports 1..={MAX_FLIPS}, got k={k}");
        assert!(k <= n, "KHamming requires k <= n (k={k}, n={n})");
        Self::try_new(n, k).expect("KHamming size C(n, k) overflows u64")
    }

    /// Checked [`new`](Self::new): `None` for an invalid radius or a
    /// neighborhood whose size `C(n, k)` does not fit in `u64`.
    pub fn try_new(n: usize, k: usize) -> Option<Self> {
        if !(1..=MAX_FLIPS).contains(&k) || k > n {
            return None;
        }
        Some(Self { n, k, size: checked_binomial(n as u64, k as u64)? })
    }
}

impl Neighborhood for KHamming {
    #[inline]
    fn dim(&self) -> usize {
        self.n
    }

    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn size(&self) -> u64 {
        self.size
    }

    #[inline]
    fn unrank(&self, index: u64) -> FlipMove {
        debug_assert!(index < self.size);
        let mut buf = [0u32; MAX_FLIPS];
        unrank_combinadic(self.n as u64, index, &mut buf[..self.k]);
        FlipMove::from_sorted(&buf[..self.k])
    }

    #[inline]
    fn rank(&self, mv: &FlipMove) -> u64 {
        debug_assert_eq!(mv.k(), self.k);
        rank_combinadic(self.n as u64, mv.bits())
    }

    fn name(&self) -> &'static str {
        match self.k {
            1 => "1-Hamming (generic)",
            2 => "2-Hamming (generic)",
            3 => "3-Hamming (generic)",
            _ => "4-Hamming (generic)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OneHamming, ThreeHamming, TwoHamming};

    #[test]
    fn agrees_with_specialized_neighborhoods() {
        let n = 21;
        let h1 = OneHamming::new(n);
        let h2 = TwoHamming::new(n);
        let h3 = ThreeHamming::new(n);
        let g1 = KHamming::new(n, 1);
        let g2 = KHamming::new(n, 2);
        let g3 = KHamming::new(n, 3);
        assert_eq!(h1.size(), g1.size());
        assert_eq!(h2.size(), g2.size());
        assert_eq!(h3.size(), g3.size());
        for f in 0..g1.size() {
            assert_eq!(h1.unrank(f), g1.unrank(f));
        }
        for f in 0..g2.size() {
            assert_eq!(h2.unrank(f), g2.unrank(f));
        }
        for f in 0..g3.size() {
            assert_eq!(h3.unrank(f), g3.unrank(f));
        }
    }

    #[test]
    fn k4_roundtrip() {
        let h = KHamming::new(15, 4);
        assert_eq!(h.size(), 1365);
        for f in 0..h.size() {
            assert_eq!(h.rank(&h.unrank(f)), f);
        }
    }

    #[test]
    fn try_new_rejects_what_new_panics_on() {
        assert_eq!(KHamming::try_new(2, 3), None);
        assert_eq!(KHamming::try_new(10, 0), None);
        assert_eq!(KHamming::try_new(10, MAX_FLIPS + 1), None);
        assert_eq!(KHamming::try_new(1 << 40, 4), None);
        assert_eq!(KHamming::try_new(15, 4), Some(KHamming::new(15, 4)));
    }

    #[test]
    #[should_panic(expected = "k <= n")]
    fn k_larger_than_n_rejected() {
        let _ = KHamming::new(2, 3);
    }
}
