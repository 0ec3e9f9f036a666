//! The move type shared by every neighborhood: a set of bit positions to
//! flip, stored inline (no heap) because moves are created in the innermost
//! loop of both the CPU explorers and the simulated GPU kernels.

/// Maximum number of bits a single [`FlipMove`] can flip.
///
/// The paper handles k ∈ {1, 2, 3}; the combinadic generalization
/// ([`crate::KHamming`]) is capped at 4 so the move stays a tiny `Copy`
/// value. Raising this is a one-line change.
pub const MAX_FLIPS: usize = 4;

/// A `k`-bit flip move: `k` strictly increasing bit positions.
///
/// Constructed via [`FlipMove::one`], [`FlipMove::two`], [`FlipMove::three`],
/// [`FlipMove::from_sorted`] or [`FlipMove::from_array`]. Invariant: the
/// first `k` entries of `idx` are strictly increasing and the rest are
/// zero (equality and hashing compare the whole array).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct FlipMove {
    idx: [u32; MAX_FLIPS],
    k: u8,
}

impl FlipMove {
    /// Single-bit flip (1-Hamming move).
    #[inline]
    pub fn one(i: u32) -> Self {
        Self { idx: [i, 0, 0, 0], k: 1 }
    }

    /// Two-bit flip; requires `i < j`.
    #[inline]
    pub fn two(i: u32, j: u32) -> Self {
        debug_assert!(i < j, "FlipMove::two requires i < j (got {i}, {j})");
        Self { idx: [i, j, 0, 0], k: 2 }
    }

    /// Three-bit flip; requires `i < j < l`.
    #[inline]
    pub fn three(i: u32, j: u32, l: u32) -> Self {
        debug_assert!(i < j && j < l, "FlipMove::three requires i < j < l (got {i}, {j}, {l})");
        Self { idx: [i, j, l, 0], k: 3 }
    }

    /// Build a move from a strictly increasing slice of at most
    /// [`MAX_FLIPS`] bit positions.
    ///
    /// # Panics
    /// Panics if the slice is empty, too long, or not strictly increasing.
    #[inline]
    pub fn from_sorted(bits: &[u32]) -> Self {
        assert!(
            !bits.is_empty() && bits.len() <= MAX_FLIPS,
            "FlipMove supports 1..={MAX_FLIPS} bits, got {}",
            bits.len()
        );
        assert!(
            bits.windows(2).all(|w| w[0] < w[1]),
            "FlipMove bit indices must be strictly increasing: {bits:?}"
        );
        let mut idx = [0u32; MAX_FLIPS];
        idx[..bits.len()].copy_from_slice(bits);
        Self { idx, k: bits.len() as u8 }
    }

    /// Build a move from the first `k` entries of a full index array.
    ///
    /// The hot-loop constructor: no slice copy, and the invariant (`k`
    /// in `1..=MAX_FLIPS`, `idx[..k]` strictly increasing, the unused
    /// slots zero) is checked only by `debug_assert`. Row walks build
    /// every move of a neighborhood scan through it.
    #[inline]
    pub fn from_array(idx: [u32; MAX_FLIPS], k: usize) -> Self {
        debug_assert!(
            (1..=MAX_FLIPS).contains(&k),
            "FlipMove supports 1..={MAX_FLIPS} bits, got {k}"
        );
        debug_assert!(
            idx[..k].windows(2).all(|w| w[0] < w[1]) && idx[k..].iter().all(|&b| b == 0),
            "FlipMove::from_array needs {k} strictly increasing bits and zeroed unused slots: {idx:?}"
        );
        Self { idx, k: k as u8 }
    }

    /// The flipped bit positions, strictly increasing.
    #[inline]
    pub fn bits(&self) -> &[u32] {
        &self.idx[..self.k as usize]
    }

    /// Number of bits flipped.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// True if `bit` is one of the flipped positions.
    #[inline]
    pub fn contains(&self, bit: u32) -> bool {
        self.bits().contains(&bit)
    }
}

impl core::fmt::Display for FlipMove {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "flip(")?;
        for (t, b) in self.bits().iter().enumerate() {
            if t > 0 {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let m1 = FlipMove::one(7);
        assert_eq!(m1.bits(), &[7]);
        assert_eq!(m1.k(), 1);

        let m2 = FlipMove::two(1, 9);
        assert_eq!(m2.bits(), &[1, 9]);
        assert_eq!(m2.k(), 2);

        let m3 = FlipMove::three(0, 4, 5);
        assert_eq!(m3.bits(), &[0, 4, 5]);
        assert_eq!(m3.k(), 3);
        assert!(m3.contains(4));
        assert!(!m3.contains(3));
    }

    #[test]
    fn from_sorted_roundtrips() {
        let m = FlipMove::from_sorted(&[2, 3, 11, 40]);
        assert_eq!(m.bits(), &[2, 3, 11, 40]);
        assert_eq!(m.k(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_rejects_duplicates() {
        let _ = FlipMove::from_sorted(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "1..=4 bits")]
    fn from_sorted_rejects_empty() {
        let _ = FlipMove::from_sorted(&[]);
    }

    #[test]
    fn from_array_matches_from_sorted() {
        assert_eq!(FlipMove::from_array([3, 8, 0, 0], 2), FlipMove::from_sorted(&[3, 8]));
        assert_eq!(FlipMove::from_array([1, 2, 5, 9], 4), FlipMove::from_sorted(&[1, 2, 5, 9]));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(FlipMove::three(1, 2, 3).to_string(), "flip(1,2,3)");
    }

    #[test]
    fn equality_ignores_unused_slots() {
        assert_eq!(FlipMove::two(1, 2), FlipMove::from_sorted(&[1, 2]));
    }
}
