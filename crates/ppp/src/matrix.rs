//! The ε-matrix (entries ±1) of the PPP, bit-packed in both row-major and
//! column-major form.
//!
//! Convention: bit 0 encodes +1, bit 1 encodes −1, matching
//! `BitString::sign`. With solution signs `x_c = 1 − 2·v_c`, one product
//! term is `A_jc · x_c = 1 − 2·(a_jc ⊕ v_c)`, so
//!
//! * full row product: `Y_j = n − 2·popcount(row_j ⊕ v)` — an XOR/popcount
//!   per row;
//! * flip of column `c`: `ΔY_j = 4·(a_jc ⊕ v_c) − 2` — a column-bit test
//!   per row, which is why a column-major mirror is kept.

use lnls_core::BitString;
use rand::Rng;

/// Bit-packed ±1 matrix with row- and column-major mirrors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpsilonMatrix {
    m: usize,
    n: usize,
    /// Row-major bits: `m` rows × `wpr` words.
    rows: Vec<u64>,
    /// Column-major bits: `n` columns × `wpc` words.
    cols: Vec<u64>,
    wpr: usize,
    wpc: usize,
}

impl EpsilonMatrix {
    /// All-(+1) matrix of shape `m × n`.
    pub fn plus_ones(m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0, "matrix must be non-empty");
        let wpr = n.div_ceil(64);
        let wpc = m.div_ceil(64);
        Self { m, n, rows: vec![0; m * wpr], cols: vec![0; n * wpc], wpr, wpc }
    }

    /// Uniformly random ±1 matrix.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, m: usize, n: usize) -> Self {
        let mut a = Self::plus_ones(m, n);
        for j in 0..m {
            for c in 0..n {
                if rng.gen::<bool>() {
                    a.set(j, c, -1);
                }
            }
        }
        a
    }

    /// Rows.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(j, c)` as ±1.
    #[inline]
    pub fn get(&self, j: usize, c: usize) -> i32 {
        debug_assert!(j < self.m && c < self.n);
        let bit = (self.rows[j * self.wpr + c / 64] >> (c % 64)) & 1;
        1 - 2 * bit as i32
    }

    /// Set entry `(j, c)` to `v` (must be ±1).
    pub fn set(&mut self, j: usize, c: usize, v: i32) {
        assert!(v == 1 || v == -1, "epsilon entries are ±1, got {v}");
        let bit = v == -1;
        let rw = &mut self.rows[j * self.wpr + c / 64];
        let rmask = 1u64 << (c % 64);
        let cw = &mut self.cols[c * self.wpc + j / 64];
        let cmask = 1u64 << (j % 64);
        if bit {
            *rw |= rmask;
            *cw |= cmask;
        } else {
            *rw &= !rmask;
            *cw &= !cmask;
        }
    }

    /// Negate row `j` (the Pointcheval construction flips rows with
    /// negative correlation).
    pub fn negate_row(&mut self, j: usize) {
        for c in 0..self.n {
            let v = self.get(j, c);
            self.set(j, c, -v);
        }
    }

    /// `Y_j = (A·x)_j` for the ±1 vector encoded by `v`.
    #[inline]
    pub fn row_product(&self, j: usize, v: &BitString) -> i32 {
        debug_assert_eq!(v.len(), self.n);
        let row = &self.rows[j * self.wpr..(j + 1) * self.wpr];
        let mut diff = 0u32;
        for (rw, vw) in row.iter().zip(v.words()) {
            diff += (rw ^ vw).count_ones();
        }
        self.n as i32 - 2 * diff as i32
    }

    /// Full product `Y = A·x` into `out`.
    pub fn product(&self, v: &BitString, out: &mut Vec<i32>) {
        out.clear();
        out.extend((0..self.m).map(|j| self.row_product(j, v)));
    }

    /// Column `c` as packed bits over rows (`wpc` words).
    #[inline]
    pub fn col_words(&self, c: usize) -> &[u64] {
        &self.cols[c * self.wpc..(c + 1) * self.wpc]
    }

    /// Column bit `(j, c)` (true ⇔ entry −1).
    #[inline]
    pub fn col_bit(&self, j: usize, c: usize) -> bool {
        (self.cols[c * self.wpc + j / 64] >> (j % 64)) & 1 == 1
    }

    /// The column-major words as one slice, split into u32 little-endian
    /// halves — the layout uploaded to the simulated GPU.
    pub fn cols_as_u32(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.cols.len() * 2);
        for &w in &self.cols {
            out.push(w as u32);
            out.push((w >> 32) as u32);
        }
        out
    }

    /// Words per packed column (u64).
    #[inline]
    pub fn words_per_col(&self) -> usize {
        self.wpc
    }

    /// Row-major words (for serialization).
    pub(crate) fn row_words(&self) -> &[u64] {
        &self.rows
    }

    /// Rebuild from row-major words (inverse of [`row_words`](Self::row_words)).
    /// Errors unless the shape is non-empty and `rows` holds exactly its
    /// `m · ⌈n/64⌉` words.
    pub(crate) fn from_row_words(m: usize, n: usize, rows: &[u64]) -> Result<Self, String> {
        if m == 0 || n == 0 {
            return Err(format!("matrix must be non-empty, got {m}x{n}"));
        }
        let wpr = n.div_ceil(64);
        if Some(rows.len()) != m.checked_mul(wpr) {
            return Err(format!("{} row words for a {m}x{n} matrix", rows.len()));
        }
        let mut a = Self::plus_ones(m, n);
        for j in 0..m {
            for c in 0..n {
                if (rows[j * wpr + c / 64] >> (c % 64)) & 1 == 1 {
                    a.set(j, c, -1);
                }
            }
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn get_set_roundtrip_and_mirrors_agree() {
        let mut a = EpsilonMatrix::plus_ones(5, 7);
        assert_eq!(a.get(0, 0), 1);
        a.set(2, 3, -1);
        assert_eq!(a.get(2, 3), -1);
        assert!(a.col_bit(2, 3));
        a.set(2, 3, 1);
        assert_eq!(a.get(2, 3), 1);
        assert!(!a.col_bit(2, 3));
    }

    #[test]
    fn row_product_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = EpsilonMatrix::random(&mut rng, 9, 73);
        let v = BitString::random(&mut rng, 73);
        for j in 0..9 {
            let naive: i32 = (0..73).map(|c| a.get(j, c) * v.sign(c)).sum();
            assert_eq!(a.row_product(j, &v), naive, "row {j}");
        }
    }

    #[test]
    fn product_over_word_boundaries() {
        // n = 130 spans three words; parity of Y must match n.
        let mut rng = StdRng::seed_from_u64(2);
        let a = EpsilonMatrix::random(&mut rng, 4, 130);
        let v = BitString::random(&mut rng, 130);
        let mut y = Vec::new();
        a.product(&v, &mut y);
        for (j, &yj) in y.iter().enumerate() {
            assert_eq!(yj.rem_euclid(2), 0, "n even -> Y even");
            let naive: i32 = (0..130).map(|c| a.get(j, c) * v.sign(c)).sum();
            assert_eq!(yj, naive, "row {j}");
        }
    }

    #[test]
    fn negate_row_negates_product() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = EpsilonMatrix::random(&mut rng, 6, 31);
        let v = BitString::random(&mut rng, 31);
        let before = a.row_product(4, &v);
        a.negate_row(4);
        assert_eq!(a.row_product(4, &v), -before);
    }

    #[test]
    fn cols_as_u32_layout() {
        let mut a = EpsilonMatrix::plus_ones(70, 2);
        a.set(69, 1, -1); // column 1, row 69 → second u64 of col 1, bit 5
        let u32s = a.cols_as_u32();
        assert_eq!(u32s.len(), 2 * 2 * 2); // 2 cols × 2 u64 × 2 halves
                                           // col 1 occupies words [4..8); row 69 = word 1 (bits 64..127),
                                           // low half, bit 5.
        assert_eq!(u32s[6] >> 5 & 1, 1);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = EpsilonMatrix::random(&mut rng, 11, 33);
        let b = EpsilonMatrix::from_row_words(11, 33, a.row_words()).unwrap();
        assert_eq!(a, b);
    }
}
