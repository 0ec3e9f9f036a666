//! QAP instances: flow matrix `F` between facilities, distance matrix
//! `D` between locations; cost of an assignment `p` is
//! `Σ_{i,j} F[i][j] · D[p[i]][p[j]]`.
//!
//! The generator follows Taillard's `taiXXa` recipe — uniform integer
//! flows and distances — which is the instance family his robust tabu
//! search paper (the LS paper's reference \[11\]) evaluates on. A small
//! text format (QAPLIB-style: `n`, then `F` row-major, then `D`)
//! round-trips instances without a serialization crate.

use crate::permutation::Permutation;
use lnls_core::Persist;
use rand::Rng;

/// A QAP instance with dense integer matrices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QapInstance {
    n: usize,
    /// Row-major flows (`n²`).
    f: Vec<i64>,
    /// Row-major distances (`n²`).
    d: Vec<i64>,
}

impl QapInstance {
    /// Build from explicit matrices.
    ///
    /// # Panics
    /// Panics on size mismatch or negative entries (QAPLIB instances
    /// are non-negative; deltas rely on no overflow).
    pub fn new(n: usize, f: Vec<i64>, d: Vec<i64>) -> Self {
        assert!(n >= 2, "need at least two facilities");
        assert_eq!(f.len(), n * n, "flow matrix must be n×n");
        assert_eq!(d.len(), n * n, "distance matrix must be n×n");
        assert!(f.iter().all(|&x| x >= 0), "negative flow");
        assert!(d.iter().all(|&x| x >= 0), "negative distance");
        Self { n, f, d }
    }

    /// Taillard-style uniform random instance: flows and distances
    /// uniform in `[0, 99]`, zero diagonals.
    pub fn random_uniform<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Self {
        let gen = |rng: &mut R| {
            let mut m = vec![0i64; n * n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        m[i * n + j] = rng.gen_range(0..=99);
                    }
                }
            }
            m
        };
        let f = gen(rng);
        let d = gen(rng);
        Self::new(n, f, d)
    }

    /// A symmetric instance (random symmetric `F`/`D`) — the variant
    /// Taillard's tabu search assumes for its O(1) delta-table update.
    pub fn random_symmetric<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Self {
        let gen = |rng: &mut R| {
            let mut m = vec![0i64; n * n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = rng.gen_range(0..=99);
                    m[i * n + j] = v;
                    m[j * n + i] = v;
                }
            }
            m
        };
        let f = gen(rng);
        let d = gen(rng);
        Self::new(n, f, d)
    }

    /// Problem size `n`.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Flow between facilities `i` and `j`.
    #[inline]
    pub fn flow(&self, i: usize, j: usize) -> i64 {
        self.f[i * self.n + j]
    }

    /// Distance between locations `a` and `b`.
    #[inline]
    pub fn dist(&self, a: usize, b: usize) -> i64 {
        self.d[a * self.n + b]
    }

    /// Raw row-major flow matrix (device upload).
    pub fn flows(&self) -> &[i64] {
        &self.f
    }

    /// Raw row-major distance matrix (device upload).
    pub fn dists(&self) -> &[i64] {
        &self.d
    }

    /// True if both matrices are symmetric.
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.flow(i, j) != self.flow(j, i) || self.dist(i, j) != self.dist(j, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Full objective: `Σ_{i,j} F[i][j] · D[p[i]][p[j]]`.
    pub fn cost(&self, p: &Permutation) -> i64 {
        assert_eq!(p.len(), self.n, "permutation length");
        let mut c = 0i64;
        for i in 0..self.n {
            for j in 0..self.n {
                c += self.flow(i, j) * self.dist(p.get(i), p.get(j));
            }
        }
        c
    }

    /// QAPLIB-style text serialization: `n`, blank line, `F` rows, blank
    /// line, `D` rows.
    pub fn save_to_string(&self) -> String {
        let mut s = format!("{}\n\n", self.n);
        let dump = |m: &[i64], s: &mut String| {
            for i in 0..self.n {
                let row: Vec<String> = (0..self.n).map(|j| m[i * self.n + j].to_string()).collect();
                s.push_str(&row.join(" "));
                s.push('\n');
            }
        };
        dump(&self.f, &mut s);
        s.push('\n');
        dump(&self.d, &mut s);
        s
    }

    /// Parse the text format produced by
    /// [`save_to_string`](Self::save_to_string) (whitespace-tolerant, as
    /// QAPLIB files are).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut nums = text
            .split_whitespace()
            .map(|t| t.parse::<i64>().map_err(|e| format!("bad token {t:?}: {e}")));
        let n = nums.next().ok_or("empty input")??;
        let (n, cells) = usize::try_from(n)
            .ok()
            .and_then(|n| Some((n, matrix_cells(n)?)))
            .ok_or_else(|| format!("implausible QAP size {n}"))?;
        let mut take = |what: &str| -> Result<Vec<i64>, String> {
            let mut m = Vec::with_capacity(cells);
            for k in 0..cells {
                let x = nums.next().ok_or(format!("{what} truncated at entry {k}"))??;
                if x < 0 {
                    return Err(format!("{what} entry {k} is negative"));
                }
                m.push(x);
            }
            Ok(m)
        };
        let f = take("flow matrix")?;
        let d = take("distance matrix")?;
        if nums.next().is_some() {
            return Err("trailing tokens after matrices".to_string());
        }
        Ok(Self::new(n, f, d))
    }

    /// Exact optimum by exhaustive permutation enumeration — usable for
    /// `n ≤ 9`; cross-checks the searches.
    pub fn brute_force_optimum(&self) -> (i64, Permutation) {
        assert!(self.n <= 9, "brute force limited to n ≤ 9");
        let mut p: Vec<u32> = (0..self.n as u32).collect();
        let mut best_cost = i64::MAX;
        let mut best = p.clone();
        // Heap's algorithm, iterative.
        let mut c = vec![0usize; self.n];
        let eval = |perm: &[u32], inst: &Self| {
            let q = Permutation::from_vec(perm.to_vec());
            inst.cost(&q)
        };
        best_cost = best_cost.min(eval(&p, self));
        let mut i = 0;
        while i < self.n {
            if c[i] < i {
                if i % 2 == 0 {
                    p.swap(0, i);
                } else {
                    p.swap(c[i], i);
                }
                let cost = eval(&p, self);
                if cost < best_cost {
                    best_cost = cost;
                    best.copy_from_slice(&p);
                }
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        (best_cost, Permutation::from_vec(best))
    }
}

/// Entries of one `n × n` matrix, or `None` when `n` is not a plausible
/// instance size: below two facilities, or so large that `n²` overflows
/// or is an absurd allocation (decoders bound it like `Qubo::read`).
fn matrix_cells(n: usize) -> Option<usize> {
    (2..=1 << 14).contains(&n).then(|| n.checked_mul(n)).flatten()
}

impl Persist for QapInstance {
    fn write(&self, out: &mut Vec<u8>) {
        self.n.write(out);
        self.f.write(out);
        self.d.write(out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let n: usize = r.read()?;
        let cells = matrix_cells(n)
            .ok_or_else(|| lnls_core::PersistError::new(format!("implausible QAP size {n}")))?;
        let f: Vec<i64> = r.read()?;
        let d: Vec<i64> = r.read()?;
        if f.len() != cells || d.len() != cells {
            return Err(lnls_core::PersistError("malformed QAP instance".into()));
        }
        if f.iter().chain(&d).any(|&x| x < 0) {
            return Err(lnls_core::PersistError("negative QAP matrix entry".into()));
        }
        Ok(Self::new(n, f, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> QapInstance {
        // n=3 hand instance.
        QapInstance::new(3, vec![0, 2, 3, 2, 0, 1, 3, 1, 0], vec![0, 5, 1, 5, 0, 4, 1, 4, 0])
    }

    #[test]
    fn cost_hand_checked() {
        let inst = tiny();
        let id = Permutation::identity(3);
        // Σ F_ij D_ij = 2·(2·5 + 3·1 + 1·4) = 34
        assert_eq!(inst.cost(&id), 34);
        let p = Permutation::from_vec(vec![1, 0, 2]);
        // pairs: (0,1):F=2,D(1,0)=5→10 ; (0,2):F=3,D(1,2)=4→12 ; (1,2):F=1,D(0,2)=1→1
        // symmetric doubling → 2·23 = 46
        assert_eq!(inst.cost(&p), 46);
    }

    #[test]
    fn brute_force_finds_global() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = QapInstance::random_uniform(&mut rng, 6);
        let (opt, p) = inst.brute_force_optimum();
        assert_eq!(inst.cost(&p), opt);
        // every permutation costs at least opt (spot check a few)
        for _ in 0..20 {
            let q = Permutation::random(&mut rng, 6);
            assert!(inst.cost(&q) >= opt);
        }
    }

    #[test]
    fn text_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let inst = QapInstance::random_uniform(&mut rng, 7);
        let text = inst.save_to_string();
        let back = QapInstance::parse(&text).expect("parse");
        assert_eq!(back, inst);
    }

    #[test]
    fn parse_rejects_truncation() {
        let inst = tiny();
        let text = inst.save_to_string();
        let cut = &text[..text.len() - 4];
        assert!(QapInstance::parse(cut).is_err());
    }

    #[test]
    fn parse_rejects_trailing() {
        let mut text = tiny().save_to_string();
        text.push_str("\n42\n");
        assert!(QapInstance::parse(&text).is_err());
    }

    #[test]
    fn symmetric_generator_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = QapInstance::random_symmetric(&mut rng, 12);
        assert!(inst.is_symmetric());
        // uniform generator generally is not
        let inst2 = QapInstance::random_uniform(&mut rng, 12);
        let _ = inst2.is_symmetric(); // no assertion — just must not panic
    }

    #[test]
    fn read_rejects_sizes_whose_square_overflows() {
        for n in [0u64, 1, (1 << 14) + 1, 1 << 32, u64::MAX] {
            let mut bytes = Vec::new();
            n.write(&mut bytes);
            Vec::<i64>::new().write(&mut bytes);
            Vec::<i64>::new().write(&mut bytes);
            let err = QapInstance::read(&mut lnls_core::Reader::new(&bytes)).unwrap_err();
            assert!(err.0.contains("implausible QAP size"), "n = {n}: {err:?}");
        }
        let inst = tiny();
        let mut bytes = Vec::new();
        inst.write(&mut bytes);
        assert_eq!(QapInstance::read(&mut lnls_core::Reader::new(&bytes)).unwrap(), inst);
    }

    #[test]
    fn parse_rejects_implausible_sizes_and_negative_entries() {
        for text in ["-3 1 2", "4294967296", "1 0 0"] {
            assert!(QapInstance::parse(text).unwrap_err().contains("implausible"), "{text}");
        }
        let negative = "2\n0 1 1 0\n0 -1 1 0\n";
        assert!(QapInstance::parse(negative).unwrap_err().contains("negative"));
    }

    #[test]
    #[should_panic(expected = "n×n")]
    fn wrong_size_rejected() {
        let _ = QapInstance::new(3, vec![0; 8], vec![0; 9]);
    }
}
