//! The KNN submodular function and its maximizers.
//!
//! `f(S) = Σ_{p∈P} max_{s∈S} w(p, s)` over a non-negative similarity matrix
//! `w` is a facility-location function: normalized (`f(∅) = 0`), monotone,
//! and submodular (paper Theorem 1). Greedy maximization therefore enjoys
//! the classic `1 − 1/e` guarantee (Nemhauser et al., 1978). Two
//! maximizers run it: lazy greedy returns greedy's set by exploiting that
//! marginal gains only shrink, and stochastic greedy (Mirzasoleiman et
//! al., 2015) keeps `1 − 1/e − ε` in expectation on a vanishing fraction
//! of the evaluations — the sublinear party-axis path for consortia far
//! beyond the paper's ≤32 participants (DESIGN.md §12).
//!
//! [`KnnSubmodular::maximize`] is the one way to run a maximizer; it runs
//! over the dense `P × P` matrix the selection's accumulator produced.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic argmax over `(index, value)` pairs: the largest value
/// under `f64::total_cmp`, ties broken toward the smaller index.
///
/// `total_cmp` is a total order, so the winner is independent of the scan
/// order. The previous per-maximizer ±1e-15 tolerance rules were
/// non-transitive — a chain of gains each within the tolerance of the next
/// made the winner depend on iteration order, and the greedy variants
/// disagreed with each other on the same ties.
fn argmax(pairs: impl IntoIterator<Item = (usize, f64)>) -> Option<(usize, f64)> {
    let mut top: Option<(usize, f64)> = None;
    for (v, g) in pairs {
        let better = match top {
            None => true,
            Some((tv, tg)) => match g.total_cmp(&tg) {
                Ordering::Greater => true,
                Ordering::Equal => v < tv,
                Ordering::Less => false,
            },
        };
        if better {
            top = Some((v, g));
        }
    }
    top
}

/// Partial Fisher–Yates: after the call, `cand[..take]` is a uniform
/// sample without replacement. Draws from `rng` sequentially, so the
/// sample is a pure function of the RNG state — never of thread count.
fn partial_shuffle(cand: &mut [usize], take: usize, rng: &mut StdRng) {
    for i in 0..take.min(cand.len()) {
        let j = i + rng.gen_range(0..cand.len() - i);
        cand.swap(i, j);
    }
}

/// Which maximizer runs a selection's accumulate → maximize tail.
///
/// `Lazy` is exact: greedy's `1 − 1/e` set, in greedy's order. `Stochastic`
/// keeps `1 − 1/e − ε` in expectation on `O(n·ln(1/ε))` evaluations. Both
/// are bit-deterministic at any thread count — the stochastic sampler is
/// seed-addressed, never scheduler-dependent.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Maximizer {
    /// Lazy greedy (Minoux): greedy's set, far fewer evaluations.
    #[default]
    Lazy,
    /// Stochastic greedy with sample parameter `epsilon ∈ (0, 1)`.
    Stochastic {
        /// Guarantee slack: each round samples `⌈(n/size)·ln(1/ε)⌉`
        /// candidates.
        epsilon: f64,
    },
}

impl Maximizer {
    /// Stable cache tag: 0 = lazy, 2 = stochastic. Lazy keeps the tag exact
    /// greedy's entries carry, since it selects the same set.
    #[must_use]
    pub fn kind(self) -> u8 {
        match self {
            Maximizer::Lazy => 0,
            Maximizer::Stochastic { .. } => 2,
        }
    }

    /// The approximation parameter, for the variant that has one.
    #[must_use]
    pub fn epsilon(self) -> Option<f64> {
        match self {
            Maximizer::Lazy => None,
            Maximizer::Stochastic { epsilon } => Some(epsilon),
        }
    }

    /// Maps a wire byte to a variant, attaching `epsilon` to stochastic:
    /// 0 (exact greedy, whose set lazy returns) and 1 are lazy, 2 is
    /// stochastic. `None` for any other byte, the retired sieve's 3
    /// included — the single mapping point the service protocol validates
    /// against (mirroring `knn_mode`).
    #[must_use]
    pub fn from_kind(kind: u8, epsilon: f64) -> Option<Maximizer> {
        match kind {
            0 | 1 => Some(Maximizer::Lazy),
            2 => Some(Maximizer::Stochastic { epsilon }),
            _ => None,
        }
    }
}

/// The facility-location objective over a participant-similarity matrix.
#[derive(Clone, Debug)]
pub struct KnnSubmodular {
    w: Vec<Vec<f64>>,
}

impl KnnSubmodular {
    /// Wraps a square, non-negative similarity matrix `w[p][s]`.
    ///
    /// # Panics
    /// Panics on a non-square or negative matrix.
    #[must_use]
    pub fn new(w: Vec<Vec<f64>>) -> Self {
        let n = w.len();
        assert!(w.iter().all(|row| row.len() == n), "similarity matrix must be square");
        assert!(
            w.iter().flatten().all(|&v| v >= 0.0 && v.is_finite()),
            "similarities must be finite and non-negative"
        );
        KnnSubmodular { w }
    }

    /// Ground-set size.
    fn ground_size(&self) -> usize {
        self.w.len()
    }

    /// The raw similarity `w(p, s)`.
    #[must_use]
    pub fn similarity(&self, p: usize, s: usize) -> f64 {
        self.w[p][s]
    }

    /// Evaluates `f(S)`.
    #[must_use]
    pub fn eval(&self, subset: &[usize]) -> f64 {
        if subset.is_empty() {
            return 0.0;
        }
        self.w
            .iter()
            .map(|row| subset.iter().map(|&s| row[s]).fold(f64::NEG_INFINITY, f64::max))
            .sum()
    }

    /// Marginal gain `f(S ∪ {v}) − f(S)` given the running per-`p` maxima
    /// `best[p] = max_{s∈S} w(p, s)` (use `0.0` for the empty set).
    #[must_use]
    pub fn gain(&self, best: &[f64], v: usize) -> f64 {
        self.w.iter().zip(best).map(|(row, &b)| (row[v] - b).max(0.0)).sum()
    }

    /// Folds candidate `v`'s column into the running per-party maxima.
    fn absorb(&self, best: &mut [f64], v: usize) {
        for (b, row) in best.iter_mut().zip(&self.w) {
            *b = b.max(row[v]);
        }
    }

    /// Marginal gains of every candidate not yet in the set, evaluated on
    /// `pool` in index order. Each gain is an independent pass over `w`,
    /// and [`vfps_par::Pool::par_map_indexed`] returns results in input
    /// order, so the vector is bit-identical at any thread count.
    fn candidate_gains(
        &self,
        best: &[f64],
        candidates: &[usize],
        pool: &vfps_par::Pool,
    ) -> Vec<f64> {
        pool.par_map_indexed(candidates, |_, &v| self.gain(best, v))
    }

    /// Runs `maximizer` for a `size`-element selection. Returns the chosen
    /// set in selection order and the number of `gain()` evaluations the
    /// maximizer performed. `seed` feeds the stochastic sampler (lazy
    /// ignores it); both variants are bit-identical at any thread count of
    /// `pool`.
    ///
    /// # Panics
    /// Panics if `size` exceeds the ground set or the maximizer's
    /// `epsilon` is not in `(0, 1)`.
    #[must_use]
    pub fn maximize(
        &self,
        size: usize,
        maximizer: Maximizer,
        seed: u64,
        pool: &vfps_par::Pool,
    ) -> (Vec<usize>, usize) {
        let n = self.ground_size();
        assert!(size <= n, "cannot select {size} of {n}");
        if let Some(epsilon) = maximizer.epsilon() {
            assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        }
        match maximizer {
            Maximizer::Lazy => self.lazy_greedy(size, pool),
            Maximizer::Stochastic { epsilon } => self.stochastic_greedy(size, epsilon, seed, pool),
        }
    }

    /// [`KnnSubmodular::maximize`], with each chosen index paired with its
    /// marginal gain `f(S_i) − f(S_{i−1})` at pick time, in selection
    /// order.
    ///
    /// # Panics
    /// As [`KnnSubmodular::maximize`].
    #[must_use]
    pub fn maximize_scored(
        &self,
        size: usize,
        maximizer: Maximizer,
        seed: u64,
        pool: &vfps_par::Pool,
    ) -> Vec<(usize, f64)> {
        let (chosen, _evals) = self.maximize(size, maximizer, seed, pool);
        let mut best = vec![0.0f64; self.ground_size()];
        chosen
            .into_iter()
            .map(|v| {
                let gain = self.gain(&best, v);
                self.absorb(&mut best, v);
                (v, gain)
            })
            .collect()
    }

    /// Lazy greedy ("accelerated greedy", Minoux 1978): keeps stale gains
    /// in a max-heap and only re-evaluates the top — valid because
    /// submodularity guarantees gains never grow, in floating point too
    /// (each term `(w − b).max(0)` only shrinks as `b` grows, and rounding
    /// is monotone). Returns greedy's set in greedy's order: the heap
    /// order is the total-order-then-smaller-index rule of `argmax`.
    ///
    /// The initial round-0 gain sweep (the `n` evaluations that dominate
    /// when laziness works) runs on `pool`; the heap refresh loop is
    /// inherently sequential and stays so.
    fn lazy_greedy(&self, size: usize, pool: &vfps_par::Pool) -> (Vec<usize>, usize) {
        #[derive(PartialEq)]
        struct Entry {
            gain: f64,
            v: usize,
            round: usize,
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                self.gain.total_cmp(&other.gain).then(other.v.cmp(&self.v))
            }
        }

        let n = self.ground_size();
        let mut best = vec![0.0f64; n];
        let mut chosen = Vec::with_capacity(size);
        let mut evaluations = n;
        let all: Vec<usize> = (0..n).collect();
        let initial = self.candidate_gains(&best, &all, pool);
        let mut heap: BinaryHeap<Entry> =
            initial.into_iter().enumerate().map(|(v, gain)| Entry { gain, v, round: 0 }).collect();
        let mut round = 0usize;
        while chosen.len() < size {
            let top = heap.pop().expect("heap never empties before size reached");
            if top.round == round {
                chosen.push(top.v);
                round += 1;
                self.absorb(&mut best, top.v);
            } else {
                evaluations += 1;
                let fresh = self.gain(&best, top.v);
                heap.push(Entry { gain: fresh, v: top.v, round });
            }
        }
        (chosen, evaluations)
    }

    /// Stochastic greedy (Mirzasoleiman et al., AAAI 2015 — "Lazier than
    /// lazy greedy", cited by the paper): each step evaluates only a
    /// random sample of `⌈(n/size)·ln(1/ε)⌉` candidates, achieving a
    /// `1 − 1/e − ε` guarantee in expectation with `O(n·ln(1/ε))` total
    /// evaluations.
    ///
    /// Round `r`'s sample comes from a fresh RNG derived via
    /// [`vfps_par::split_seed`]`(seed, r)` and is drawn on the calling
    /// thread; only the sampled gains are evaluated on `pool`, in sample
    /// order. The selection is thus a pure function of
    /// `(w, size, epsilon, seed)`, bit-identical at any thread count.
    fn stochastic_greedy(
        &self,
        size: usize,
        epsilon: f64,
        seed: u64,
        pool: &vfps_par::Pool,
    ) -> (Vec<usize>, usize) {
        let n = self.ground_size();
        let sample_size = if size == 0 {
            0
        } else {
            (((n as f64 / size as f64) * (1.0 / epsilon).ln()).ceil() as usize).clamp(1, n)
        };
        let mut chosen = Vec::with_capacity(size);
        let mut in_set = vec![false; n];
        let mut best = vec![0.0f64; n];
        let mut evaluations = 0usize;
        for round in 0..size {
            // Sample candidates without replacement from the remainder.
            let mut cand: Vec<usize> = (0..n).filter(|&v| !in_set[v]).collect();
            let take = sample_size.min(cand.len());
            let mut rng = StdRng::seed_from_u64(vfps_par::split_seed(seed, round as u64));
            partial_shuffle(&mut cand, take, &mut rng);
            let sample = &cand[..take];
            let gains = self.candidate_gains(&best, sample, pool);
            evaluations += take;
            let (v, _) = argmax(sample.iter().copied().zip(gains.iter().copied()))
                .expect("sample is non-empty");
            in_set[v] = true;
            chosen.push(v);
            self.absorb(&mut best, v);
        }
        (chosen, evaluations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const EVERY: [Maximizer; 2] = [Maximizer::Lazy, Maximizer::Stochastic { epsilon: 0.1 }];

    fn toy() -> KnnSubmodular {
        // 4 participants; 0 and 1 are near-duplicates, 2 is diverse,
        // 3 is mediocre.
        KnnSubmodular::new(vec![
            vec![1.00, 0.95, 0.20, 0.40],
            vec![0.95, 1.00, 0.25, 0.45],
            vec![0.20, 0.25, 1.00, 0.30],
            vec![0.40, 0.45, 0.30, 1.00],
        ])
    }

    fn random_instance(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            w[i][i] = 1.0;
            for j in 0..i {
                let v: f64 = rng.gen_range(0.0..1.0);
                w[i][j] = v;
                w[j][i] = v;
            }
        }
        w
    }

    /// `maximize` on the global pool with seed 0.
    fn run(f: &KnnSubmodular, size: usize, m: Maximizer) -> (Vec<usize>, usize) {
        f.maximize(size, m, 0, vfps_par::global())
    }

    /// Eager greedy, the oracle lazy greedy is held to: repeatedly add
    /// the element with the largest marginal gain, `Σᵢ (n − i)`
    /// evaluations in all, ties toward the smaller index. Returns each
    /// pick with the gain it won at, and the evaluation count.
    fn greedy_scored(f: &KnnSubmodular, size: usize) -> (Vec<(usize, f64)>, usize) {
        let n = f.ground_size();
        let mut picks = Vec::with_capacity(size);
        let mut in_set = vec![false; n];
        let mut best = vec![0.0f64; n];
        let mut evaluations = 0usize;
        for _ in 0..size {
            let candidates: Vec<usize> = (0..n).filter(|&v| !in_set[v]).collect();
            let gains = f.candidate_gains(&best, &candidates, vfps_par::global());
            evaluations += candidates.len();
            let (v, gain) = argmax(candidates.iter().copied().zip(gains.iter().copied()))
                .expect("ground set not exhausted");
            in_set[v] = true;
            picks.push((v, gain));
            f.absorb(&mut best, v);
        }
        (picks, evaluations)
    }

    /// The oracle's picks and evaluation count.
    fn greedy(f: &KnnSubmodular, size: usize) -> (Vec<usize>, usize) {
        let (picks, evaluations) = greedy_scored(f, size);
        (picks.into_iter().map(|(v, _)| v).collect(), evaluations)
    }

    /// Exhaustive maximization (exponential; at most 20 elements).
    fn brute_force(f: &KnnSubmodular, size: usize) -> (Vec<usize>, f64) {
        let n = f.ground_size();
        assert!(n <= 20, "brute force limited to 20 elements");
        let mut best: Option<(Vec<usize>, f64)> = None;
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != size {
                continue;
            }
            let subset: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            let v = f.eval(&subset);
            if best.as_ref().map(|(_, bv)| v > *bv).unwrap_or(true) {
                best = Some((subset, v));
            }
        }
        best.expect("at least one subset of the requested size")
    }

    #[test]
    fn normalized_and_monotone() {
        let f = toy();
        assert_eq!(f.eval(&[]), 0.0);
        let mut prev = 0.0;
        let mut set = Vec::new();
        for v in 0..4 {
            set.push(v);
            let cur = f.eval(&set);
            assert!(cur >= prev - 1e-12, "monotone violated at {v}");
            prev = cur;
        }
    }

    #[test]
    fn submodularity_on_all_chains() {
        // f(A ∪ v) - f(A) >= f(B ∪ v) - f(B) for all A ⊆ B, v ∉ B.
        let f = toy();
        let n = 4;
        for a_mask in 0u32..(1 << n) {
            for b_mask in 0u32..(1 << n) {
                if a_mask & b_mask != a_mask {
                    continue; // A not subset of B
                }
                for v in 0..n {
                    if b_mask >> v & 1 == 1 {
                        continue;
                    }
                    let set =
                        |m: u32| -> Vec<usize> { (0..n).filter(|&i| m >> i & 1 == 1).collect() };
                    let (a, b) = (set(a_mask), set(b_mask));
                    let mut av = a.clone();
                    av.push(v);
                    let mut bv = b.clone();
                    bv.push(v);
                    let ga = f.eval(&av) - f.eval(&a);
                    let gb = f.eval(&bv) - f.eval(&b);
                    assert!(ga >= gb - 1e-12, "A={a:?} B={b:?} v={v}");
                }
            }
        }
    }

    #[test]
    fn lazy_prefers_diversity_over_duplicates() {
        let (chosen, _) = run(&toy(), 2, Maximizer::Lazy);
        // Best pair must include the diverse participant 2, not the
        // duplicate pair {0, 1}.
        assert!(chosen.contains(&2), "chosen={chosen:?}");
        assert!(!(chosen.contains(&0) && chosen.contains(&1)));
    }

    #[test]
    fn greedy_matches_lazy_greedy() {
        let f = toy();
        for size in 1..=4 {
            let (lz, evals) = run(&f, size, Maximizer::Lazy);
            assert_eq!(greedy(&f, size).0, lz, "size {size}");
            assert!(evals >= f.ground_size());
        }
    }

    /// A square matrix whose cells are `level / levels`, so most gains tie.
    fn tied_instance() -> impl Strategy<Value = KnnSubmodular> {
        (1usize..14, 1u32..4).prop_flat_map(|(n, levels)| {
            collection::vec(0..=levels, n * n).prop_map(move |cells| {
                let w = cells
                    .chunks(n)
                    .map(|row| row.iter().map(|&c| f64::from(c) / f64::from(levels)).collect())
                    .collect();
                KnnSubmodular::new(w)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Where most gains tie, lazy greedy still returns the eager
        /// oracle's picks in the oracle's order, `maximize_scored` reports
        /// the gains the oracle's argmax won at bit for bit, and lazy never
        /// evaluates more than the oracle.
        #[test]
        fn lazy_equals_the_greedy_oracle_on_tied_instances(
            f in tied_instance(),
            size in 0usize..14,
        ) {
            let size = size.min(f.ground_size());
            let (oracle, oracle_evals) = greedy_scored(&f, size);
            let lazy = f.maximize_scored(size, Maximizer::Lazy, 0, vfps_par::global());
            let bits = |picks: &[(usize, f64)]| -> Vec<(usize, u64)> {
                picks.iter().map(|&(v, g)| (v, g.to_bits())).collect()
            };
            prop_assert_eq!(bits(&lazy), bits(&oracle));
            if size > 0 {
                let (_, lazy_evals) = run(&f, size, Maximizer::Lazy);
                prop_assert!(lazy_evals <= oracle_evals, "{} vs {}", lazy_evals, oracle_evals);
            }
        }
    }

    #[test]
    fn lazy_achieves_approximation_bound() {
        let f = toy();
        for size in 1..=3 {
            let greedy_val = f.eval(&run(&f, size, Maximizer::Lazy).0);
            let (_, opt) = brute_force(&f, size);
            assert!(
                greedy_val >= (1.0 - 1.0 / std::f64::consts::E) * opt - 1e-12,
                "size {size}: {greedy_val} vs opt {opt}"
            );
        }
    }

    #[test]
    fn argmax_is_transitive_on_sub_tolerance_gain_chains() {
        // Regression for the old ±1e-15 tolerance argmax: gains spaced one
        // ulp (~1e-16 at this magnitude) apart formed a chain where every
        // neighbor was "tied", so the winner depended on scan order — and
        // greedy and stochastic disagreed. The total-order argmax
        // must pick the true maximum regardless of where it sits.
        let mut vals = vec![0.5f64];
        for _ in 0..3 {
            vals.push(f64::from_bits(vals.last().unwrap().to_bits() + 1));
        }
        assert!(vals.windows(2).all(|w| w[1] - w[0] < 1e-15 && w[1] > w[0]));
        let n = vals.len();
        let build = |ordered: &[f64]| {
            // Column sums equal the chain values: row 0 carries the value,
            // the other rows are zero.
            let mut w = vec![vec![0.0f64; n]; n];
            w[0].copy_from_slice(ordered);
            KnnSubmodular::new(w)
        };

        // Ascending layout: the maximum sits last.
        let f = build(&vals);
        assert_eq!(greedy(&f, 1).0, vec![n - 1]);
        assert_eq!(run(&f, 1, Maximizer::Lazy).0, vec![n - 1]);
        // Descending layout: the maximum sits first.
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(greedy(&build(&rev), 1).0, vec![0]);
        assert_eq!(run(&build(&rev), 1, Maximizer::Lazy).0, vec![0]);

        // A stochastic round whose sample covers the full ground set must
        // agree with greedy on the same chain.
        let pool = vfps_par::Pool::with_threads(2);
        let (stoch, _) = f.maximize(1, Maximizer::Stochastic { epsilon: 0.01 }, 7, &pool);
        assert_eq!(stoch, vec![n - 1]);
    }

    #[test]
    fn stochastic_greedy_is_near_optimal() {
        let f = toy();
        let m = Maximizer::Stochastic { epsilon: 0.1 };
        for size in 1..=3 {
            let (_, opt) = brute_force(&f, size);
            // Average over seeds: the guarantee is in expectation.
            let reps = 20;
            let total: f64 = (0..reps)
                .map(|seed| f.eval(&f.maximize(size, m, seed, vfps_par::global()).0))
                .sum();
            let avg = total / reps as f64;
            let bound = (1.0 - 1.0 / std::f64::consts::E - 0.1) * opt;
            assert!(avg >= bound, "size {size}: avg {avg} < bound {bound}");
        }
    }

    #[test]
    fn stochastic_greedy_saves_evaluations_at_scale() {
        // Bigger random instance: stochastic greedy must evaluate fewer
        // candidates than plain greedy's Σᵢ (n − i).
        let f = KnnSubmodular::new(random_instance(60, 2));
        let size = 20;
        let (set, evals) =
            f.maximize(size, Maximizer::Stochastic { epsilon: 0.2 }, 2, vfps_par::global());
        assert_eq!(set.len(), size);
        let (_, greedy_evals) = greedy(&f, size);
        assert!(evals < greedy_evals, "evals {evals} vs greedy's {greedy_evals}");
    }

    #[test]
    fn seeded_stochastic_greedy_is_a_pure_function_of_the_seed() {
        let f = KnnSubmodular::new(random_instance(40, 3));
        let pool = vfps_par::Pool::with_threads(1);
        let m = Maximizer::Stochastic { epsilon: 0.1 };
        let (a, ea) = f.maximize(8, m, 99, &pool);
        let (b, eb) = f.maximize(8, m, 99, &pool);
        assert_eq!(a, b);
        assert_eq!(ea, eb);
        let (c, _) = f.maximize(8, m, 100, &pool);
        assert_ne!(a, c, "a different seed should (here) sample differently");
    }

    #[test]
    fn stochastic_with_a_full_sample_is_exact_greedy() {
        // At ε = 1e-9 every round's sample is the whole remainder, and the
        // total-order argmax does not care in which order the sample was
        // drawn: the set and the evaluation count are greedy's.
        let f = KnnSubmodular::new(random_instance(30, 10));
        for size in 1..=10 {
            let stoch =
                f.maximize(size, Maximizer::Stochastic { epsilon: 1e-9 }, 5, vfps_par::global());
            assert_eq!(stoch, greedy(&f, size), "size {size}");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn stochastic_greedy_rejects_bad_epsilon() {
        let _ = run(&toy(), 2, Maximizer::Stochastic { epsilon: 1.5 });
    }

    #[test]
    fn lazy_on_an_all_zero_matrix_picks_ascending_indices_at_one_refresh_a_round() {
        // Every gain is 0: each round's top is the smallest stale index,
        // refreshed once to the same 0 and then picked.
        let f = KnnSubmodular::new(vec![vec![0.0; 5]; 5]);
        for size in 1..=5 {
            let scored = f.maximize_scored(size, Maximizer::Lazy, 0, vfps_par::global());
            let want: Vec<(usize, f64)> = (0..size).map(|v| (v, 0.0)).collect();
            assert_eq!(scored, want, "size {size}");
            assert_eq!(run(&f, size, Maximizer::Lazy).1, 5 + size - 1, "size {size}");
        }
    }

    #[test]
    fn maximize_dispatches_every_variant() {
        // Each variant's evaluation count identifies it: lazy's is smaller
        // than the greedy oracle's Σᵢ (n − i) for the same set, and
        // stochastic's is size × ⌈(n/size)·ln(1/ε)⌉ = 6 × 12.
        let f = KnnSubmodular::new(random_instance(30, 5));
        let pool = vfps_par::Pool::with_threads(2);
        let size = 6;
        let (greedy_set, ge) = greedy(&f, size);
        assert_eq!(ge, (0..size).map(|i| 30 - i).sum::<usize>());
        let (lazy, le) = f.maximize(size, Maximizer::Lazy, 0, &pool);
        assert_eq!(lazy, greedy_set, "lazy returns the greedy set");
        assert!(le < ge, "lazy {le} vs greedy {ge}");
        let (stoch, se) = f.maximize(size, Maximizer::Stochastic { epsilon: 0.1 }, 7, &pool);
        assert_eq!((stoch.len(), se), (size, 72));
    }

    #[test]
    fn maximize_scored_gains_are_objective_increments() {
        let f = KnnSubmodular::new(random_instance(20, 9));
        let pool = vfps_par::Pool::with_threads(2);
        for m in EVERY {
            let scored = f.maximize_scored(5, m, 3, &pool);
            let chosen: Vec<usize> = scored.iter().map(|&(v, _)| v).collect();
            assert_eq!(chosen, f.maximize(5, m, 3, &pool).0, "{m:?}: same picks as maximize");
            for i in 1..=chosen.len() {
                let step = f.eval(&chosen[..i]) - f.eval(&chosen[..i - 1]);
                assert!((scored[i - 1].1 - step).abs() < 1e-12, "{m:?} pick {i}: {scored:?}");
            }
        }
    }

    #[test]
    fn lazy_gains_never_increase_along_the_selection() {
        // Pick i + 1's gain at S_i is at most its gain at S_{i−1}
        // (submodularity), which is at most pick i's (the argmax), and
        // each step of that chain is exact in floating point.
        let f = KnnSubmodular::new(random_instance(25, 11));
        let scored = f.maximize_scored(12, Maximizer::Lazy, 0, vfps_par::global());
        assert!(scored.windows(2).all(|w| w[1].1 <= w[0].1), "{scored:?}");
    }

    #[test]
    fn every_maximizer_at_full_size_returns_each_party_once() {
        for n in [1usize, 7, 12] {
            let f = KnnSubmodular::new(random_instance(n, n as u64));
            let everyone: Vec<usize> = (0..n).collect();
            for m in EVERY {
                let (mut chosen, _) = run(&f, n, m);
                chosen.sort_unstable();
                assert_eq!(chosen, everyone, "{m:?} at {n} parties");
            }
        }
    }

    #[test]
    fn every_maximizer_refuses_more_than_the_ground_set() {
        let f = KnnSubmodular::new(random_instance(5, 2));
        for m in EVERY {
            let err = std::panic::catch_unwind(|| run(&f, 6, m)).unwrap_err();
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert_eq!(msg, "cannot select 6 of 5", "{m:?}");
        }
    }

    #[test]
    fn maximizer_kind_roundtrips_and_rejects_unknown_bytes() {
        for m in [Maximizer::Lazy, Maximizer::Stochastic { epsilon: 0.25 }] {
            assert_eq!(Maximizer::from_kind(m.kind(), 0.25), Some(m), "{m:?}");
        }
        // Byte 0 named exact greedy, whose set lazy returns; byte 3 named
        // the retired sieve.
        assert_eq!(Maximizer::from_kind(1, 0.25), Some(Maximizer::Lazy));
        for bad in [3u8, 4, 100, 250, 255] {
            assert_eq!(Maximizer::from_kind(bad, 0.1), None, "kind {bad} must not map");
        }
    }

    #[test]
    fn lazy_is_identical_across_thread_counts() {
        let f = KnnSubmodular::new(random_instance(48, 7));
        let single = vfps_par::Pool::with_threads(1);
        let reference = f.maximize(12, Maximizer::Lazy, 0, &single);
        for threads in [2usize, 4, 8] {
            let pool = vfps_par::Pool::with_threads(threads);
            assert_eq!(f.maximize(12, Maximizer::Lazy, 0, &pool), reference, "{threads} threads");
        }
    }

    #[test]
    fn stochastic_is_identical_across_thread_counts() {
        let f = KnnSubmodular::new(random_instance(72, 9));
        let single = vfps_par::Pool::with_threads(1);
        let m = Maximizer::Stochastic { epsilon: 0.15 };
        let reference = f.maximize(10, m, 42, &single);
        for threads in [2usize, 4, 8] {
            let pool = vfps_par::Pool::with_threads(threads);
            assert_eq!(f.maximize(10, m, 42, &pool), reference, "{threads} threads");
        }
    }

    #[test]
    fn gain_is_consistent_with_eval() {
        let f = toy();
        let best: Vec<f64> = (0..4).map(|p| f.similarity(p, 1)).collect();
        for v in [0usize, 2, 3] {
            let direct = f.eval(&[1, v]) - f.eval(&[1]);
            assert!((f.gain(&best, v) - direct).abs() < 1e-12, "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_ragged_matrix() {
        let _ = KnnSubmodular::new(vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_similarity() {
        let _ = KnnSubmodular::new(vec![vec![1.0, -0.1], vec![0.1, 1.0]]);
    }
}
