//! The KNN submodular function and its maximizers.
//!
//! `f(S) = Σ_{p∈P} max_{s∈S} w(p, s)` over a non-negative similarity matrix
//! `w` is a facility-location function: normalized (`f(∅) = 0`), monotone,
//! and submodular (paper Theorem 1). The greedy maximizer therefore enjoys
//! the classic `1 − 1/e` guarantee (Nemhauser et al., 1978); the lazy
//! variant exploits that marginal gains only shrink; stochastic greedy
//! (Mirzasoleiman et al., 2015) keeps `1 − 1/e − ε` in expectation on a
//! vanishing fraction of the evaluations; and sieve-streaming
//! (Badanidiyuru et al., 2014) gives `1/2 − ε` in a single pass — the
//! sublinear party-axis path for consortia far beyond the paper's ≤32
//! participants (DESIGN.md §12).
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
/// `Greedy` and `Lazy` are exact (`1 − 1/e`, identical sets); `Stochastic`
/// keeps `1 − 1/e − ε` in expectation on `O(n·ln(1/ε))` evaluations;
/// `Sieve` is the single-pass streaming maximizer with the `1/2 − ε`
/// guarantee. Every variant is bit-deterministic at any thread count — the
/// stochastic sampler is seed-addressed, never scheduler-dependent.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Maximizer {
    /// Full greedy: `Σᵢ (n − i)` gain evaluations.
    #[default]
    Greedy,
    /// Lazy greedy (Minoux): same set as greedy, far fewer evaluations.
    Lazy,
    /// Stochastic greedy with sample parameter `epsilon ∈ (0, 1)`.
    Stochastic {
        /// Guarantee slack: each round samples `⌈(n/size)·ln(1/ε)⌉`
        /// candidates.
        epsilon: f64,
    },
    /// Sieve-streaming with threshold-ladder resolution `epsilon ∈ (0, 1)`.
    Sieve {
        /// Ladder resolution: thresholds grow geometrically by `1 + ε`.
        epsilon: f64,
    },
}

impl Maximizer {
    /// Stable wire/cache tag: 0 = greedy, 1 = lazy, 2 = stochastic,
    /// 3 = sieve.
    #[must_use]
    pub fn kind(self) -> u8 {
        match self {
            Maximizer::Greedy => 0,
            Maximizer::Lazy => 1,
            Maximizer::Stochastic { .. } => 2,
            Maximizer::Sieve { .. } => 3,
        }
    }

    /// The approximation parameter, for the variants that have one.
    #[must_use]
    pub fn epsilon(self) -> Option<f64> {
        match self {
            Maximizer::Greedy | Maximizer::Lazy => None,
            Maximizer::Stochastic { epsilon } | Maximizer::Sieve { epsilon } => Some(epsilon),
        }
    }

    /// Inverse of [`Maximizer::kind`]: maps a tag byte back to a variant,
    /// attaching `epsilon` to the approximate ones. `None` for unknown
    /// bytes — the single mapping point the service protocol validates
    /// against (mirroring `knn_mode`).
    #[must_use]
    pub fn from_kind(kind: u8, epsilon: f64) -> Option<Maximizer> {
        match kind {
            0 => Some(Maximizer::Greedy),
            1 => Some(Maximizer::Lazy),
            2 => Some(Maximizer::Stochastic { epsilon }),
            3 => Some(Maximizer::Sieve { epsilon }),
            _ => None,
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Maximizer::Greedy => "greedy",
            Maximizer::Lazy => "lazy",
            Maximizer::Stochastic { .. } => "stochastic",
            Maximizer::Sieve { .. } => "sieve",
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
    /// maximizer performed. `seed` feeds the stochastic sampler (the
    /// deterministic maximizers ignore it); every variant is bit-identical
    /// at any thread count of `pool`.
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
            Maximizer::Greedy => self.greedy(size, pool),
            Maximizer::Lazy => self.lazy_greedy(size, pool),
            Maximizer::Stochastic { epsilon } => self.stochastic_greedy(size, epsilon, seed, pool),
            Maximizer::Sieve { epsilon } => self.sieve_streaming(size, epsilon, pool),
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

    /// Greedy maximization: repeatedly add the element with the largest
    /// marginal gain, `Σᵢ (n − i)` evaluations in all. Ties break toward
    /// the smaller index (total-order argmax — see DESIGN.md §12).
    ///
    /// Gains are evaluated on `pool`; the argmax scan stays sequential
    /// over the ordered gain vector, so the chosen set matches a
    /// single-threaded run exactly.
    fn greedy(&self, size: usize, pool: &vfps_par::Pool) -> (Vec<usize>, usize) {
        let n = self.ground_size();
        let mut chosen = Vec::with_capacity(size);
        let mut in_set = vec![false; n];
        let mut best = vec![0.0f64; n];
        let mut evaluations = 0usize;
        for _ in 0..size {
            let candidates: Vec<usize> = (0..n).filter(|&v| !in_set[v]).collect();
            let gains = self.candidate_gains(&best, &candidates, pool);
            evaluations += candidates.len();
            let (v, _) = argmax(candidates.iter().copied().zip(gains.iter().copied()))
                .expect("ground set not exhausted");
            in_set[v] = true;
            chosen.push(v);
            self.absorb(&mut best, v);
        }
        (chosen, evaluations)
    }

    /// Lazy greedy ("accelerated greedy", Minoux 1978): keeps stale gains
    /// in a max-heap and only re-evaluates the top — valid because
    /// submodularity guarantees gains never grow. Returns greedy's set
    /// (the heap order is the same total-order-then-smaller-index rule
    /// the eager argmax uses).
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

    /// Sieve-streaming (Badanidiyuru et al., KDD 2014): one pass over the
    /// ground set against a geometric ladder of OPT guesses
    /// `τ = (1+ε)^i ∈ [m, 2·size·m]` (with `m` the running maximum
    /// singleton value); each guess keeps a set and admits an element
    /// whose marginal gain reaches `(τ/2 − f(S)) / (size − |S|)`. The best
    /// surviving set carries the `1/2 − ε` guarantee in `O(n·log(size)/ε)`
    /// work and `O(n·log(size)/ε)` memory.
    ///
    /// Two properties keep it cheap and deterministic:
    ///
    /// * by submodularity `gain(S, v) ≤ f({v})`, so a ladder level whose
    ///   admission requirement exceeds the element's singleton value is
    ///   skipped without an evaluation — most elements touch only the few
    ///   lowest levels;
    /// * per element, the surviving levels' gains are evaluated on `pool`
    ///   in ladder order ([`vfps_par::Pool::par_map_indexed`] preserves
    ///   order), so the result is bit-identical at any thread count.
    ///
    /// If the pass keeps fewer than `size` elements the result is padded
    /// with the smallest-index unchosen elements, so the returned set
    /// always has exactly `size` elements (monotonicity: padding never
    /// lowers `f`). The evaluation count includes the singleton probes.
    fn sieve_streaming(
        &self,
        size: usize,
        epsilon: f64,
        pool: &vfps_par::Pool,
    ) -> (Vec<usize>, usize) {
        struct Sieve {
            level: i32,
            threshold: f64,
            set: Vec<usize>,
            best: Vec<f64>,
            value: f64,
        }

        let n = self.ground_size();
        if size == 0 {
            return (Vec::new(), 0);
        }

        let log_base = (1.0 + epsilon).ln();
        let level_of = |x: f64| x.ln() / log_base;
        let zero = vec![0.0f64; n];
        let mut sieves: Vec<Sieve> = Vec::new();
        let mut max_singleton = 0.0f64;
        let mut evaluations = 0usize;

        for v in 0..n {
            evaluations += 1;
            let sv = self.gain(&zero, v);
            if sv > max_singleton {
                max_singleton = sv;
                // Refresh the ladder: keep levels with (1+ε)^i ∈
                // [m, 2·size·m], instantiate missing ones empty.
                let lo = level_of(max_singleton).ceil() as i32;
                let hi = level_of(2.0 * size as f64 * max_singleton).floor() as i32;
                sieves.retain(|s| s.level >= lo);
                for level in lo..=hi {
                    if !sieves.iter().any(|s| s.level == level) {
                        sieves.push(Sieve {
                            level,
                            threshold: (1.0 + epsilon).powi(level),
                            set: Vec::new(),
                            best: vec![0.0f64; n],
                            value: 0.0,
                        });
                    }
                }
                sieves.sort_unstable_by_key(|s| s.level);
            }
            if sv <= 0.0 {
                continue; // a zero column can never meet a positive requirement
            }
            let requirement =
                |s: &Sieve| (s.threshold / 2.0 - s.value) / (size - s.set.len()) as f64;
            // Submodular upper bound: gain(S, v) ≤ f({v}) = sv, so levels
            // whose requirement already exceeds sv are skipped unevaluated.
            let need: Vec<usize> = sieves
                .iter()
                .enumerate()
                .filter(|(_, s)| s.set.len() < size && sv >= requirement(s))
                .map(|(i, _)| i)
                .collect();
            if need.is_empty() {
                continue;
            }
            let gains = pool.par_map_indexed(&need, |_, &i| self.gain(&sieves[i].best, v));
            evaluations += need.len();
            for (&i, &g) in need.iter().zip(&gains) {
                if g >= requirement(&sieves[i]) {
                    let s = &mut sieves[i];
                    s.set.push(v);
                    s.value += g;
                    self.absorb(&mut s.best, v);
                }
            }
        }

        // Best surviving guess; value ties break toward the lower level.
        let mut chosen = sieves
            .iter()
            .max_by(|a, b| a.value.total_cmp(&b.value).then(b.level.cmp(&a.level)))
            .map(|s| s.set.clone())
            .unwrap_or_default();
        if chosen.len() < size {
            let mut in_set = vec![false; n];
            for &v in &chosen {
                in_set[v] = true;
            }
            for v in 0..n {
                if chosen.len() == size {
                    break;
                }
                if !in_set[v] {
                    chosen.push(v);
                }
            }
        }
        (chosen, evaluations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXACT: [Maximizer; 2] = [Maximizer::Greedy, Maximizer::Lazy];
    const EVERY: [Maximizer; 4] = [
        Maximizer::Greedy,
        Maximizer::Lazy,
        Maximizer::Stochastic { epsilon: 0.1 },
        Maximizer::Sieve { epsilon: 0.2 },
    ];

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

    fn greedy(f: &KnnSubmodular, size: usize) -> Vec<usize> {
        run(f, size, Maximizer::Greedy).0
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
    fn greedy_prefers_diversity_over_duplicates() {
        let chosen = greedy(&toy(), 2);
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
            assert_eq!(greedy(&f, size), lz, "size {size}");
            assert!(evals >= f.ground_size());
        }
    }

    #[test]
    fn greedy_achieves_approximation_bound() {
        let f = toy();
        for size in 1..=3 {
            let greedy_val = f.eval(&greedy(&f, size));
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
        assert_eq!(greedy(&f, 1), vec![n - 1]);
        // Descending layout: the maximum sits first.
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(greedy(&build(&rev), 1), vec![0]);

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
        let (_, greedy_evals) = run(&f, size, Maximizer::Greedy);
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
            assert_eq!(stoch, run(&f, size, Maximizer::Greedy), "size {size}");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn stochastic_greedy_rejects_bad_epsilon() {
        let _ = run(&toy(), 2, Maximizer::Stochastic { epsilon: 1.5 });
    }

    #[test]
    fn sieve_streaming_returns_full_sized_near_greedy_sets() {
        let f = KnnSubmodular::new(random_instance(60, 4));
        for size in [1usize, 5, 12] {
            let (set, evals) = run(&f, size, Maximizer::Sieve { epsilon: 0.2 });
            assert_eq!(set.len(), size, "sieve must pad to exactly {size}");
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), size, "no duplicates");
            assert!(evals >= f.ground_size(), "at least one singleton probe per element");
            let greedy_val = f.eval(&greedy(&f, size));
            let bound = (0.5 - 0.2) * greedy_val;
            assert!(
                f.eval(&set) >= bound,
                "size {size}: sieve {} below bound {bound}",
                f.eval(&set)
            );
        }
    }

    #[test]
    fn sieve_streaming_handles_degenerate_instances() {
        let sieve = Maximizer::Sieve { epsilon: 0.1 };
        // All-zero similarity: no sieve ever instantiates; the result is
        // the deterministic ascending-index padding.
        let f = KnnSubmodular::new(vec![vec![0.0; 3]; 3]);
        let (set, _) = run(&f, 2, sieve);
        assert_eq!(set, vec![0, 1]);
        // size 0 selects nothing.
        let (set, evals) = run(&f, 0, sieve);
        assert!(set.is_empty());
        assert_eq!(evals, 0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn sieve_streaming_rejects_bad_epsilon() {
        let _ = run(&toy(), 2, Maximizer::Sieve { epsilon: 0.0 });
    }

    #[test]
    fn maximize_dispatches_every_variant() {
        // Each variant's evaluation count identifies it: greedy's is
        // Σᵢ (n − i), lazy's is smaller for the same set, stochastic's is
        // size × ⌈(n/size)·ln(1/ε)⌉ = 6 × 12, and sieve's one probe per
        // element plus its ladder admissions.
        let f = KnnSubmodular::new(random_instance(30, 5));
        let pool = vfps_par::Pool::with_threads(2);
        let size = 6;
        let (greedy_set, ge) = f.maximize(size, Maximizer::Greedy, 0, &pool);
        assert_eq!(ge, (0..size).map(|i| 30 - i).sum::<usize>());
        let (lazy, le) = f.maximize(size, Maximizer::Lazy, 0, &pool);
        assert_eq!(lazy, greedy_set, "lazy returns the greedy set");
        assert!(le < ge, "lazy {le} vs greedy {ge}");
        let (stoch, se) = f.maximize(size, Maximizer::Stochastic { epsilon: 0.1 }, 7, &pool);
        assert_eq!((stoch.len(), se), (size, 72));
        let (sieve, ve) = f.maximize(size, Maximizer::Sieve { epsilon: 0.2 }, 0, &pool);
        assert_eq!(sieve.len(), size);
        assert!(ve >= 30, "sieve probes every element: {ve}");
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
    fn exact_greedy_gains_never_increase_along_the_selection() {
        // Pick i + 1's gain at S_i is at most its gain at S_{i−1}
        // (submodularity), which is at most pick i's (the argmax), and
        // each step of that chain is exact in floating point.
        let f = KnnSubmodular::new(random_instance(25, 11));
        for m in EXACT {
            let scored = f.maximize_scored(12, m, 0, vfps_par::global());
            assert!(scored.windows(2).all(|w| w[1].1 <= w[0].1), "{m:?}: {scored:?}");
        }
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
        for m in [
            Maximizer::Greedy,
            Maximizer::Lazy,
            Maximizer::Stochastic { epsilon: 0.25 },
            Maximizer::Sieve { epsilon: 0.25 },
        ] {
            assert_eq!(Maximizer::from_kind(m.kind(), 0.25), Some(m), "{}", m.name());
        }
        for bad in [4u8, 100, 250, 255] {
            assert_eq!(Maximizer::from_kind(bad, 0.1), None, "kind {bad} must not map");
        }
    }

    #[test]
    fn greedy_is_identical_across_thread_counts() {
        let f = KnnSubmodular::new(random_instance(48, 7));
        let single = vfps_par::Pool::with_threads(1);
        for m in EXACT {
            let reference = f.maximize(12, m, 0, &single);
            for threads in [2usize, 4, 8] {
                let pool = vfps_par::Pool::with_threads(threads);
                assert_eq!(f.maximize(12, m, 0, &pool), reference, "{m:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn stochastic_and_sieve_are_identical_across_thread_counts() {
        let f = KnnSubmodular::new(random_instance(72, 9));
        let single = vfps_par::Pool::with_threads(1);
        for m in [Maximizer::Stochastic { epsilon: 0.15 }, Maximizer::Sieve { epsilon: 0.15 }] {
            let reference = f.maximize(10, m, 42, &single);
            for threads in [2usize, 4, 8] {
                let pool = vfps_par::Pool::with_threads(threads);
                assert_eq!(f.maximize(10, m, 42, &pool), reference, "{m:?} at {threads} threads");
            }
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
