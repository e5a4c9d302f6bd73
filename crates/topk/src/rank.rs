//! On-demand ranking: `(score, id)` pairs in rank order, materialised only
//! as far as a caller reads.
//!
//! Fagin's sequential phase reads a short prefix of each party's ranking —
//! on the benchmark worlds about 170 of 960 entries — and a leader's top-k
//! reads `k`. [`Ranking`] orders pairs by `(f64::total_cmp, id)`, the order
//! every full sort in the protocols used, but each extension only selects
//! the next slice (`select_nth_unstable`) and sorts that slice. Slices
//! grow geometrically, so reading to the end stays `O(N log N)`.
//!
//! The order is total, and pairs that compare equal are bit-identical, so
//! every prefix equals the same prefix of the full stable sort: callers
//! that switch from sorting to a [`Ranking`] see the same entries, in the
//! same order. A caller that needs only *which* entries rank best, not
//! their order, asks [`Ranking::top_set`], which selects without sorting.

use crate::ItemId;

/// The fewest entries one extension ranks: a top-k read one entry at a
/// time (through [`IntoIter`]) selects once for small `k`.
const MIN_SLICE: usize = 16;

// An id fills the low half of an [`Entry`].
const _: () = assert!(usize::BITS <= 64);

/// One `(score, id)` pair, packed so that comparing two entries is one
/// integer comparison: the high 64 bits are the score's bits mapped so
/// that unsigned order is `f64::total_cmp` order, the low 64 bits the id.
/// The mapping is a bijection, so [`Entry::score`] returns the exact bits
/// that went in (`-0.0`, NaN payloads and all).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry(u128);

impl Entry {
    /// Packs `(score, id)`.
    #[must_use]
    pub fn new(score: f64, id: ItemId) -> Entry {
        let bits = score.to_bits();
        // Negative scores (sign bit set) reverse their order: flip all
        // bits. Non-negative ones only move above them: set the sign bit.
        let key = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
        Entry(u128::from(key) << 64 | id as u128)
    }

    /// The score, bit for bit as packed.
    #[must_use]
    pub fn score(self) -> f64 {
        let key = (self.0 >> 64) as u64;
        f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
    }

    /// The id.
    #[must_use]
    pub fn id(self) -> ItemId {
        self.0 as u64 as ItemId
    }
}

/// `(score, id)` pairs, ranked on demand in ascending `(score, id)` order.
///
/// ```
/// use vfps_topk::Ranking;
///
/// let mut r = Ranking::of_scores(&[0.5, f64::INFINITY, 0.1, 0.5]);
/// let top: Vec<(f64, usize)> = r.prefix(3).iter().map(|e| (e.score(), e.id())).collect();
/// assert_eq!(top, vec![(0.1, 2), (0.5, 0), (0.5, 3)]);
/// let ids: Vec<usize> = r.into_iter().map(|e| e.id()).collect();
/// assert_eq!(ids, vec![2, 0, 3, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct Ranking {
    /// `entries[..ranked]` is the ranked prefix, `entries[..selected]` the
    /// best `selected` entries and `entries[..ahead]` the best `ahead`
    /// (`ranked <= selected <= ahead`); past `ranked` the order is
    /// unspecified.
    entries: Vec<Entry>,
    ranked: usize,
    selected: usize,
    ahead: usize,
    /// Entries handed to `select_nth_unstable` so far.
    #[cfg(test)]
    partitioned: usize,
}

impl Ranking {
    /// Ranks arbitrary `(score, id)` pairs.
    #[must_use]
    pub fn new(pairs: impl IntoIterator<Item = (f64, ItemId)>) -> Self {
        let entries = pairs.into_iter().map(|(s, id)| Entry::new(s, id)).collect();
        Ranking {
            entries,
            ranked: 0,
            selected: 0,
            ahead: 0,
            #[cfg(test)]
            partitioned: 0,
        }
    }

    /// Ranks `scores` by position: the id of `scores[i]` is `i`.
    #[must_use]
    pub fn of_scores(scores: &[f64]) -> Self {
        Ranking::new(scores.iter().copied().zip(0..))
    }

    /// The best `len` entries in rank order (all of them when there are
    /// fewer), ranking further only when the prefix ranked so far is
    /// shorter.
    pub fn prefix(&mut self, len: usize) -> &[Entry] {
        let len = len.min(self.entries.len());
        if len > self.ranked {
            let end = len.max(2 * self.ranked).max(MIN_SLICE).min(self.entries.len());
            self.select(end, end);
            self.entries[self.ranked..end].sort_unstable();
            self.ranked = end;
        }
        &self.entries[..len]
    }

    /// The best `len` entries (all of them when there are fewer), as a
    /// set: the ranked prefix in rank order, the rest in unspecified order.
    ///
    /// While the lengths asked of this and [`Ranking::prefix`] only grow,
    /// each call partitions only the entries past the previous one, so
    /// `top_set(b)[a..]` after `top_set(a)` is the set of entries ranked
    /// `a..b`. A later `prefix` still returns the full sort's prefix.
    ///
    /// Selection looks ahead as `prefix` does: a call past the look-ahead
    /// partitions the unselected remainder once at
    /// `max(len, 2·look-ahead, MIN_SLICE)`, and every call up to that
    /// boundary partitions inside the slice alone. A stream that reads to
    /// depth `D` in steps of `b` then partitions about
    /// `N·log(D) + D²/b` entries, not the `N·D/b` of partitioning the
    /// whole remainder per call.
    pub fn top_set(&mut self, len: usize) -> &[Entry] {
        let len = len.min(self.entries.len());
        let ahead = len.max(2 * self.ahead).max(MIN_SLICE).min(self.entries.len());
        self.select(len, ahead);
        &self.entries[..len]
    }

    /// Makes `entries[..len]` the best `len` entries, keeping the ranked
    /// prefix and the selected watermark's set. Past the look-ahead, the
    /// remainder is partitioned at `ahead` first.
    fn select(&mut self, len: usize, ahead: usize) {
        if len <= self.ranked {
            return;
        }
        if len > self.ahead {
            self.partition(self.ahead, self.entries.len(), ahead);
            self.ahead = ahead;
        }
        let (from, to) = if len <= self.selected {
            (self.ranked, self.selected)
        } else {
            (self.selected, self.ahead)
        };
        self.partition(from, to, len);
        self.selected = self.selected.max(len);
    }

    /// Partitions `entries[from..to]` so that position `at` splits it.
    fn partition(&mut self, from: usize, to: usize, at: usize) {
        if at < to {
            #[cfg(test)]
            {
                self.partitioned += to - from;
            }
            self.entries[from..to].select_nth_unstable(at - from);
        }
    }
}

impl IntoIterator for Ranking {
    type Item = Entry;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter { ranking: self, next: 0 }
    }
}

/// Entries of a [`Ranking`] in rank order, ranked as they are reached.
#[derive(Clone, Debug)]
pub struct IntoIter {
    ranking: Ranking,
    next: usize,
}

impl Iterator for IntoIter {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        let entry = self.ranking.prefix(self.next + 1).get(self.next).copied()?;
        self.next += 1;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full sort every ranking in the protocols used before
    /// [`Ranking`]: stable, `(total_cmp, id)`. Kept as the reference.
    fn full_sort(pairs: &[(f64, ItemId)]) -> Vec<(f64, ItemId)> {
        let mut sorted = pairs.to_vec();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sorted
    }

    /// Bit patterns, so `-0.0 != 0.0` and NaN payloads compare exactly.
    fn bits(pairs: &[(f64, ItemId)]) -> Vec<(u64, ItemId)> {
        pairs.iter().map(|&(s, id)| (s.to_bits(), id)).collect()
    }

    fn entry_bits(entries: &[Entry]) -> Vec<(u64, ItemId)> {
        entries.iter().map(|e| (e.score().to_bits(), e.id())).collect()
    }

    /// Scores rich in what an order can get wrong: duplicates, both
    /// zeros, both infinities, NaNs of either sign, arbitrary bit patterns.
    fn score() -> impl Strategy<Value = f64> {
        (0usize..12, any::<u64>()).prop_map(|(pick, raw)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => -f64::NAN,
            6..=8 => (raw % 4) as f64,
            _ => f64::from_bits(raw),
        })
    }

    /// Ids by position, or drawn from a small range so `(score, id)` pairs
    /// themselves repeat.
    fn pairs() -> impl Strategy<Value = Vec<(f64, ItemId)>> {
        (collection::vec((score(), 0usize..8), 0..=3000), 0usize..2).prop_map(
            |(raw, by_position)| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (s, id))| (s, if by_position == 1 { i } else { id }))
                    .collect()
            },
        )
    }

    /// Non-decreasing prefix requests: steps of 1, of 7, "all" at once, or
    /// arbitrary — each run starting at 0 and passing `n`.
    fn requests(n: usize, style: usize, raw: &[u64]) -> Vec<usize> {
        match style {
            0 | 1 => {
                let step = if style == 0 { 1 } else { 7 };
                (0..=n + step).step_by(step).collect()
            }
            2 => vec![0, n, n + 1, n + 100],
            _ => {
                let mut r: Vec<usize> =
                    raw.iter().map(|&x| (x % (n as u64 + 20)) as usize).collect();
                r.extend([0, n, n + 3]);
                r.sort_unstable();
                r
            }
        }
    }

    proptest! {
        /// Every prefix a caller can ask for is the reference's prefix, bit
        /// for bit, and reading on through the iterator finishes the order.
        #[test]
        fn every_prefix_matches_the_full_sort(
            pairs in pairs(),
            style in 0usize..4,
            raw in collection::vec(any::<u64>(), 0..12),
        ) {
            let want = bits(&full_sort(&pairs));
            let n = pairs.len();
            let mut ranking = Ranking::new(pairs.iter().copied());
            let mut prev = 0;
            for len in requests(n, style, &raw) {
                let got = ranking.prefix(len);
                prop_assert_eq!(got.len(), len.min(n));
                // Only the newly exposed part: the final full read below
                // checks that no extension disturbed an earlier one.
                let (from, to) = (prev.min(n), len.min(n));
                prop_assert_eq!(entry_bits(&got[from..]), want[from..to].to_vec());
                prev = len;
            }
            prop_assert_eq!(entry_bits(ranking.prefix(n)), want.clone());
            let iterated: Vec<Entry> = ranking.into_iter().collect();
            prop_assert_eq!(entry_bits(&iterated), want.clone());
            let fresh: Vec<Entry> = Ranking::new(pairs).into_iter().collect();
            prop_assert_eq!(entry_bits(&fresh), want);
        }

        /// Any interleaving of `top_set` and `prefix` calls, at any length:
        /// each `top_set(len)` is the full sort's first `len` entries as a
        /// set, each `prefix(len)` the full sort's prefix, and a `top_set`
        /// past the longest length asked so far adds exactly the next
        /// ranks' set.
        #[test]
        fn top_sets_and_prefixes_interleave(
            pairs in pairs(),
            calls in collection::vec((0usize..3, any::<u64>()), 0..16),
        ) {
            let want = bits(&full_sort(&pairs));
            let n = pairs.len();
            let as_set = |mut v: Vec<(u64, ItemId)>| {
                v.sort_unstable();
                v
            };
            let mut ranking = Ranking::new(pairs.iter().copied());
            let mut longest = 0;
            for (kind, raw) in calls {
                let len = match kind {
                    2 => longest + (raw % 40) as usize,
                    _ => (raw % (n as u64 + 20)) as usize,
                };
                let to = len.min(n);
                match kind {
                    0 => prop_assert_eq!(entry_bits(ranking.prefix(len)), want[..to].to_vec()),
                    1 => prop_assert_eq!(
                        as_set(entry_bits(ranking.top_set(len))),
                        as_set(want[..to].to_vec())
                    ),
                    _ => {
                        let from = longest.min(n);
                        prop_assert_eq!(
                            as_set(entry_bits(&ranking.top_set(len)[from..])),
                            as_set(want[from..to].to_vec())
                        );
                    }
                }
                longest = longest.max(len);
            }
            prop_assert_eq!(entry_bits(ranking.prefix(n)), want);
        }

        /// Packing is lossless and its integer order is the reference order.
        #[test]
        fn entries_round_trip_and_order_like_total_cmp(
            a in (score(), any::<u64>()),
            b in (score(), any::<u64>()),
        ) {
            let (a, b) = ((a.0, a.1 as ItemId), (b.0, b.1 as ItemId));
            let (ea, eb) = (Entry::new(a.0, a.1), Entry::new(b.0, b.1));
            prop_assert_eq!((ea.score().to_bits(), ea.id()), (a.0.to_bits(), a.1));
            prop_assert_eq!(ea.cmp(&eb), a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
    }

    #[test]
    fn of_scores_ids_are_positions() {
        let scores = [3.0, -0.0, 0.0, f64::NAN, -f64::NAN, 1.0, 1.0];
        let mut r = Ranking::of_scores(&scores);
        let ids: Vec<ItemId> = r.prefix(usize::MAX).iter().map(|e| e.id()).collect();
        assert_eq!(ids, vec![4, 1, 2, 5, 6, 0, 3], "-NaN first, -0 before 0, NaN last");
    }

    #[test]
    fn empty_and_zero_prefixes() {
        let mut r = Ranking::new([]);
        assert!(r.prefix(5).is_empty());
        assert_eq!(r.into_iter().next(), None);
        let mut r = Ranking::of_scores(&[2.0, 1.0]);
        assert!(r.prefix(0).is_empty());
        assert_eq!(r.prefix(5).len(), 2);
    }

    /// A party-query's stream: `top_set` in steps of `b = 100` to depth
    /// `D = N/16` over `N = 65 536` entries, the sets unchanged. Selecting
    /// ahead partitions ≈ 7.6·N entries here; partitioning the whole
    /// remainder on every call took ≈ 41·N (`N·D/b`), and grows with `D`.
    #[test]
    fn a_stream_partitions_linearly_many_entries() {
        let n = 1usize << 16;
        let scores: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        let mut by_rank: Vec<usize> = (0..n).collect();
        by_rank.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        let mut r = Ranking::of_scores(&scores);
        let (step, depth) = (100, n / 16);
        let mut read = 0;
        while read < depth {
            let len = read + step;
            let mut got: Vec<usize> = r.top_set(len)[read..].iter().map(|e| e.id()).collect();
            got.sort_unstable();
            let mut want = by_rank[read..len].to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "ranks {read}..{len}");
            read = len;
        }
        println!("{} entries partitioned for N = {n}", r.partitioned);
        assert!(r.partitioned <= 12 * n, "{} entries partitioned for N = {n}", r.partitioned);
    }

    #[test]
    fn extensions_grow_geometrically() {
        let scores: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let mut r = Ranking::of_scores(&scores);
        r.prefix(1);
        assert_eq!(r.ranked, MIN_SLICE);
        r.prefix(MIN_SLICE + 1);
        assert_eq!(r.ranked, 2 * MIN_SLICE);
        r.prefix(100);
        assert_eq!(r.ranked, 100);
        r.prefix(101);
        assert_eq!(r.ranked, 200);
        r.prefix(999);
        assert_eq!(r.ranked, 999);
        r.prefix(usize::MAX);
        assert_eq!(r.ranked, 1000);
    }
}
