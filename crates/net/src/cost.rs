//! Cost accounting: operation ledgers and the cost model that converts
//! counted work into simulated wall-clock seconds.
//!
//! The paper's timings are dominated by (a) homomorphic operations and
//! (b) bytes moved between five AWS nodes. Both are *counted exactly* by
//! the protocol implementations; the [`CostModel`] then prices them with
//! per-op microsecond costs. The HE defaults are fixed magnitudes, not
//! measurements of this repo's Paillier: `enc_us` is 120 where
//! `experiments calibrate` measures a few µs per packed value, and the
//! model is not yet fitted to measured rounds. The link defaults are
//! typical intra-region AWS latency/bandwidth.
//!
//! Ledgers track two quantities per operation class:
//!
//! * **critical-path count** — the time-determining count, where work done
//!   by P participants in parallel counts once;
//! * **work count** — total operations across all machines (used for the
//!   per-query candidate statistics of Fig. 9).

/// Per-operation costs in microseconds plus link characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Encrypt one value (amortized over a ciphertext batch). Ledger `enc`
    /// counts stay *per value* regardless of how the scheme groups values
    /// into ciphertexts: with shift-and-pack Paillier one noise
    /// exponentiation covers a whole slot group, which shows up here as a
    /// smaller calibrated `enc_us` — never as fewer billed values.
    pub enc_us: f64,
    /// Decrypt one value.
    pub dec_us: f64,
    /// Homomorphically add two encrypted values.
    pub he_add_us: f64,
    /// A plaintext arithmetic op (add/compare).
    pub plain_op_us: f64,
    /// Compute one partial squared distance term.
    pub dist_us: f64,
    /// One-way message latency per round.
    pub latency_us: f64,
    /// Link bandwidth in bytes per microsecond (125 = 1 Gbps).
    pub bytes_per_us: f64,
    /// Serialized bytes per encrypted value.
    pub cipher_bytes: usize,
    /// Serialized bytes per plaintext id.
    pub id_bytes: usize,
    /// Serialized bytes per plaintext scalar.
    pub scalar_bytes: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            enc_us: 120.0,
            dec_us: 60.0,
            he_add_us: 5.0,
            plain_op_us: 0.005,
            dist_us: 0.01,
            latency_us: 250.0,
            bytes_per_us: 125.0,
            cipher_bytes: 256,
            id_bytes: 8,
            scalar_bytes: 8,
        }
    }
}

impl CostModel {
    /// A model with free cryptography — isolates pure communication cost
    /// in ablations.
    #[must_use]
    pub fn plaintext_only() -> Self {
        CostModel { enc_us: 0.0, dec_us: 0.0, he_add_us: 0.0, cipher_bytes: 8, ..Self::default() }
    }
}

/// A two-sided counter: critical-path vs total work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Time-determining count (parallel work counted once).
    pub path: u64,
    /// Total count across all machines.
    pub work: u64,
}

impl OpCount {
    fn add(&mut self, path: u64, work: u64) {
        self.path += path;
        self.work += work;
    }

    fn merge(&mut self, other: OpCount) {
        self.path += other.path;
        self.work += other.work;
    }
}

/// Accumulated operation and traffic counts for one protocol run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpLedger {
    /// Encryption ops.
    pub enc: OpCount,
    /// Decryption ops.
    pub dec: OpCount,
    /// Homomorphic additions.
    pub he_add: OpCount,
    /// Plaintext ops.
    pub plain: OpCount,
    /// Partial-distance computations.
    pub dist: OpCount,
    /// Total bytes placed on the wire.
    pub bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Synchronous communication rounds (each costs one latency).
    pub rounds: u64,
    /// Participants observed to drop out during the run. Zero cost and
    /// written by no engine; it stays for the wire format (cached entries
    /// and the serving protocol's frames carry it).
    pub dropouts: u64,
    /// Selection-artifact cache hits observed during the run (zero cost:
    /// a hit *replaces* federated work, it does not add any).
    pub cache_hits: u64,
    /// Selection-artifact cache misses observed during the run.
    pub cache_misses: u64,
    /// Random accesses performed by the top-k stage: complete-object
    /// fetches outside the sorted streams (Fagin's phase-2 lookups, so it
    /// equals Fagin's `enc.work`); zero for Base, which only scans.
    /// Bookkeeping only; the priced cost of the fetches is already in
    /// `enc`/`bytes`.
    pub random_accesses: u64,
}

impl OpLedger {
    /// Records `per_party` encryptions done by `parties` machines in
    /// parallel.
    pub fn record_enc(&mut self, per_party: u64, parties: u64) {
        self.enc.add(per_party, per_party * parties);
    }

    /// Records decryptions (single machine: the leader).
    pub fn record_dec(&mut self, count: u64) {
        self.dec.add(count, count);
    }

    /// Records homomorphic additions at the aggregation server.
    pub fn record_he_add(&mut self, count: u64) {
        self.he_add.add(count, count);
    }

    /// Records `per_party` plaintext ops on `parties` parallel machines.
    pub fn record_plain(&mut self, per_party: u64, parties: u64) {
        self.plain.add(per_party, per_party * parties);
    }

    /// Records `per_party` partial-distance computations on `parties`
    /// parallel machines.
    pub fn record_dist(&mut self, per_party: u64, parties: u64) {
        self.dist.add(per_party, per_party * parties);
    }

    /// Records encryptions with heterogeneous per-party volumes: `path` is
    /// the slowest party's count, `work` the total across parties.
    pub fn record_enc_hetero(&mut self, path: u64, work: u64) {
        self.enc.add(path, work);
    }

    /// Records plaintext ops with heterogeneous per-party volumes.
    pub fn record_plain_hetero(&mut self, path: u64, work: u64) {
        self.plain.add(path, work);
    }

    /// Records traffic: `bytes` over the wire in `messages` messages.
    pub fn record_traffic(&mut self, bytes: u64, messages: u64) {
        self.bytes += bytes;
        self.messages += messages;
    }

    /// Records one synchronous round (one latency on the critical path).
    pub fn record_round(&mut self) {
        self.rounds += 1;
    }

    /// Records one selection-artifact cache hit (warm or churned serving).
    pub fn record_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Records one selection-artifact cache miss (cold run, entry stored).
    pub fn record_cache_miss(&mut self) {
        self.cache_misses += 1;
    }

    /// Records `count` random accesses by the top-k stage (bookkeeping
    /// only — the fetches' cost is billed separately via `enc`/traffic).
    pub fn record_random_access(&mut self, count: u64) {
        self.random_accesses += count;
    }

    /// Merges `times` copies of another ledger into this one (saturating)
    /// — used to bill repeated identical protocol passes analytically.
    pub fn merge_times(&mut self, other: &OpLedger, times: u64) {
        let m = |c: &mut OpCount, o: OpCount| {
            c.path = c.path.saturating_add(o.path.saturating_mul(times));
            c.work = c.work.saturating_add(o.work.saturating_mul(times));
        };
        m(&mut self.enc, other.enc);
        m(&mut self.dec, other.dec);
        m(&mut self.he_add, other.he_add);
        m(&mut self.plain, other.plain);
        m(&mut self.dist, other.dist);
        self.bytes = self.bytes.saturating_add(other.bytes.saturating_mul(times));
        self.messages = self.messages.saturating_add(other.messages.saturating_mul(times));
        self.rounds = self.rounds.saturating_add(other.rounds.saturating_mul(times));
        self.dropouts = self.dropouts.saturating_add(other.dropouts.saturating_mul(times));
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits.saturating_mul(times));
        self.cache_misses =
            self.cache_misses.saturating_add(other.cache_misses.saturating_mul(times));
        self.random_accesses =
            self.random_accesses.saturating_add(other.random_accesses.saturating_mul(times));
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &OpLedger) {
        self.enc.merge(other.enc);
        self.dec.merge(other.dec);
        self.he_add.merge(other.he_add);
        self.plain.merge(other.plain);
        self.dist.merge(other.dist);
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.rounds += other.rounds;
        self.dropouts += other.dropouts;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.random_accesses += other.random_accesses;
    }

    /// Simulated wall-clock microseconds under `model`.
    #[must_use]
    pub fn simulated_us(&self, model: &CostModel) -> f64 {
        self.breakdown(model).total_us()
    }

    /// Per-component simulated cost — the paper's §V-B time-breakdown view.
    #[must_use]
    pub fn breakdown(&self, model: &CostModel) -> CostBreakdown {
        CostBreakdown {
            enc_us: self.enc.path as f64 * model.enc_us,
            dec_us: self.dec.path as f64 * model.dec_us,
            he_add_us: self.he_add.path as f64 * model.he_add_us,
            plain_us: self.plain.path as f64 * model.plain_op_us
                + self.dist.path as f64 * model.dist_us,
            transfer_us: self.bytes as f64 / model.bytes_per_us,
            latency_us: self.rounds as f64 * model.latency_us,
        }
    }

    /// Simulated seconds under `model`.
    #[must_use]
    pub fn simulated_seconds(&self, model: &CostModel) -> f64 {
        self.simulated_us(model) / 1e6
    }

    /// Total encrypted values placed on the wire (work count) — the paper's
    /// Fig. 9 "encrypted and communicated instances" metric is derived from
    /// this divided by query count.
    #[must_use]
    pub fn encrypted_values(&self) -> u64 {
        self.enc.work
    }
}

/// Simulated time split by cost component (all microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// Encryption time.
    pub enc_us: f64,
    /// Decryption time.
    pub dec_us: f64,
    /// Homomorphic-addition time.
    pub he_add_us: f64,
    /// Plaintext compute (including distance kernels).
    pub plain_us: f64,
    /// Byte-transfer time.
    pub transfer_us: f64,
    /// Round-trip latency time.
    pub latency_us: f64,
}

impl CostBreakdown {
    /// Merges another breakdown into this one component-wise. Together with
    /// [`OpLedger::merge`] this lets per-worker ledgers from a parallel run
    /// be combined into exactly the totals a sequential run would produce
    /// (all counters are sums, so merging commutes with recording).
    pub fn merge(&mut self, other: &CostBreakdown) {
        self.enc_us += other.enc_us;
        self.dec_us += other.dec_us;
        self.he_add_us += other.he_add_us;
        self.plain_us += other.plain_us;
        self.transfer_us += other.transfer_us;
        self.latency_us += other.latency_us;
    }

    /// Sum of all components.
    #[must_use]
    pub fn total_us(&self) -> f64 {
        self.enc_us
            + self.dec_us
            + self.he_add_us
            + self.plain_us
            + self.transfer_us
            + self.latency_us
    }

    /// Fraction of the total spent in HE operations (enc + dec + add) —
    /// the paper's argument for the Fagin optimization is that this
    /// dominates.
    #[must_use]
    pub fn crypto_fraction(&self) -> f64 {
        let total = self.total_us();
        if total <= 0.0 {
            0.0
        } else {
            (self.enc_us + self.dec_us + self.he_add_us) / total
        }
    }
}

crate::wire_struct!(OpCount { path, work });
crate::wire_struct!(OpLedger {
    enc,
    dec,
    he_add,
    plain,
    dist,
    bytes,
    messages,
    rounds,
    dropouts,
    cache_hits,
    cache_misses,
    random_accesses,
});
crate::wire_struct!(CostModel {
    enc_us,
    dec_us,
    he_add_us,
    plain_op_us,
    dist_us,
    latency_us,
    bytes_per_us,
    cipher_bytes,
    id_bytes,
    scalar_bytes,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_components_sum_to_total() {
        let model = CostModel::default();
        let mut l = OpLedger::default();
        l.record_enc(1000, 4);
        l.record_dec(500);
        l.record_he_add(2000);
        l.record_dist(10_000, 4);
        l.record_traffic(1 << 20, 8);
        l.record_round();
        let b = l.breakdown(&model);
        assert!((b.total_us() - l.simulated_us(&model)).abs() < 1e-9);
        assert!(b.enc_us > 0.0 && b.transfer_us > 0.0 && b.latency_us > 0.0);
        assert!((0.0..=1.0).contains(&b.crypto_fraction()));
    }

    #[test]
    fn he_heavy_ledger_is_crypto_dominated() {
        let model = CostModel::default();
        let mut l = OpLedger::default();
        l.record_enc(1_000_000, 4);
        l.record_traffic(1024, 1);
        assert!(l.breakdown(&model).crypto_fraction() > 0.99);
    }

    #[test]
    fn parallel_work_counts_once_on_path() {
        let mut l = OpLedger::default();
        l.record_enc(100, 4);
        assert_eq!(l.enc.path, 100);
        assert_eq!(l.enc.work, 400);
    }

    #[test]
    fn simulated_time_composition() {
        let model = CostModel {
            enc_us: 10.0,
            dec_us: 5.0,
            he_add_us: 1.0,
            plain_op_us: 0.0,
            dist_us: 0.0,
            latency_us: 100.0,
            bytes_per_us: 10.0,
            cipher_bytes: 64,
            id_bytes: 8,
            scalar_bytes: 8,
        };
        let mut l = OpLedger::default();
        l.record_enc(3, 2); // 30us
        l.record_dec(2); // 10us
        l.record_he_add(5); // 5us
        l.record_traffic(1000, 4); // 100us
        l.record_round(); // 100us
        assert!((l.simulated_us(&model) - 245.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = OpLedger::default();
        a.record_enc(1, 2);
        a.record_round();
        let mut b = OpLedger::default();
        b.record_enc(2, 2);
        b.record_traffic(10, 1);
        a.merge(&b);
        assert_eq!(a.enc.path, 3);
        assert_eq!(a.enc.work, 6);
        assert_eq!(a.bytes, 10);
        assert_eq!(a.rounds, 1);
    }

    #[test]
    fn dropouts_are_counted_but_free() {
        let model = CostModel::default();
        let mut l = OpLedger::default();
        l.record_enc(10, 2);
        let before = l.simulated_us(&model);
        l.dropouts = 2;
        assert_eq!(l.simulated_us(&model), before, "dropouts carry no simulated cost");
        let mut m = OpLedger::default();
        m.merge_times(&l, 3);
        assert_eq!(m.dropouts, 6);
    }

    /// The contract the parallel selection engine relies on: splitting a
    /// recording stream across ledgers and merging them afterwards yields
    /// byte-exact the same ledger as recording sequentially into one.
    #[test]
    fn merge_of_splits_equals_sequential_accumulation() {
        // A synthetic stream of heterogeneous records.
        let records: Vec<(u64, u64)> = (1..=40).map(|i| (i, i % 5 + 1)).collect();
        let record_all = |ledger: &mut OpLedger, part: &[(u64, u64)]| {
            for &(n, p) in part {
                ledger.record_enc(n, p);
                ledger.record_dec(n / 2);
                ledger.record_he_add(n * p);
                ledger.record_plain(n * 3, p);
                ledger.record_dist(n, p);
                ledger.record_traffic(n * 256, p);
                ledger.record_round();
            }
        };

        let mut sequential = OpLedger::default();
        record_all(&mut sequential, &records);

        // Split into uneven chunks, record each into its own ledger (as
        // parallel workers would), merge in chunk order.
        let mut merged = OpLedger::default();
        let mut merged_breakdown = CostBreakdown::default();
        let model = CostModel::default();
        for chunk in records.chunks(7) {
            let mut part = OpLedger::default();
            record_all(&mut part, chunk);
            merged_breakdown.merge(&part.breakdown(&model));
            merged.merge(&part);
        }

        assert_eq!(merged, sequential);
        let seq_breakdown = sequential.breakdown(&model);
        assert!((merged_breakdown.total_us() - seq_breakdown.total_us()).abs() < 1e-9);
        assert!((merged_breakdown.enc_us - seq_breakdown.enc_us).abs() < 1e-12);
        assert!((merged_breakdown.latency_us - seq_breakdown.latency_us).abs() < 1e-12);
    }

    #[test]
    fn more_encryption_costs_more_time() {
        let model = CostModel::default();
        let mut small = OpLedger::default();
        small.record_enc(100, 4);
        let mut big = OpLedger::default();
        big.record_enc(10_000, 4);
        assert!(big.simulated_seconds(&model) > small.simulated_seconds(&model));
    }

    #[test]
    fn cache_counters_are_counted_but_free() {
        let model = CostModel::default();
        let mut l = OpLedger::default();
        l.record_enc(10, 2);
        let before = l.simulated_us(&model);
        l.record_cache_hit();
        l.record_cache_miss();
        l.record_random_access(3);
        assert_eq!((l.cache_hits, l.cache_misses), (1, 1));
        assert_eq!(l.random_accesses, 3);
        assert_eq!(l.simulated_us(&model), before, "cache bookkeeping carries no simulated cost");
        let mut m = OpLedger::default();
        m.merge_times(&l, 4);
        assert_eq!((m.cache_hits, m.cache_misses), (4, 4));
        assert_eq!(m.random_accesses, 12);
        let mut n = OpLedger::default();
        n.merge(&l);
        assert_eq!((n.cache_hits, n.cache_misses), (1, 1));
        assert_eq!(n.random_accesses, 3);
    }

    #[test]
    fn ledger_and_model_roundtrip_through_wire() {
        use crate::wire::Wire;
        let mut l = OpLedger::default();
        l.record_enc(7, 3);
        l.record_dec(5);
        l.record_he_add(11);
        l.record_dist(13, 2);
        l.record_traffic(4096, 9);
        l.record_round();
        l.dropouts = 1;
        l.record_cache_hit();
        l.record_cache_miss();
        l.record_random_access(17);
        assert_eq!(OpLedger::from_bytes(&l.to_bytes()).unwrap(), l);

        let model = CostModel::default();
        assert_eq!(CostModel::from_bytes(&model.to_bytes()).unwrap(), model);
    }

    #[test]
    fn plaintext_model_zeroes_crypto() {
        let m = CostModel::plaintext_only();
        let mut l = OpLedger::default();
        l.record_enc(1_000_000, 4);
        l.record_dec(1_000_000);
        assert_eq!(l.simulated_us(&m), 0.0);
    }

    #[test]
    fn hetero_records_keep_path_and_work_apart() {
        let mut l = OpLedger::default();
        l.record_enc_hetero(30, 100);
        l.record_plain_hetero(7, 20);
        assert_eq!(l.enc, OpCount { path: 30, work: 100 });
        assert_eq!(l.plain, OpCount { path: 7, work: 20 });
        // An even split is the homogeneous record.
        let mut even = OpLedger::default();
        even.record_enc_hetero(25, 100);
        even.record_plain_hetero(5, 20);
        let mut homo = OpLedger::default();
        homo.record_enc(25, 4);
        homo.record_plain(5, 4);
        assert_eq!(even, homo);
        // Time follows the slowest party, not the total.
        let model = CostModel::default();
        assert!(l.simulated_us(&model) > even.simulated_us(&model));
    }
}
