//! A uniform interface over the additively homomorphic schemes.
//!
//! The VFL protocols only require: encrypt a batch of reals, add two
//! ciphertexts, decrypt, and report serialized size. [`AdditiveHe`] captures
//! exactly that, with two implementations:
//!
//! * [`PaillierHe`] — exact integer HE (fixed-point encoded reals, several
//!   per ciphertext),
//! * [`PlainHe`] — a no-op scheme for ablations and large-scale simulation
//!   where HE costs are accounted analytically instead of paid for real.

use crate::bigint::lanes::{Kernel, LANES};
use crate::bigint::BigUint;
use crate::error::{Error, Result};
use crate::fixed::FixedPoint;
use crate::packing::{PackingLayout, DEFAULT_MAX_TERMS};
use crate::paillier::{
    self, CrtScratch, EncryptScratch, NoisePool, PaillierCiphertext, PaillierEncryptor,
    PaillierKeypair, ProductScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Operations the VFL protocols need from an additively homomorphic scheme.
pub trait AdditiveHe: Send + Sync {
    /// Opaque ciphertext carrying a batch of real values.
    type Ciphertext: Clone + Send + Sync;

    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Maximum number of values a single ciphertext can carry.
    fn max_batch(&self) -> usize;

    /// Encrypts a batch of at most [`AdditiveHe::max_batch`] values.
    ///
    /// # Errors
    /// Fails when the batch exceeds the slot count or a value cannot be
    /// represented.
    fn encrypt(&self, values: &[f64]) -> Result<Self::Ciphertext>;

    /// Encrypts several batches at once — the protocol hot path when a
    /// participant ships all its candidate partials for one query.
    ///
    /// The default implementation fans the per-batch [`AdditiveHe::encrypt`]
    /// calls out on the global [`vfps_par`] pool, which is correct for
    /// deterministic schemes ([`PlainHe`]). A scheme whose `encrypt` draws
    /// from a shared seed stream ([`PaillierHe`]) MUST override it to
    /// reserve its noise indices in one call before fanning out, so the
    /// output is identical at any thread count.
    ///
    /// # Errors
    /// Fails when any batch exceeds the slot count or a value cannot be
    /// represented.
    fn encrypt_many(&self, batches: &[&[f64]]) -> Result<Vec<Self::Ciphertext>> {
        vfps_par::global().par_map_indexed(batches, |_, b| self.encrypt(b)).into_iter().collect()
    }

    /// Decrypts the first `count` values, on the calling thread.
    fn decrypt(&self, ct: &Self::Ciphertext, count: usize) -> Vec<f64>;

    /// Decrypts the first `count` values of each `(ciphertext, count)`
    /// pair, results in input order — the leader's side of a query. The
    /// default is a loop of [`AdditiveHe::decrypt`]; schemes whose
    /// decryption is worth spreading ([`PaillierHe`]) fan out on the global
    /// [`vfps_par`] pool and must return the same values at any thread
    /// count.
    ///
    /// # Errors
    /// Fails when a ciphertext cannot be decoded under this scheme's
    /// layout.
    fn decrypt_many(&self, cts: &[(&Self::Ciphertext, usize)]) -> Result<Vec<Vec<f64>>> {
        Ok(cts.iter().map(|&(ct, count)| self.decrypt(ct, count)).collect())
    }

    /// Homomorphic addition.
    ///
    /// # Panics
    /// May panic where [`AdditiveHe::try_add`] returns an error.
    fn add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext;

    /// Homomorphic addition of ciphertexts this process did not produce
    /// itself (an aggregation server summing contributions): a pair that
    /// cannot be added is an error, never a panic.
    ///
    /// # Errors
    /// Fails when the two ciphertexts' shapes do not allow addition.
    fn try_add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Result<Self::Ciphertext> {
        Ok(self.add(a, b))
    }

    /// Whether [`AdditiveHe::try_sum`] can sum `cts`: its shape checks,
    /// with no arithmetic, so a caller gathering operands can refuse one
    /// as it arrives. The default accepts what [`AdditiveHe::try_add`]
    /// decides on alone.
    ///
    /// # Errors
    /// Fails where [`AdditiveHe::try_sum`] would before any arithmetic.
    fn check_sum(&self, cts: &[&Self::Ciphertext]) -> Result<()> {
        let _ = cts;
        Ok(())
    }

    /// Homomorphic sum of several ciphertexts this process did not
    /// produce itself — the aggregation server's fold over every
    /// contribution to one chunk. The default folds
    /// [`AdditiveHe::try_add`] left to right, so an order-sensitive scheme
    /// ([`PlainHe`]'s f64 sums) adds in the order given.
    ///
    /// # Errors
    /// Fails on an empty slice, and where [`AdditiveHe::check_sum`] or
    /// [`AdditiveHe::try_add`] would.
    fn try_sum(&self, cts: &[&Self::Ciphertext]) -> Result<Self::Ciphertext> {
        self.check_sum(cts)?;
        let (first, rest) = cts
            .split_first()
            .ok_or_else(|| Error::InvalidParameters("a sum of no ciphertexts".into()))?;
        rest.iter().try_fold((*first).clone(), |acc, ct| self.try_add(&acc, ct))
    }

    /// Serialized ciphertext size in bytes (for communication accounting).
    fn ct_bytes(&self, ct: &Self::Ciphertext) -> usize;

    /// Serializes a ciphertext for transmission.
    fn ct_to_bytes(&self, ct: &Self::Ciphertext) -> Vec<u8>;

    /// Deserializes a transmitted ciphertext.
    ///
    /// # Errors
    /// Fails on malformed input.
    fn ct_from_bytes(&self, bytes: &[u8]) -> Result<Self::Ciphertext>;

    /// Worst-case absolute error of decrypting a sum of `terms` fresh
    /// ciphertexts (0 for exact schemes).
    fn error_bound(&self, terms: usize) -> f64;
}

// ---------------------------------------------------------------------------
// Plain (identity) scheme
// ---------------------------------------------------------------------------

/// A pass-through "scheme" that performs no cryptography. Used to run
/// large-scale protocol simulations where HE costs are attributed by the
/// cost model rather than paid in real time.
#[derive(Debug, Clone)]
pub struct PlainHe {
    batch: usize,
}

/// Bytes [`PlainHe`] charges per carried value: 16x over an f64, an
/// encrypted value's order of expansion. A fixed charge rather than a
/// measured one, because committed bills and protocol fingerprints are
/// computed from it.
const PLAIN_BYTES_PER_VALUE: usize = 128;

impl PlainHe {
    /// Creates a plain scheme carrying up to `batch` values per "ciphertext".
    #[must_use]
    pub fn new(batch: usize) -> Self {
        PlainHe { batch }
    }
}

impl AdditiveHe for PlainHe {
    type Ciphertext = Vec<f64>;

    fn name(&self) -> &'static str {
        "plain"
    }

    fn max_batch(&self) -> usize {
        self.batch
    }

    fn encrypt(&self, values: &[f64]) -> Result<Vec<f64>> {
        if values.len() > self.batch {
            return Err(Error::TooManySlots { got: values.len(), max: self.batch });
        }
        vfps_obs::time_us("he.plain.encrypt_us", || Ok(values.to_vec()))
    }

    fn decrypt(&self, ct: &Vec<f64>, count: usize) -> Vec<f64> {
        vfps_obs::time_us("he.plain.decrypt_us", || ct.iter().copied().take(count).collect())
    }

    fn add(&self, a: &Vec<f64>, b: &Vec<f64>) -> Vec<f64> {
        vfps_obs::time_us("he.plain.add_us", || {
            let n = a.len().max(b.len());
            (0..n)
                .map(|i| a.get(i).copied().unwrap_or(0.0) + b.get(i).copied().unwrap_or(0.0))
                .collect()
        })
    }

    fn ct_bytes(&self, ct: &Vec<f64>) -> usize {
        ct.len() * PLAIN_BYTES_PER_VALUE
    }

    fn ct_to_bytes(&self, ct: &Vec<f64>) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + ct.len() * 8);
        out.extend_from_slice(&(ct.len() as u32).to_le_bytes());
        for v in ct {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn ct_from_bytes(&self, bytes: &[u8]) -> Result<Vec<f64>> {
        let err = || Error::InvalidParameters("malformed plain ciphertext".into());
        if bytes.len() < 4 {
            return Err(err());
        }
        let n = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        if bytes.len() != 4 + n * 8 {
            return Err(err());
        }
        Ok((0..n)
            .map(|i| f64::from_le_bytes(bytes[4 + i * 8..12 + i * 8].try_into().expect("8 bytes")))
            .collect())
    }

    fn error_bound(&self, _terms: usize) -> f64 {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Paillier
// ---------------------------------------------------------------------------

/// A packed Paillier ciphertext: `count` fixed-point values laid out
/// [`PackingLayout::slots`]-per-inner-ciphertext, plus the number of fresh
/// encryptions (`terms`) summed into it — needed to undo the per-slot bias
/// at decode time and to police the carry headroom.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PackedPaillier {
    cts: Vec<PaillierCiphertext>,
    count: u32,
    terms: u32,
}

impl PackedPaillier {
    /// Values carried.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Fresh encryptions summed into this ciphertext.
    #[must_use]
    pub fn terms(&self) -> u32 {
        self.terms
    }

    /// Inner `Z_{n²}` ciphertexts (one per slot group).
    #[must_use]
    pub fn groups(&self) -> &[PaillierCiphertext] {
        &self.cts
    }
}

/// Paillier-backed scheme: fixed-point values shift-and-packed several per
/// integer ciphertext ([`PackingLayout`]), encrypted via the precomputed
/// fixed-base fast path ([`PaillierEncryptor`]) with noise factors drawn
/// from a seeded [`NoisePool`]. Exact up to quantization.
///
/// The key material is shared: [`PaillierHe::with_noise_seed`] gives
/// another instance over the same keys with a noise stream of its own.
pub struct PaillierHe {
    keys: Arc<PaillierKeys>,
    noise: NoisePool,
}

/// What a [`PaillierHe`] derives from its key seed, built once.
struct PaillierKeys {
    keypair: PaillierKeypair,
    encryptor: PaillierEncryptor,
    layout: PackingLayout,
    codec: FixedPoint,
    batch: usize,
}

impl PaillierHe {
    /// Generates a fresh scheme instance with the given key width.
    ///
    /// # Errors
    /// Propagates key-generation failures for undersized keys.
    pub fn generate(key_bits: usize, batch: usize, seed: u64) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let keypair = paillier::generate_keypair(&mut rng, key_bits)?;
        let encryptor = PaillierEncryptor::new(&keypair.public, &mut rng);
        let noise = NoisePool::new(rng.gen());
        let layout = PackingLayout::for_key(key_bits, DEFAULT_MAX_TERMS).ok_or_else(|| {
            Error::InvalidParameters(format!("key width {key_bits} cannot fit a packed slot"))
        })?;
        let keys =
            PaillierKeys { keypair, encryptor, layout, codec: FixedPoint::default_codec(), batch };
        Ok(PaillierHe { keys: Arc::new(keys), noise })
    }

    /// This scheme's keys, encryptor table and layout — nothing is
    /// recomputed — with a fresh noise stream over `seed`: two instances
    /// that draw from different seeds never share a noise factor by
    /// construction, where two from one seed repeat each other's.
    #[must_use]
    pub fn with_noise_seed(&self, seed: u64) -> Self {
        PaillierHe { keys: Arc::clone(&self.keys), noise: NoisePool::new(seed) }
    }

    /// The underlying keypair (tests and calibration benches).
    #[must_use]
    pub fn keypair(&self) -> &PaillierKeypair {
        &self.keys.keypair
    }

    /// The slot layout in effect (values amortized per exponentiation).
    #[must_use]
    pub fn layout(&self) -> PackingLayout {
        self.keys.layout
    }

    /// Encrypts one batch on an explicit pool (tests and benchmarks pin
    /// the thread count through this; [`AdditiveHe::encrypt`] uses the
    /// global pool): [`PaillierHe::encrypt_many_on`] of that one batch.
    ///
    /// # Errors
    /// Fails when the batch exceeds the slot count or a value cannot be
    /// represented.
    pub fn encrypt_on(&self, values: &[f64], pool: &vfps_par::Pool) -> Result<PackedPaillier> {
        let mut cts = self.encrypt_many_on(&[values], pool)?;
        Ok(cts.pop().expect("one ciphertext per batch"))
    }

    /// Encrypts several batches on an explicit pool. One call reserves one
    /// contiguous run of noise-pool indices, covering every batch's slot
    /// groups in order — so ciphertexts are a pure function of the call
    /// sequence, not of thread count or kernel — then all groups across
    /// all batches fan out as a single flat parallel map, eight groups
    /// (one noise batch) per task.
    ///
    /// # Errors
    /// Fails when any batch exceeds the slot count or a value cannot be
    /// represented.
    pub fn encrypt_many_on(
        &self,
        batches: &[&[f64]],
        pool: &vfps_par::Pool,
    ) -> Result<Vec<PackedPaillier>> {
        self.encrypt_many_with(batches, pool, Kernel::detected())
    }

    /// [`PaillierHe::encrypt_many_on`] with the noise factors on `kernel`.
    /// A task takes its lane batch's noise factors and packs and finishes
    /// each group on the pool thread's [`EncryptScratch`], so a group's
    /// only allocation is its ciphertext.
    pub(crate) fn encrypt_many_with(
        &self,
        batches: &[&[f64]],
        pool: &vfps_par::Pool,
        kernel: Kernel,
    ) -> Result<Vec<PackedPaillier>> {
        let keys = &*self.keys;
        for b in batches {
            if b.len() > keys.batch {
                return Err(Error::TooManySlots { got: b.len(), max: keys.batch });
            }
        }
        let slots = keys.layout.slots().max(1);
        let total_groups: usize = batches.iter().map(|b| b.len().div_ceil(slots)).sum();
        // Group `t` of the flattened (batch, group) order takes noise
        // index `start + t`.
        let start = self.noise.reserve(total_groups);
        vfps_obs::time_us("he.paillier.encrypt_us", || {
            // Flatten to (batch, group) tasks so small batches still fill
            // the pool, then reassemble per batch.
            let tasks: Vec<(usize, usize)> = batches
                .iter()
                .enumerate()
                .flat_map(|(bi, b)| (0..b.len().div_ceil(slots)).map(move |g| (bi, g)))
                .collect();
            let lane_batches: Vec<&[(usize, usize)]> = tasks.chunks(LANES).collect();
            let per_batch = pool.par_map_indexed_scratch(
                &lane_batches,
                EncryptScratch::default,
                |scratch, i, groups| {
                    let first = start + (i * LANES) as u64;
                    self.noise.take_into(&keys.encryptor, first, groups.len(), kernel, scratch);
                    for (lane, &(bi, g)) in groups.iter().enumerate() {
                        // The tail group's missing slots pack as zeros, so
                        // every slot carries the bias and additions of
                        // unequal-count ciphertexts stay decodable
                        // slot-by-slot.
                        let group = &batches[bi][g * slots..batches[bi].len().min((g + 1) * slots)];
                        keys.encryptor.stage(group, &keys.layout, &keys.codec, lane, scratch)?;
                    }
                    let mut out = Vec::with_capacity(groups.len());
                    keys.encryptor.finish(groups.len(), scratch, &mut out);
                    Ok(out)
                },
            );
            let mut flat = Vec::with_capacity(total_groups);
            for cts in per_batch {
                flat.extend(cts?);
            }
            let mut flat = flat.into_iter();
            let out = batches
                .iter()
                .map(|b| PackedPaillier {
                    cts: flat.by_ref().take(b.len().div_ceil(slots)).collect(),
                    count: b.len() as u32,
                    terms: 1,
                })
                .collect();
            vfps_obs::counter_add("he.paillier.exponentiations", total_groups as u64);
            vfps_obs::counter_add(
                "he.paillier.enc_values",
                batches.iter().map(|b| b.len() as u64).sum(),
            );
            Ok(out)
        })
    }

    /// The `(inner ciphertext, values to take)` pairs covering the first
    /// `count` values of `ct`, in order.
    fn group_tasks<'a>(
        &self,
        ct: &'a PackedPaillier,
        count: usize,
    ) -> impl Iterator<Item = (&'a PaillierCiphertext, usize)> {
        let slots = self.keys.layout.slots().max(1);
        let count = count.min(ct.count());
        ct.cts
            .iter()
            .enumerate()
            .map(move |(g, c)| (c, count.saturating_sub(g * slots).min(slots)))
            .take_while(|&(_, take)| take > 0)
    }

    /// Decrypts up to [`LANES`] slot groups `(group, values to take,
    /// summed terms)` as one batch on `kernel` and decodes them, in order,
    /// into one vector: the residues stay in `scratch` and unpack straight
    /// off their limbs.
    fn decrypt_groups(
        &self,
        groups: &[(&PaillierCiphertext, usize, u32)],
        kernel: Kernel,
        scratch: &mut CrtScratch,
    ) -> Result<Vec<f64>> {
        let keys = &*self.keys;
        let last = groups.len().saturating_sub(1);
        let cs: [&BigUint; LANES] = std::array::from_fn(|i| groups[i.min(last)].0.as_biguint());
        let private = &keys.keypair.private;
        let residues = private.decrypt_lanes(&cs[..groups.len()], kernel, scratch);
        let mut out = Vec::with_capacity(groups.iter().map(|&(_, take, _)| take).sum());
        for (residue, &(_, take, terms)) in residues.chunks_exact(private.plain_limbs()).zip(groups)
        {
            out.extend(
                keys.layout.unpack_limbs(residue, take, terms)?.map(|v| keys.codec.decode_i128(v)),
            );
        }
        Ok(out)
    }

    /// [`AdditiveHe::decrypt_many`] on an explicit pool (tests and
    /// benchmarks pin the thread count through this). Every ciphertext's
    /// slot groups are flattened into one task list and mapped eight
    /// groups (one lane batch) per task — a wave's 120-odd ciphertexts
    /// alone would run inline under the pool's sequential cutoff, its 240
    /// lane batches do not — and results land by index, so the output is
    /// the loop of [`AdditiveHe::decrypt`] at any thread count.
    ///
    /// # Errors
    /// Fails when a slot group cannot be unpacked under the layout.
    pub fn decrypt_many_on(
        &self,
        cts: &[(&PackedPaillier, usize)],
        pool: &vfps_par::Pool,
    ) -> Result<Vec<Vec<f64>>> {
        self.decrypt_many_with(cts, pool, Kernel::detected())
    }

    /// [`PaillierHe::decrypt_many_on`] on `kernel`.
    pub(crate) fn decrypt_many_with(
        &self,
        cts: &[(&PackedPaillier, usize)],
        pool: &vfps_par::Pool,
        kernel: Kernel,
    ) -> Result<Vec<Vec<f64>>> {
        vfps_obs::time_us("he.paillier.decrypt_us", || {
            let tasks: Vec<(&PaillierCiphertext, usize, u32)> = cts
                .iter()
                .flat_map(|&(ct, count)| {
                    self.group_tasks(ct, count).map(move |(c, take)| (c, take, ct.terms))
                })
                .collect();
            let lane_batches: Vec<&[(&PaillierCiphertext, usize, u32)]> =
                tasks.chunks(LANES).collect();
            let per_batch = pool
                .par_map_indexed_scratch(
                    &lane_batches,
                    CrtScratch::default,
                    |scratch, _, groups| self.decrypt_groups(groups, kernel, scratch),
                )
                .into_iter()
                .collect::<Result<Vec<Vec<f64>>>>()?;
            let mut values = per_batch.iter().flatten().copied();
            Ok(cts
                .iter()
                .map(|&(ct, count)| values.by_ref().take(count.min(ct.count())).collect())
                .collect())
        })
    }

    /// [`AdditiveHe::decrypt`] on `kernel`: [`PaillierHe::decrypt_many_with`]
    /// of the one ciphertext on a one-thread pool (no workers), so it runs
    /// on the calling thread.
    fn decrypt_on_kernel(&self, ct: &PackedPaillier, count: usize, kernel: Kernel) -> Vec<f64> {
        let here = vfps_par::Pool::with_threads(1);
        let mut out = self
            .decrypt_many_with(&[(ct, count)], &here, kernel)
            .expect("a PackedPaillier is within its layout's bounds by construction");
        out.pop().expect("one ciphertext asked, one answered")
    }
}

impl AdditiveHe for PaillierHe {
    type Ciphertext = PackedPaillier;

    fn name(&self) -> &'static str {
        "paillier"
    }

    fn max_batch(&self) -> usize {
        self.keys.batch
    }

    fn encrypt(&self, values: &[f64]) -> Result<Self::Ciphertext> {
        self.encrypt_on(values, vfps_par::global())
    }

    fn encrypt_many(&self, batches: &[&[f64]]) -> Result<Vec<Self::Ciphertext>> {
        self.encrypt_many_on(batches, vfps_par::global())
    }

    fn decrypt(&self, ct: &Self::Ciphertext, count: usize) -> Vec<f64> {
        self.decrypt_on_kernel(ct, count, Kernel::detected())
    }

    fn decrypt_many(&self, cts: &[(&Self::Ciphertext, usize)]) -> Result<Vec<Vec<f64>>> {
        self.decrypt_many_on(cts, vfps_par::global())
    }

    fn add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext {
        self.try_add(a, b).unwrap_or_else(|e| panic!("packed paillier addition: {e}"))
    }

    fn try_add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Result<Self::Ciphertext> {
        self.try_sum(&[a, b])
    }

    /// Equal group counts, and the summed terms within the packed
    /// headroom.
    fn check_sum(&self, cts: &[&Self::Ciphertext]) -> Result<()> {
        let Some(first) = cts.first() else {
            return Ok(());
        };
        if let Some(other) = cts.iter().find(|ct| ct.cts.len() != first.cts.len()) {
            return Err(Error::InvalidParameters(format!(
                "adding a {}-group ciphertext to a {}-group one",
                other.cts.len(),
                first.cts.len()
            )));
        }
        let terms = cts.iter().fold(0u32, |sum, ct| sum.saturating_add(ct.terms));
        let max_terms = self.keys.layout.max_terms();
        if terms > max_terms {
            return Err(Error::PackedHeadroomExceeded { terms, max_terms });
        }
        Ok(())
    }

    /// Every group's operands multiplied in one chain and finished by one
    /// product with `R^P`, eight groups at a time on the lanes where the
    /// CPU has them: `P` kernel products a group where pairwise additions
    /// pay `2(P − 1)`, and no buffer per group but its result.
    fn try_sum(&self, cts: &[&Self::Ciphertext]) -> Result<Self::Ciphertext> {
        vfps_obs::time_us("he.paillier.add_us", || {
            self.check_sum(cts)?;
            let first = cts
                .first()
                .ok_or_else(|| Error::InvalidParameters("a sum of no ciphertexts".into()))?;
            // Each operand carries at least one term, so P ≤ max_terms.
            let mut groups = Vec::with_capacity(first.cts.len());
            self.keys.keypair.public.products(
                cts.len(),
                first.cts.len(),
                |j, g| &cts[j].cts[g],
                Kernel::detected(),
                &mut ProductScratch::default(),
                &mut groups,
            );
            Ok(PackedPaillier {
                cts: groups,
                count: cts.iter().map(|ct| ct.count).max().unwrap_or(0),
                terms: cts.iter().map(|ct| ct.terms).sum(),
            })
        })
    }

    fn ct_bytes(&self, ct: &Self::Ciphertext) -> usize {
        ct.cts.iter().map(PaillierCiphertext::byte_len).sum()
    }

    fn ct_to_bytes(&self, ct: &Self::Ciphertext) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 4 * ct.cts.len() + self.ct_bytes(ct));
        out.extend_from_slice(&ct.count.to_le_bytes());
        out.extend_from_slice(&ct.terms.to_le_bytes());
        out.extend_from_slice(&(ct.cts.len() as u32).to_le_bytes());
        for c in &ct.cts {
            out.extend_from_slice(&(c.byte_len() as u32).to_le_bytes());
            c.as_biguint().write_bytes_be(&mut out);
        }
        out
    }

    fn ct_from_bytes(&self, bytes: &[u8]) -> Result<Self::Ciphertext> {
        let err =
            |what: &str| Error::InvalidParameters(format!("malformed paillier ciphertext: {what}"));
        let mut cur = bytes;
        let take_u32 = |n: &mut &[u8]| -> Result<u32> {
            if n.len() < 4 {
                return Err(err("truncated"));
            }
            let (head, rest) = n.split_at(4);
            *n = rest;
            Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
        };
        let count = take_u32(&mut cur)?;
        let terms = take_u32(&mut cur)?;
        let n_cts = take_u32(&mut cur)? as usize;
        // The header is checked against this scheme's layout here, so
        // `decrypt` and `add` never meet a shape they would have to refuse.
        if terms == 0 || terms > self.keys.layout.max_terms() {
            return Err(err("summed terms outside the packed headroom"));
        }
        if count as usize > self.keys.batch {
            return Err(err("more values than a batch carries"));
        }
        if n_cts != (count as usize).div_ceil(self.keys.layout.slots().max(1)) {
            return Err(err("group count does not match the value count"));
        }
        let n_squared = self.keys.keypair.public.modulus_squared();
        let mut cts = Vec::with_capacity(n_cts);
        for _ in 0..n_cts {
            let len = take_u32(&mut cur)? as usize;
            if cur.len() < len {
                return Err(err("truncated"));
            }
            let (raw, rest) = cur.split_at(len);
            cur = rest;
            let c = BigUint::from_bytes_be(raw);
            if c.is_zero() || &c >= n_squared {
                return Err(err("group outside [1, n²)"));
            }
            cts.push(PaillierCiphertext::from_biguint(c));
        }
        if cur.is_empty() {
            Ok(PackedPaillier { cts, count, terms })
        } else {
            Err(err("trailing bytes"))
        }
    }

    fn error_bound(&self, terms: usize) -> f64 {
        terms as f64 * self.keys.codec.quantization_error()
    }
}

/// Draws `n` uniform reals in `[lo, hi)` from a seeded RNG (test helper).
#[must_use]
pub fn seeded_uniform(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::montgomery::MontScratch;

    fn exercise_serialization<H: AdditiveHe>(scheme: &H)
    where
        H::Ciphertext: PartialEq + std::fmt::Debug,
    {
        let ct = scheme.encrypt(&[1.0, -2.0, 3.5]).unwrap();
        let bytes = scheme.ct_to_bytes(&ct);
        let back = scheme.ct_from_bytes(&bytes).unwrap();
        assert_eq!(back, ct, "{} ciphertext serialization roundtrip", scheme.name());
        assert!(scheme.ct_from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn ciphertext_serialization_roundtrips() {
        exercise_serialization(&PlainHe::new(8));
        exercise_serialization(&PaillierHe::generate(256, 8, 21).unwrap());
    }

    /// A serialized packed ciphertext with its three header words replaced.
    fn with_header(bytes: &[u8], count: u32, terms: u32, groups: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len());
        for word in [count, terms, groups] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&bytes[12..]);
        out
    }

    #[test]
    fn paillier_ct_from_bytes_rejects_lying_headers() {
        // 256 bits: 4 slots per group, so 6 values are 2 groups.
        let scheme = PaillierHe::generate(256, 16, 51).unwrap();
        let ct = scheme.encrypt(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let good = scheme.ct_to_bytes(&ct);
        assert_eq!(scheme.ct_from_bytes(&with_header(&good, 6, 1, 2)).unwrap(), ct);
        let max_terms = scheme.layout().max_terms();
        assert!(scheme.ct_from_bytes(&with_header(&good, 6, max_terms, 2)).is_ok());
        for (what, bad) in [
            ("zero terms", with_header(&good, 6, 0, 2)),
            ("terms past the headroom", with_header(&good, 6, max_terms + 1, 2)),
            ("terms = 1000", with_header(&good, 6, 1000, 2)),
            ("count past the batch", with_header(&good, 17, 1, 2)),
            ("count needing a third group", with_header(&good, 9, 1, 2)),
            ("count needing one group", with_header(&good, 4, 1, 2)),
            ("group count past the payload", with_header(&good, 6, 1, 3)),
            ("group count short of the payload", with_header(&good, 4, 1, 1)),
            ("huge group count", with_header(&good, 6, 1, u32::MAX)),
        ] {
            assert!(scheme.ct_from_bytes(&bad).is_err(), "{what}");
        }
    }

    #[test]
    fn paillier_ct_from_bytes_rejects_groups_outside_the_ciphertext_space() {
        let scheme = PaillierHe::generate(256, 4, 52).unwrap();
        let n_squared = scheme.keypair().public.modulus_squared();
        let frame = |group: &BigUint| {
            let raw = group.to_bytes_be();
            let mut out = with_header(&[0; 12], 1, 1, 1);
            out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
            out.extend_from_slice(&raw);
            out
        };
        assert!(scheme.ct_from_bytes(&frame(&BigUint::one())).is_ok());
        assert!(scheme.ct_from_bytes(&frame(&n_squared.sub(&BigUint::one()))).is_ok());
        assert!(scheme.ct_from_bytes(&frame(&BigUint::zero())).is_err(), "zero");
        assert!(scheme.ct_from_bytes(&frame(n_squared)).is_err(), "n²");
        assert!(scheme.ct_from_bytes(&frame(&n_squared.shl(64))).is_err(), "far past n²");
        // Every accepted frame decrypts without panicking, whatever it holds.
        let junk = scheme.ct_from_bytes(&frame(scheme.keypair().public.modulus())).unwrap();
        assert_eq!(scheme.decrypt(&junk, 1).len(), 1);
    }

    #[test]
    fn paillier_try_add_refuses_mismatched_shapes() {
        let scheme = PaillierHe::generate(256, 8, 53).unwrap();
        let six = scheme.encrypt(&[1.0; 6]).unwrap();
        let three = scheme.encrypt(&[1.0; 3]).unwrap();
        assert!(matches!(scheme.try_add(&six, &three), Err(Error::InvalidParameters(_))));
        // Doubling reaches the 16-term headroom in four steps; the fifth
        // would overflow the slots.
        let mut sum = six.clone();
        for _ in 0..4 {
            sum = scheme.try_add(&sum, &sum).unwrap();
        }
        assert_eq!(sum.terms(), 16);
        assert_eq!(scheme.decrypt(&sum, 6), vec![16.0; 6]);
        assert!(matches!(
            scheme.try_add(&sum, &six),
            Err(Error::PackedHeadroomExceeded { terms: 17, max_terms: 16 })
        ));
    }

    #[test]
    fn paillier_decrypt_many_equals_a_loop_of_decrypt() {
        let scheme = PaillierHe::generate(256, 16, 54).unwrap();
        let flat = seeded_uniform(6, 45, -9.0, 9.0);
        let batches: Vec<&[f64]> = flat.chunks(16).collect(); // 16, 16, 13
        let cts = scheme.encrypt_many(&batches).unwrap();
        // Full counts, a short ask, an over-ask and a zero ask.
        for counts in [[16usize, 16, 13], [5, 16, 1], [99, 0, 13]] {
            let asks: Vec<(&PackedPaillier, usize)> = cts.iter().zip(counts).collect();
            let looped: Vec<Vec<f64>> =
                asks.iter().map(|&(ct, count)| scheme.decrypt(ct, count)).collect();
            assert_eq!(scheme.decrypt_many(&asks).unwrap(), looped, "{counts:?}");
        }
        assert!(scheme.decrypt_many(&[]).unwrap().is_empty());
    }

    /// Ciphertexts of `groups` slot groups in all, at most 16 groups (64
    /// values at 4 slots) each, the last one short of a full group.
    fn packed(scheme: &PaillierHe, groups: usize) -> Vec<PackedPaillier> {
        let slots = scheme.layout().slots();
        let flat = seeded_uniform(groups as u64, groups * slots - 1, -9.0, 9.0);
        let batches: Vec<&[f64]> = flat.chunks(16 * slots).collect();
        scheme.encrypt_many(&batches).unwrap()
    }

    /// The scalar reference: a loop of `decrypt_with` over every group.
    fn decrypt_by_loop(scheme: &PaillierHe, ct: &PackedPaillier, count: usize) -> Vec<f64> {
        let mut scratch = MontScratch::default();
        scheme
            .group_tasks(ct, count)
            .flat_map(|(c, take)| {
                let residue = scheme.keys.keypair.private.decrypt_with(c, &mut scratch);
                let vals = scheme.keys.layout.unpack(&residue, take, ct.terms).unwrap();
                vals.into_iter().map(|v| scheme.keys.codec.decode_i128(v)).collect::<Vec<_>>()
            })
            .collect()
    }

    /// `decrypt_many_on` and the trait's `decrypt`, on every kernel this
    /// CPU runs, against a loop of the scalar `decrypt_with`: 1, 7, 8, 9
    /// and 17 groups (a lane batch short, full, one over, and a tail below
    /// the live-lane crossover), plus 515 (64 lane batches and a tail: the
    /// pool's parallel branch), on 1-, 2- and 4-thread pools.
    #[test]
    fn paillier_batched_decrypt_equals_a_loop_of_decrypt_with() {
        let scheme = PaillierHe::generate(256, 64, 55).unwrap();
        let pools: Vec<vfps_par::Pool> =
            [1, 2, 4].into_iter().map(vfps_par::Pool::with_threads).collect();
        for kernel in Kernel::available() {
            for groups in [1usize, 7, 8, 9, 17, 515] {
                let cts = packed(&scheme, groups);
                let asks: Vec<(&PackedPaillier, usize)> =
                    cts.iter().map(|ct| (ct, ct.count())).collect();
                let want: Vec<Vec<f64>> =
                    asks.iter().map(|&(ct, count)| decrypt_by_loop(&scheme, ct, count)).collect();
                for pool in &pools {
                    assert_eq!(
                        scheme.decrypt_many_with(&asks, pool, kernel).unwrap(),
                        want,
                        "{kernel:?}, {groups} groups, {} threads",
                        pool.threads()
                    );
                }
                for (&(ct, count), want) in asks.iter().zip(&want) {
                    assert_eq!(&scheme.decrypt_on_kernel(ct, count, kernel), want, "{kernel:?}");
                    // A short ask ends inside a lane batch.
                    let short = count.min(9);
                    assert_eq!(scheme.decrypt_on_kernel(ct, short, kernel), want[..short]);
                }
            }
        }
    }

    /// `encrypt_many_on` forced onto each kernel gives the bytes of the
    /// scalar kernel.
    #[test]
    fn paillier_encrypt_bytes_are_the_same_on_every_kernel() {
        let flat = seeded_uniform(8, 68, -5.0, 5.0);
        let batches: Vec<&[f64]> = flat.chunks(64).collect(); // 17 groups
        let bytes = |cts: Vec<PackedPaillier>, scheme: &PaillierHe| -> Vec<Vec<u8>> {
            cts.iter().map(|ct| scheme.ct_to_bytes(ct)).collect()
        };
        let pool = vfps_par::Pool::with_threads(2);
        let reference = {
            let scheme = PaillierHe::generate(256, 64, 79).unwrap();
            bytes(scheme.encrypt_many_with(&batches, &pool, Kernel::Scalar).unwrap(), &scheme)
        };
        for kernel in Kernel::available() {
            let scheme = PaillierHe::generate(256, 64, 79).unwrap();
            let cts = scheme.encrypt_many_with(&batches, &pool, kernel).unwrap();
            assert_eq!(bytes(cts, &scheme), reference, "{kernel:?}");
        }
    }

    fn exercise<H: AdditiveHe>(scheme: &H) {
        let a = [1.5, -2.25, 3.0, 0.0];
        let b = [0.5, 2.25, -1.0, 7.5];
        let ca = scheme.encrypt(&a).unwrap();
        let cb = scheme.encrypt(&b).unwrap();
        let sum = scheme.add(&ca, &cb);
        let out = scheme.decrypt(&sum, 4);
        let bound = scheme.error_bound(2).max(1e-12);
        for i in 0..4 {
            assert!(
                (out[i] - (a[i] + b[i])).abs() <= bound,
                "{} slot {i}: {} vs {}",
                scheme.name(),
                out[i],
                a[i] + b[i]
            );
        }
        assert!(scheme.ct_bytes(&ca) > 0);
    }

    #[test]
    fn plain_scheme_behaves() {
        exercise(&PlainHe::new(16));
    }

    #[test]
    fn paillier_scheme_behaves() {
        let scheme = PaillierHe::generate(256, 16, 11).unwrap();
        exercise(&scheme);
    }

    #[test]
    fn plain_batch_limit_enforced() {
        let scheme = PlainHe::new(2);
        assert!(scheme.encrypt(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn paillier_is_exact_up_to_quantization() {
        let p = PaillierHe::generate(256, 4, 1).unwrap();
        assert!(p.error_bound(100) < 1e-4, "paillier is exact up to quantization");
    }

    fn exercise_encrypt_many<H: AdditiveHe>(scheme: &H) {
        let flat = seeded_uniform(5, 9, -3.0, 3.0);
        let batches: Vec<&[f64]> = flat.chunks(3).collect();
        let cts = scheme.encrypt_many(&batches).unwrap();
        assert_eq!(cts.len(), batches.len());
        let bound = scheme.error_bound(1).max(1e-12);
        for (ct, batch) in cts.iter().zip(&batches) {
            let out = scheme.decrypt(ct, batch.len());
            for (got, want) in out.iter().zip(*batch) {
                assert!((got - want).abs() <= bound, "{}: {got} vs {want}", scheme.name());
            }
        }
    }

    #[test]
    fn encrypt_many_roundtrips_on_every_scheme() {
        exercise_encrypt_many(&PlainHe::new(8));
        exercise_encrypt_many(&PaillierHe::generate(256, 8, 31).unwrap());
    }

    #[test]
    fn encrypt_many_rejects_oversized_batches() {
        let scheme = PaillierHe::generate(256, 2, 41).unwrap();
        let big = [1.0, 2.0, 3.0];
        assert!(scheme.encrypt_many(&[&big[..]]).is_err());
    }

    #[test]
    fn schemes_report_distinct_names() {
        let p = PaillierHe::generate(128, 4, 1).unwrap();
        assert_eq!([PlainHe::new(1).name(), p.name()], ["plain", "paillier"]);
    }

    #[test]
    fn with_noise_seed_keeps_the_keys_and_restarts_the_stream() {
        let base = PaillierHe::generate(256, 8, 61).unwrap();
        let values = [1.25, -2.5, 3.0];
        let a = base.with_noise_seed(9);
        let again = base.with_noise_seed(9);
        let other = base.with_noise_seed(10);
        let ct = a.encrypt(&values).unwrap();
        assert_eq!(ct, again.encrypt(&values).unwrap(), "one seed repeats its factors");
        assert_ne!(ct, other.encrypt(&values).unwrap(), "two seeds share none");
        let back = base.decrypt(&ct, values.len());
        for (want, got) in values.iter().zip(&back) {
            assert!((want - got).abs() < 1e-6, "{want} vs {got}: the keys are shared");
        }
    }
}
