//! The `serve_*` workloads: exactly two closed-loop clients submitting
//! `SelectRequest`s to `vfps-serve`, directly or through `vfps-router`.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use vfps_cache::ArtifactCache;
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_core::{select_with_cache, CacheStatus, CachedSelection, TenantContext};
use vfps_net::cost::CostModel;
use vfps_net::wire::Wire;
use vfps_router::Ring;
use vfps_serve::{knn_mode, maximizer, DrainReport, Request, Response, SelectReply, SelectRequest};

use crate::stats::Rng;
use crate::trace::{span, Recorder};
use crate::world::{scratch_dir, Tier, World, PARTIES};

/// The client count is fixed, not derived from the host, so hosts compare.
pub const CLIENTS: usize = 2;
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// 7/8 exact repeats of a primed request, 1/8 that request minus its
    /// last party (served by the cache's churn-leave path).
    Warm,
    /// Every request carries a never-seen seed.
    Cold,
}

#[derive(Clone, Copy)]
pub struct ServeShape {
    pub routed: bool,
    pub mix: Mix,
    pub tenants: &'static [&'static str],
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Warm,
    Churn,
    Cold,
}

pub struct ServeSetup {
    pub tier: Tier,
    /// Where the measured clients connect.
    pub target: String,
    /// Per tenant: the hot request and the cold reply that primed it.
    pub hot: Vec<(SelectRequest, SelectReply)>,
    /// Select requests sent to the tier so far, for the drain balance.
    pub selects_sent: u64,
    seed: u64,
}

fn mix_seed(seed: u64, index: u64) -> u64 {
    Rng(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

fn hot_request(dataset: &str, seed: u64) -> SelectRequest {
    SelectRequest {
        request_id: 0,
        dataset: dataset.to_owned(),
        party_set: (0..PARTIES).collect(),
        select: 2,
        k: 10,
        query_count: 32,
        mode: 1,
        seed,
        deadline_ms: 0,
        maximizer: 0,
    }
}

fn selected(resp: Result<Response, vfps_serve::ClientError>, what: &str) -> SelectReply {
    match resp {
        Ok(Response::Selected(r)) => r,
        other => panic!("{what} must select, got {other:?}"),
    }
}

impl ServeSetup {
    /// Everything up to the first timed request: daemons (and router),
    /// then one cold request per tenant so worlds are materialized and —
    /// for the warm mix — the hot entry is cached. `daemons` is 2 behind a
    /// router, 1 direct; the traced pass always asks for 2 + router so the
    /// router's own numbers exist on every workload.
    pub fn new(shape: ServeShape, tier_routed: bool, seed: u64) -> ServeSetup {
        let tier = Tier::spawn(if tier_routed { 2 } else { 1 }, tier_routed, shape.tenants[0]);
        let target = if shape.routed { tier.front.clone() } else { tier.backends[0].clone() };
        let mut primer = Tier::client(&target);
        let hot: Vec<_> = shape
            .tenants
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let req = hot_request(name, mix_seed(seed, t as u64));
                let reply = selected(primer.select(&req), "a priming request");
                assert_eq!(reply.cache_status, "cold", "tenant {name}: prime must run cold");
                (req, reply)
            })
            .collect();
        if shape.routed && shape.tenants.len() > 1 {
            let status = primer.router_status().expect("router status");
            assert!(
                status.backends.iter().all(|b| b.routed > 0),
                "the tenant list must spread over both backends: {status:?}"
            );
        }
        let selects_sent = hot.len() as u64;
        ServeSetup { tier, target, hot, selects_sent, seed }
    }

    fn request(&self, tenant: usize, kind: Kind, id: u64) -> SelectRequest {
        let mut req = self.hot[tenant].0.clone();
        req.request_id = id;
        match kind {
            Kind::Warm => {}
            Kind::Churn => {
                req.party_set.pop();
            }
            // Hot seeds use indices below the tenant count; ids start at
            // 2^32, so a cold seed never repeats a hot one or another cold.
            Kind::Cold => req.seed = mix_seed(self.seed, id),
        }
        req
    }

    /// The backend that owns `tenant` on the router's ring.
    pub fn owner_backend(&self, tenant: usize) -> String {
        let status = Tier::client(&self.tier.front).router_status().expect("router status");
        let mut ring = Ring::new(status.ring_seed, status.vnodes_per_backend);
        for b in &status.backends {
            ring.add(&b.name);
        }
        let name = ring.lookup(&self.hot[tenant].0.dataset, |_| true).expect("nonempty ring");
        status.backends.iter().find(|b| b.name == name).expect("owner is a backend").addr.clone()
    }
}

pub struct Sample {
    pub kind: Kind,
    pub tenant: usize,
    pub id: u64,
    pub ms: f64,
    pub traced: bool,
    /// Request + reply frame bytes as the client wrote and read them.
    pub wire_bytes: u64,
    pub resp: Result<Response, String>,
}

fn frame_len(msg: &impl Wire) -> u64 {
    4 + msg.encoded_len() as u64
}

/// Two clients, each issuing requests back to back until `budget` has
/// elapsed and it has sent at least `min_per_client`. The timed interval
/// holds `Client::select` and nothing else: no sleep, no retry — with two
/// clients against a queue of eight, a `Busy` is a failure.
///
/// With a recorder, two requests in three are traced and the third is
/// not, so one pass yields the traced and the untraced median.
///
/// Returns the samples and the wall-clock in seconds.
pub fn measure(
    setup: &mut ServeSetup,
    shape: ServeShape,
    budget: Duration,
    min_per_client: usize,
    rec: Option<&Recorder>,
) -> (Vec<Sample>, f64) {
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let tenants = shape.tenants.len();
    let setup_ref = &*setup;
    let (samples, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut client = Tier::client(&setup_ref.target);
                    let mut rng = Rng(mix_seed(setup_ref.seed, 1000 + c as u64));
                    let mut out = Vec::new();
                    barrier.wait();
                    let started = Instant::now();
                    while out.len() < min_per_client || started.elapsed() < budget {
                        let i = out.len();
                        let id = ((c as u64 + 1) << 32) | i as u64;
                        let (tenant, kind) = match shape.mix {
                            Mix::Warm => {
                                let kind = if rng.below(8) == 0 { Kind::Churn } else { Kind::Warm };
                                (rng.below(tenants), kind)
                            }
                            Mix::Cold => ((c + i) % tenants, Kind::Cold),
                        };
                        let req = setup_ref.request(tenant, kind, id);
                        let req_bytes = frame_len(&Request::Select(req.clone()));
                        let traced = rec.is_some() && i % 3 != 2;
                        let rec = rec.filter(|_| traced);
                        let t = Instant::now();
                        let (resp, span_id) =
                            span(rec, "client.select", None, id, |s| (client.select(&req), s));
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let (Some(r), Some(s), Ok(Response::Selected(reply))) =
                            (rec, span_id, &resp)
                        {
                            // The reply carries only durations: the run is
                            // placed at the end of the request, the queue
                            // wait right before it.
                            r.stamp("serve.run", s, reply.run_us as f64, 0.0);
                            r.stamp("serve.queue", s, reply.queue_us as f64, reply.run_us as f64);
                        }
                        let wire_bytes = req_bytes + resp.as_ref().map_or(0, frame_len);
                        out.push(Sample {
                            kind,
                            tenant,
                            id,
                            ms,
                            traced,
                            wire_bytes,
                            resp: resp.map_err(|e| e.to_string()),
                        });
                    }
                    (out, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let (mut samples, mut ended) = (Vec::new(), started);
        for h in handles {
            let (out, at) = h.join().expect("load client");
            samples.extend(out);
            ended = ended.max(at);
        }
        (samples, (ended - started).as_secs_f64())
    });
    setup.selects_sent += samples.len() as u64;
    (samples, wall)
}

/// A direct `select_with_cache` caller over harness-built worlds and a
/// harness-owned cache: what the daemon must have computed.
struct Oracle {
    worlds: HashMap<String, (World, ArtifactCache)>,
    root: std::path::PathBuf,
}

impl Oracle {
    fn select(&mut self, req: &SelectRequest) -> CachedSelection {
        let root = &self.root;
        let (world, cache) = self.worlds.entry(req.dataset.clone()).or_insert_with(|| {
            let cache = ArtifactCache::open_tenant(root, &req.dataset).expect("oracle cache");
            (World::build(&req.dataset), cache)
        });
        let ctx = SelectionContext {
            ds: &world.ds,
            split: &world.split,
            partition: &world.partition,
            cost_scale: 1.0,
            seed: req.seed,
        };
        let sel = VfpsSmSelector {
            k: req.k,
            query_count: req.query_count,
            mode: knn_mode(req.mode).expect("harness sends known modes"),
            maximizer: maximizer(req.maximizer).expect("harness sends known maximizers"),
            ..VfpsSmSelector::default()
        };
        let tc = TenantContext { tenant: &req.dataset, dataset_tag: world.ds.name.as_bytes() };
        select_with_cache(cache, &sel, &ctx, &req.party_set, req.select, &CostModel::default(), &tc)
    }
}

/// Bit-equality of a reply's chosen set and scores with what was expected.
fn same_selection(reply: &SelectReply, chosen: &[usize], scores: &[f64]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    reply.chosen == chosen && bits(&reply.scores) == bits(scores)
}

fn same_as_direct(reply: &SelectReply, want: &CachedSelection) -> bool {
    same_selection(reply, &want.selection.chosen, &want.selection.scores)
}

/// How many cold replies per tenant are re-derived by the oracle.
const COLD_ORACLE_PER_TENANT: usize = 8;

/// The correctness oracles, run after the timed requests. Returns how many
/// requests failed, and appends a line per failure to `notes`.
///
/// * every reply is `Selected`, echoes its request id, and carries the
///   cache status its kind predicts;
/// * each prime equals a direct cold `select_with_cache` on a
///   harness-built world; warm replies are bit-equal to their prime with
///   zero encryptions; churn replies are bit-equal to the direct churn
///   call; the first cold replies per tenant are bit-equal to direct calls.
pub fn verify(setup: &ServeSetup, samples: &[Sample], notes: &mut Vec<String>) -> u64 {
    let mut oracle = Oracle { worlds: HashMap::new(), root: scratch_dir("oracle-cache") };
    // Per tenant: the direct cold result, then (cache now primed) the
    // direct churn-leave result.
    for (req, prime) in &setup.hot {
        let cold = oracle.select(req);
        if cold.status != CacheStatus::Cold || !same_as_direct(prime, &cold) {
            notes.push(format!("tenant {}: prime differs from a direct cold call", req.dataset));
        }
    }
    let mut churn_want: Vec<Option<CachedSelection>> = setup.hot.iter().map(|_| None).collect();
    let mut cold_checked = vec![0usize; setup.hot.len()];
    let mut failed = 0u64;
    for s in samples {
        let reply = match &s.resp {
            Ok(Response::Selected(r)) => r,
            other => {
                failed += 1;
                notes.push(format!("request {:#x} ({:?}): {other:?}", s.id, s.kind));
                continue;
            }
        };
        let prime = &setup.hot[s.tenant].1;
        let problem = if reply.request_id != s.id {
            Some("reply echoes another request id".to_owned())
        } else {
            match s.kind {
                Kind::Warm => (reply.cache_status != "warm"
                    || reply.enc_instances != 0
                    || !same_selection(reply, &prime.chosen, &prime.scores))
                .then(|| format!("warm reply differs from its prime: {reply:?}")),
                Kind::Churn => {
                    let want = churn_want[s.tenant].get_or_insert_with(|| {
                        oracle.select(&setup.request(s.tenant, s.kind, s.id))
                    });
                    (!matches!(want.status, CacheStatus::ChurnLeave(_))
                        || reply.cache_status != want.status.to_string()
                        || reply.enc_instances != 0
                        || !same_as_direct(reply, want))
                    .then(|| format!("churn reply differs from a direct churn call: {reply:?}"))
                }
                Kind::Cold if reply.cache_status != "cold" => {
                    Some(format!("cold request served {}", reply.cache_status))
                }
                Kind::Cold if cold_checked[s.tenant] < COLD_ORACLE_PER_TENANT => {
                    cold_checked[s.tenant] += 1;
                    let want = oracle.select(&setup.request(s.tenant, s.kind, s.id));
                    (!same_as_direct(reply, &want)
                        || reply.enc_instances != want.selection.ledger.enc.work)
                        .then(|| format!("cold reply differs from a direct call: {reply:?}"))
                }
                Kind::Cold => None,
            }
        };
        if let Some(p) = problem {
            failed += 1;
            notes.push(format!("request {:#x}: {p}", s.id));
        }
    }
    failed
}

/// The drain report must balance: everything admitted was answered, and
/// everything the harness sent was admitted.
pub fn check_drain(report: &DrainReport, selects_sent: u64, notes: &mut Vec<String>) {
    let balanced = report.in_flight == 0
        && report.accepted == report.completed + report.failed
        && report.accepted == selects_sent
        && report.failed == 0;
    if !balanced {
        notes.push(format!("drain does not balance for {selects_sent} selects sent: {report:?}"));
    }
}
