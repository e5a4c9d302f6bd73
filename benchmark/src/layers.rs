//! Layer replays: re-execute, serially and from outside, the public calls
//! one round or one request makes into each layer, on the workload's own
//! inputs. Every call is a span; per-layer numbers are span self times.

use std::time::Instant;

use vfps_cache::{ArtifactCache, CacheEntry};
use vfps_core::cached::cache_key;
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_core::{
    select_with_cache, CacheStatus, KnnSubmodular, SimilarityAccumulator, TenantContext,
};
use vfps_he::scheme::AdditiveHe;
use vfps_ml::linalg::squared_distance;
use vfps_net::cost::{CostModel, OpLedger};
use vfps_net::{read_frame, write_frame};
use vfps_serve::{Request, Response, SelectReply, SelectRequest, TenantRegistry};
use vfps_topk::stream::StreamingFagin;
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode};

use crate::knn::{self, KnnSetup};
use crate::stats::median;
use crate::trace::{span, Recorder};
use crate::world::{scratch_dir, World, DATA_SEED, PARTIES};
use crate::Metrics;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays the calls of one fed-KNN round (all `Q` queries, all parties)
/// that the protocol nodes make into `ml`, `vfl`'s ranking, `topk` and
/// `he`. The stream is always replayed; `mode` decides which candidate
/// set reaches the HE calls (all `N` rows for Base).
pub fn replay_knn(setup: &KnnSetup, mode: KnnMode, rec: &Recorder, m: &mut Metrics) {
    let he = &*setup.he;
    let queries = setup.round_queries(0);
    let session = setup.session(mode, &queries);
    let cfg = knn::config(mode);
    let n = session.db_rows.len();
    let inputs: Vec<_> = (0..PARTIES)
        .map(|slot| session.local_inputs(&setup.world.ds.x, &setup.world.partition, slot))
        .collect();
    let op = u64::MAX; // one id for the whole replay
    let (mut batches, mut candidates_total, mut cts_total) = (0usize, 0usize, 0usize);

    for (qi, &query_row) in queries.iter().enumerate() {
        let self_pos = session.db_rows.iter().position(|&r| r == query_row);
        let partials: Vec<Vec<f64>> = span(Some(rec), "ml.partial_dist", None, op, |_| {
            inputs
                .iter()
                .map(|(view, qfeats)| {
                    (0..n)
                        .map(|i| {
                            if Some(i) == self_pos {
                                f64::INFINITY
                            } else {
                                squared_distance(&qfeats[qi], view.row(i))
                            }
                        })
                        .collect()
                })
                .collect()
        });
        let rankings: Vec<Vec<usize>> = span(Some(rec), "vfl.rank_sort", None, op, |_| {
            partials
                .iter()
                .map(|p| {
                    let mut ranking: Vec<usize> = (0..n).collect();
                    ranking.sort_by(|&a, &b| p[a].total_cmp(&p[b]).then(a.cmp(&b)));
                    ranking.iter().map(|&pos| session.perm[pos]).collect()
                })
                .collect()
        });
        let mut sf = StreamingFagin::new(PARTIES, n, cfg.k.min(n));
        let mut cursor = 0;
        span(Some(rec), "topk.stream_feed", None, op, |_| {
            while !sf.is_complete() && cursor < n {
                let end = (cursor + cfg.batch).min(n);
                for (slot, ranking) in rankings.iter().enumerate() {
                    if !sf.is_complete() {
                        sf.feed(slot, &ranking[cursor..end]);
                        batches += 1;
                    }
                }
                cursor = end;
            }
        });
        let candidates: Vec<usize> = match mode {
            KnnMode::Fagin => sf.candidates().to_vec(),
            _ => (0..n).map(|pos| session.perm[pos]).collect(),
        };
        candidates_total += sf.candidate_count();

        let values: Vec<Vec<f64>> = partials
            .iter()
            .map(|p| {
                candidates
                    .iter()
                    .map(|&pseudo| {
                        let v = p[session.inv[pseudo]];
                        // The protocol's self-exclusion sentinel.
                        if v.is_finite() {
                            v
                        } else {
                            1e9
                        }
                    })
                    .collect()
            })
            .collect();
        let chunk = he.max_batch().max(1);
        let encrypted: Vec<Vec<_>> = span(Some(rec), "he.encrypt_many", None, op, |_| {
            values
                .iter()
                .map(|v| {
                    let chunks: Vec<&[f64]> = v.chunks(chunk).collect();
                    he.encrypt_many(&chunks).expect("partials are encryptable")
                })
                .collect()
        });
        cts_total += encrypted.iter().map(Vec::len).sum::<usize>();
        let decoded: Vec<Vec<_>> = span(Some(rec), "he.codec", None, op, |_| {
            encrypted
                .iter()
                .map(|cts| {
                    cts.iter()
                        .map(|ct| he.ct_from_bytes(&he.ct_to_bytes(ct)).expect("own encoding"))
                        .collect()
                })
                .collect()
        });
        let aggregate = span(Some(rec), "he.add", None, op, |_| {
            let mut parts = decoded.into_iter();
            let first = parts.next().expect("at least one party");
            parts.fold(first, |acc, cts| acc.iter().zip(&cts).map(|(a, b)| he.add(a, b)).collect())
        });
        span(Some(rec), "he.decrypt", None, op, |_| {
            let mut remaining = candidates.len();
            for ct in &aggregate {
                let count = remaining.min(chunk);
                std::hint::black_box(he.decrypt(ct, count));
                remaining -= count;
            }
        });
    }

    let total = |name: &str| rec.self_times().get(name).map_or(0.0, |&(_, t)| t);
    let q = queries.len() as f64;
    let encrypted_values = match mode {
        KnnMode::Fagin => candidates_total,
        _ => n * queries.len(),
    } * PARTIES;
    let adds = cts_total / PARTIES * (PARTIES - 1);
    m.set("he.encrypt_us_per_value", total("he.encrypt_many") / encrypted_values as f64);
    m.set("he.decrypt_us_per_value", total("he.decrypt") / (encrypted_values / PARTIES) as f64);
    m.set("he.add_us_per_ct", total("he.add") / adds as f64);
    m.set("he.codec_us_per_ct", total("he.codec") / cts_total as f64);
    m.set("ml.partial_dist_us_per_query", total("ml.partial_dist") / q);
    m.set("vfl.rank_sort_us_per_query", total("vfl.rank_sort") / q);
    m.set("topk.stream_feed_us_per_query", total("topk.stream_feed") / q);
    m.set("topk.batches_per_query", batches as f64 / q);

    let keygens: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            span(Some(rec), "he.keygen", None, op, |_| std::hint::black_box(knn::keygen()));
            us(t) / 1e3
        })
        .collect();
    m.set("he.keygen_ms", median(&keygens));
}

/// How full the tenant directory is for the `*_full` cache numbers: the
/// size a `serve_cold_direct` run reaches.
const FULL_DIRECTORY: usize = 300;

/// Replays the calls one `SelectRequest` makes below `vfps-serve`'s
/// worker: tenant resolve, `cache_key`, the cache probes, the logical
/// fed-KNN engine, similarity, maximizer, store — then the whole cold and
/// warm `select_with_cache`, and the frame codec of a request and reply.
pub fn replay_select(world: &World, seed: u64, rec: &Recorder, m: &mut Metrics) {
    let op = u64::MAX - 1;
    let root = scratch_dir("replay-cache");
    let cache = ArtifactCache::open_tenant(&root, "Bank").expect("replay cache");
    let cost_model = CostModel::default();
    let sel = VfpsSmSelector { query_count: 32, ..VfpsSmSelector::default() };
    let party_set: Vec<usize> = (0..PARTIES).collect();
    let tc = TenantContext { tenant: "Bank", dataset_tag: world.ds.name.as_bytes() };
    let ctx = SelectionContext {
        ds: &world.ds,
        split: &world.split,
        partition: &world.partition,
        cost_scale: 1.0,
        seed,
    };
    // Median µs of `reps` spans around `f`: `REPEAT` for calls that leave
    // the cache as they found it, `ONCE` for those that change it.
    const REPEAT: usize = 5;
    const ONCE: usize = 1;
    let timed = |name: &'static str, reps: usize, f: &mut dyn FnMut()| {
        let runs: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                span(Some(rec), name, None, op, |_| f());
                us(t)
            })
            .collect();
        median(&runs)
    };

    let mut key = None;
    m.set(
        "core.cache_key_us",
        timed("core.cache_key", REPEAT, &mut || {
            key = Some(cache_key(&sel, &ctx, &party_set, &cost_model, &tc));
        }),
    );
    let key = key.expect("ran");

    m.set(
        "cache.lookup_miss_us",
        timed("cache.lookup_miss", REPEAT, &mut || {
            assert!(cache.lookup(&key).expect("readable cache").is_none(), "empty cache must miss");
        }),
    );

    // The cold path's compute, call by call.
    let queries = sel.query_rows(&ctx);
    let knn_cfg = FedKnnConfig { k: sel.k, mode: sel.mode, batch: sel.batch, cost_scale: 1.0 };
    let engine =
        FedKnn::new(&world.ds.x, &world.partition, &party_set, &world.split.train, knn_cfg);
    let mut outcomes = Vec::new();
    m.set(
        "vfl.fed_knn_batch_us",
        timed("vfl.fed_knn_batch", REPEAT, &mut || {
            outcomes = engine.query_batch(&queries, vfps_par::global(), &mut OpLedger::default());
        }),
    );
    let mut w = Vec::new();
    m.set(
        "core.similarity_us",
        timed("core.similarity", REPEAT, &mut || {
            let counts = party_set.iter().map(|&p| world.partition.columns(p).len()).collect();
            let mut acc = SimilarityAccumulator::new(PARTIES).with_feature_counts(counts);
            for o in &outcomes {
                acc.add_query(o).expect("full-width outcome");
            }
            w = acc.finish();
        }),
    );
    m.set(
        "core.maximize_us",
        timed("core.maximize", REPEAT, &mut || {
            let f = KnnSubmodular::new(w.clone());
            std::hint::black_box(f.maximize(2, sel.maximizer, seed, vfps_par::global()));
        }),
    );

    // The whole request, cold then warm, through the public entry point.
    let mut cold = None;
    m.set(
        "core.select_cold_us",
        timed("core.select_cold", ONCE, &mut || {
            cold = Some(select_with_cache(&cache, &sel, &ctx, &party_set, 2, &cost_model, &tc));
        }),
    );
    let cold = cold.expect("ran");
    assert_eq!(cold.status, CacheStatus::Cold, "first request of a fresh cache is cold");
    m.set(
        "core.select_warm_us",
        timed("core.select_warm", REPEAT, &mut || {
            let warm = select_with_cache(&cache, &sel, &ctx, &party_set, 2, &cost_model, &tc);
            assert_eq!(warm.status, CacheStatus::Warm, "repeat request is warm");
        }),
    );
    let mut entry: Option<CacheEntry> = None;
    m.set(
        "cache.lookup_hit_us",
        timed("cache.lookup_hit", REPEAT, &mut || {
            entry = cache.lookup(&key).expect("readable cache");
        }),
    );
    let mut entry = entry.expect("the cold run stored its entry");

    // Store into an empty shard, then into one as full as a cold run gets.
    let fill = ArtifactCache::open_tenant(scratch_dir("replay-fill"), "Bank").expect("fill cache");
    let mut stored = None;
    m.set(
        "cache.store_us_empty",
        timed("cache.store_empty", ONCE, &mut || {
            stored = Some(fill.store(&entry).expect("writable cache"));
        }),
    );
    let bytes = std::fs::metadata(stored.expect("stored")).expect("entry file").len();
    m.set("cache.entry_bytes", bytes as f64);
    for i in 1..FULL_DIRECTORY as u64 {
        entry.key.seed = seed.wrapping_add(i);
        fill.store(&entry).expect("writable cache");
    }
    entry.key.seed = seed.wrapping_add(FULL_DIRECTORY as u64);
    m.set(
        "cache.store_us_full",
        timed("cache.store_full", ONCE, &mut || {
            fill.store(&entry).expect("writable cache");
        }),
    );
    entry.key.seed = seed.wrapping_add(FULL_DIRECTORY as u64 + 1);
    m.set(
        "cache.lookup_churn_us",
        timed("cache.lookup_churn", REPEAT, &mut || {
            assert!(fill.lookup_churn(&entry.key).expect("scan").is_none(), "no neighbor stored");
        }),
    );

    // Tenant resolve on the resident fast path.
    let registry =
        TenantRegistry::new("Bank", 0, PARTIES, DATA_SEED, scratch_dir("replay-registry"), 4);
    registry.resolve("").expect("default tenant materializes");
    const RESOLVES: usize = 1000;
    let t = Instant::now();
    span(Some(rec), "serve.tenant_resolve", None, op, |_| {
        for _ in 0..RESOLVES {
            std::hint::black_box(registry.resolve("Bank").expect("resident"));
        }
    });
    m.set("serve.tenant_resolve_us", us(t) / RESOLVES as f64);

    // One request frame and one reply frame, written and read back.
    let request = Request::Select(SelectRequest {
        request_id: 1,
        dataset: "Bank".into(),
        party_set: party_set.clone(),
        select: 2,
        k: sel.k,
        query_count: sel.query_count,
        mode: 1,
        seed,
        deadline_ms: 0,
        maximizer: 0,
    });
    let reply = Response::Selected(SelectReply {
        request_id: 1,
        chosen: cold.selection.chosen.clone(),
        scores: cold.selection.scores.clone(),
        cache_status: cold.status.to_string(),
        enc_instances: cold.selection.ledger.enc.work,
        cache_hits: 0,
        cache_misses: 1,
        queue_us: 1,
        run_us: 1,
        random_accesses: 0,
    });
    const CODECS: usize = 1000;
    let mut buf = Vec::with_capacity(512);
    let t = Instant::now();
    span(Some(rec), "net.frame_codec", None, op, |_| {
        for _ in 0..CODECS {
            buf.clear();
            write_frame(&mut buf, &request).expect("vec write");
            write_frame(&mut buf, &reply).expect("vec write");
            let mut r = buf.as_slice();
            let a: Option<Request> = read_frame(&mut r).expect("own frame");
            let b: Option<Response> = read_frame(&mut r).expect("own frame");
            std::hint::black_box((a, b));
        }
    });
    m.set("net.frame_codec_us", us(t) / CODECS as f64);
}
