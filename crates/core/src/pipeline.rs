//! The end-to-end VFPS-SM pipeline: prepare data → select participants →
//! train the downstream model → report accuracy and simulated cost, the
//! flow every table and figure of the paper's evaluation exercises.

use crate::selectors::{
    AllSelector, RandomSelector, Selection, SelectionContext, Selector, ShapleySelector,
    VfMineSelector, VfpsSmSelector,
};
use crate::submodular::Maximizer;
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_ml::mlp::TrainConfig;
use vfps_net::cost::CostModel;
use vfps_vfl::split_train::{train_downstream, Downstream};

/// Selection method, as named in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Train with the full consortium.
    All,
    /// Random selection.
    Random,
    /// Exact Shapley values over the KNN proxy.
    Shapley,
    /// Mutual-information scoring.
    VfMine,
    /// The paper's method.
    VfpsSm,
    /// The paper's method without the Fagin optimization.
    VfpsSmBase,
}

impl Method {
    /// All methods in the paper's table order.
    pub const TABLE_ORDER: [Method; 5] =
        [Method::All, Method::Random, Method::Shapley, Method::VfMine, Method::VfpsSm];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Method::All => "ALL",
            Method::Random => "RANDOM",
            Method::Shapley => "SHAPLEY",
            Method::VfMine => "VFMINE",
            Method::VfpsSm => "VFPS-SM",
            Method::VfpsSmBase => "VFPS-SM-BASE",
        }
    }
}

/// Pipeline configuration (defaults mirror the paper's main experiments:
/// 4 parties, select 2, k = 10).
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Consortium size.
    pub parties: usize,
    /// How many participants to select.
    pub select: usize,
    /// Proxy-KNN neighbor count (paper default 10, Fig. 8 sweeps it).
    pub knn_k: usize,
    /// Query-sample size for the similarity phase.
    pub query_count: usize,
    /// Fagin mini-batch size.
    pub batch: usize,
    /// Downstream training hyper-parameters.
    pub train: TrainConfig,
    /// Cost model for simulated timing.
    pub cost_model: CostModel,
    /// Override for the simulated instance count (None = spec default).
    pub sim_instances: Option<usize>,
    /// Extra duplicate participants cloned from the strongest base party
    /// (Fig. 6's redundancy injection).
    pub duplicates: usize,
    /// Directory for the selection-artifact cache (`vfps-cache`). When set,
    /// VFPS-SM selections are served through [`crate::cached::select_with_cache`]:
    /// a repeated request reuses the cached similarity matrix (zero new
    /// encryptions, bit-identical selection) and a degraded or unusable
    /// cache silently falls back to the cold path. `None` (the default)
    /// runs every selection cold and touches no disk. Only the VFPS-SM
    /// variants are cacheable — the baselines ignore this.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Submodular maximizer for the VFPS-SM selection tail (the baselines
    /// ignore it). `Greedy` (the default) reproduces the paper; the
    /// sublinear variants scale the party axis (DESIGN.md §12).
    pub maximizer: Maximizer,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            parties: 4,
            select: 2,
            knn_k: 10,
            query_count: 24,
            batch: 100,
            train: TrainConfig::fast(),
            cost_model: CostModel::default(),
            sim_instances: None,
            duplicates: 0,
            cache_dir: None,
            maximizer: Maximizer::Greedy,
        }
    }
}

/// One pipeline run's results.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Dataset name.
    pub dataset: String,
    /// Selection method.
    pub method: Method,
    /// Downstream model.
    pub model: Downstream,
    /// Chosen sub-consortium.
    pub chosen: Vec<usize>,
    /// Test accuracy of the downstream model.
    pub accuracy: f64,
    /// Simulated selection-phase seconds (paper scale).
    pub selection_seconds: f64,
    /// Simulated training-phase seconds (paper scale).
    pub training_seconds: f64,
    /// Average instances encrypted per query during selection (Fig. 9).
    pub candidates_per_query: f64,
    /// Which base party duplicates were cloned from (Fig. 6 runs only).
    pub duplicated_party: Option<usize>,
    /// How the artifact cache served the selection (`"cold"`, `"warm"`,
    /// `"churn-join(p)"`, `"churn-leave(p)"`, `"bypass"`); `None` when no
    /// cache directory was configured or the method is not cacheable.
    pub cache: Option<String>,
    /// Wall-clock milliseconds the simulation itself took.
    pub real_ms: f64,
    /// Wall-clock milliseconds per pipeline phase, in execution order
    /// (`prepare`, `select`, `train`). The same phases are also emitted as
    /// `pipeline.*` spans on the `vfps_obs` recorder when a capture is
    /// active.
    pub phase_ms: Vec<(String, f64)>,
}

impl RunReport {
    /// Selection + training.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.selection_seconds + self.training_seconds
    }
}

/// Builds the selector for `method`.
#[must_use]
pub fn make_selector(method: Method, cfg: &PipelineConfig) -> Box<dyn Selector> {
    match method {
        Method::All => Box::new(AllSelector),
        Method::Random => Box::new(RandomSelector),
        Method::Shapley => Box::new(ShapleySelector { k: cfg.knn_k, ..ShapleySelector::default() }),
        Method::VfMine => Box::new(VfMineSelector::default()),
        Method::VfpsSm => Box::new(VfpsSmSelector {
            k: cfg.knn_k,
            query_count: cfg.query_count,
            batch: cfg.batch,
            maximizer: cfg.maximizer,
            ..VfpsSmSelector::default()
        }),
        Method::VfpsSmBase => Box::new(
            VfpsSmSelector {
                k: cfg.knn_k,
                query_count: cfg.query_count,
                batch: cfg.batch,
                maximizer: cfg.maximizer,
                ..VfpsSmSelector::default()
            }
            .base(),
        ),
    }
}

/// Runs one (dataset, method, model) pipeline with the given seed.
///
/// # Panics
/// Panics on inconsistent configuration (e.g. selecting more parties than
/// exist).
#[must_use]
pub fn run_pipeline(
    spec: &DatasetSpec,
    method: Method,
    model: Downstream,
    cfg: &PipelineConfig,
    seed: u64,
) -> RunReport {
    let started = std::time::Instant::now();
    vfps_obs::span!("pipeline.run");
    let mut phase_ms: Vec<(String, f64)> = Vec::with_capacity(3);
    let mut timed = |name: &str, since: std::time::Instant| {
        phase_ms.push((name.to_owned(), since.elapsed().as_secs_f64() * 1e3));
        std::time::Instant::now()
    };

    let prepare_span = vfps_obs::span("pipeline.prepare");
    let sim_n = cfg.sim_instances.unwrap_or(spec.sim_instances);
    let (ds, split) = prepared_sized(spec, sim_n, seed);
    let cost_scale = spec.paper_instances as f64 / sim_n as f64;

    let mut partition = VerticalPartition::random(ds.n_features(), cfg.parties, seed);
    let mut duplicated_party = None;
    if cfg.duplicates > 0 {
        // Fig. 6 injects copies of a *high-value* partition: that is what
        // makes score-based baselines keep selecting the copies. Rank the
        // base parties by a quick MI score and duplicate the strongest.
        let train_x = ds.x.select_rows(&split.train);
        let train_y: Vec<usize> = split.train.iter().map(|&r| ds.y[r]).collect();
        let best = (0..cfg.parties)
            .max_by(|&a, &b| {
                let mi = |p: usize| {
                    vfps_ml::mi::group_label_mi(
                        &train_x,
                        partition.columns(p),
                        &train_y,
                        ds.n_classes,
                        10,
                        4,
                        seed,
                    )
                };
                mi(a).total_cmp(&mi(b))
            })
            .expect("at least one party");
        partition = partition.with_duplicates(best, cfg.duplicates);
        duplicated_party = Some(best);
    }

    drop(prepare_span);
    let t = timed("prepare", started);

    let ctx = SelectionContext { ds: &ds, split: &split, partition: &partition, cost_scale, seed };
    let select_span = vfps_obs::span("pipeline.select");
    let (selection, cache): (Selection, Option<String>) = match (&cfg.cache_dir, method) {
        (Some(dir), Method::VfpsSm | Method::VfpsSmBase) => {
            let mut sel = VfpsSmSelector {
                k: cfg.knn_k,
                query_count: cfg.query_count,
                batch: cfg.batch,
                maximizer: cfg.maximizer,
                ..VfpsSmSelector::default()
            };
            if method == Method::VfpsSmBase {
                sel = sel.base();
            }
            match vfps_cache::ArtifactCache::open(dir) {
                Ok(cache) => {
                    let party_set: Vec<usize> = (0..ctx.parties()).collect();
                    let served = crate::cached::select_with_cache(
                        &cache,
                        &sel,
                        &ctx,
                        &party_set,
                        cfg.select,
                        &cfg.cost_model,
                        &crate::cached::TenantContext::single(&spec.canonical_bytes()),
                    );
                    (served.selection, Some(served.status.to_string()))
                }
                // An unusable cache directory must never fail the run.
                Err(_) => (sel.select(&ctx, cfg.select), None),
            }
        }
        _ => (make_selector(method, cfg).select(&ctx, cfg.select), None),
    };
    drop(select_span);
    vfps_obs::gauge_set("pipeline.candidates_per_query", selection.candidates_per_query);
    let t = timed("select", t);

    let train_span = vfps_obs::span("pipeline.train");
    let downstream = train_downstream(
        &ds,
        &split,
        &partition,
        &selection.chosen,
        model,
        &cfg.train,
        cost_scale,
        seed,
    );
    drop(train_span);
    let _ = timed("train", t);

    RunReport {
        dataset: spec.name.to_owned(),
        method,
        model,
        chosen: selection.chosen,
        accuracy: downstream.accuracy,
        selection_seconds: selection.ledger.simulated_seconds(&cfg.cost_model),
        training_seconds: downstream.ledger.simulated_seconds(&cfg.cost_model),
        candidates_per_query: selection.candidates_per_query,
        duplicated_party,
        cache,
        real_ms: started.elapsed().as_secs_f64() * 1e3,
        phase_ms,
    }
}

/// Averages `runs` seeded pipeline runs (the paper averages over five).
///
/// # Panics
/// Panics when `runs == 0`.
#[must_use]
pub fn run_averaged(
    spec: &DatasetSpec,
    method: Method,
    model: Downstream,
    cfg: &PipelineConfig,
    runs: usize,
    base_seed: u64,
) -> RunReport {
    assert!(runs > 0, "need at least one run");
    let reports: Vec<RunReport> = (0..runs)
        .map(|r| run_pipeline(spec, method, model, cfg, base_seed + r as u64 * 101))
        .collect();
    let n = runs as f64;
    let mut avg = reports[0].clone();
    avg.accuracy = reports.iter().map(|r| r.accuracy).sum::<f64>() / n;
    avg.selection_seconds = reports.iter().map(|r| r.selection_seconds).sum::<f64>() / n;
    avg.training_seconds = reports.iter().map(|r| r.training_seconds).sum::<f64>() / n;
    avg.candidates_per_query = reports.iter().map(|r| r.candidates_per_query).sum::<f64>() / n;
    avg.real_ms = reports.iter().map(|r| r.real_ms).sum::<f64>();
    // Every run records the same phase sequence; average elementwise.
    for (i, slot) in avg.phase_ms.iter_mut().enumerate() {
        slot.1 = reports.iter().map(|r| r.phase_ms[i].1).sum::<f64>() / n;
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfps_data::DatasetSpec;

    #[test]
    fn method_names_match_paper_tables() {
        let names: Vec<&str> = Method::TABLE_ORDER.iter().map(Method::name).collect();
        assert_eq!(names, vec!["ALL", "RANDOM", "SHAPLEY", "VFMINE", "VFPS-SM"]);
        assert_eq!(Method::VfpsSmBase.name(), "VFPS-SM-BASE");
    }

    #[test]
    fn make_selector_covers_every_method() {
        let cfg = PipelineConfig::default();
        for m in Method::TABLE_ORDER.into_iter().chain([Method::VfpsSmBase]) {
            let s = make_selector(m, &cfg);
            assert_eq!(s.name(), m.name());
        }
    }

    #[test]
    fn run_averaged_averages() {
        let spec = DatasetSpec::by_name("Rice").unwrap();
        let cfg = PipelineConfig { sim_instances: Some(200), query_count: 8, ..Default::default() };
        let avg = run_averaged(&spec, Method::Random, Downstream::Knn { k: 3 }, &cfg, 2, 5);
        let a = run_pipeline(&spec, Method::Random, Downstream::Knn { k: 3 }, &cfg, 5);
        let b = run_pipeline(&spec, Method::Random, Downstream::Knn { k: 3 }, &cfg, 106);
        assert!((avg.accuracy - (a.accuracy + b.accuracy) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_extend_the_consortium() {
        let spec = DatasetSpec::by_name("Rice").unwrap();
        let cfg = PipelineConfig {
            sim_instances: Some(200),
            duplicates: 2,
            query_count: 8,
            ..Default::default()
        };
        let r = run_pipeline(&spec, Method::All, Downstream::Knn { k: 3 }, &cfg, 1);
        assert_eq!(r.chosen.len(), 6, "4 base + 2 duplicates");
    }
}
