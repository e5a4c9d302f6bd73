//! # vfps-core — VFPS-SM: participant selection in vertical federated
//! learning via submodular maximization
//!
//! Reproduction of *"Hounding Data Diversity: Towards Participant Selection
//! in Vertical Federated Learning"* (ICDE 2025). Given a consortium of `P`
//! participants holding disjoint feature sets over the same samples,
//! VFPS-SM selects the `S` participants that maximize a KNN-proxy
//! likelihood — a normalized, monotone, **submodular** objective that
//! rewards feature *diversity* — while keeping the selection itself cheap
//! via Fagin's top-k algorithm over encrypted partial distances.
//!
//! * [`similarity`] — the `w(p, s)` participant similarity from federated
//!   KNN outcomes;
//! * [`submodular`] — `f(S) = Σ_p max_{s∈S} w(p, s)` over the dense
//!   `P × P` similarity, maximized through one entry point,
//!   [`KnnSubmodular::maximize`]: lazy greedy (greedy's set, `1 − 1/e`
//!   guarantee) or seeded stochastic greedy (`1 − 1/e − ε`);
//! * [`selectors`] — `VFPS-SM`, `VFPS-SM-BASE`, and the `RANDOM`,
//!   `SHAPLEY`, `VF-MINE`, `ALL` baselines;
//! * [`pipeline`] — the end-to-end select → train → evaluate → cost-report
//!   flow behind every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use vfps_core::pipeline::{run_pipeline, Method, PipelineConfig};
//! use vfps_data::DatasetSpec;
//! use vfps_vfl::split_train::Downstream;
//!
//! let spec = DatasetSpec::by_name("Rice").unwrap();
//! let cfg = PipelineConfig { sim_instances: Some(300), ..Default::default() };
//! let report = run_pipeline(&spec, Method::VfpsSm, Downstream::Knn { k: 5 }, &cfg, 42);
//! assert_eq!(report.chosen.len(), 2);
//! assert!(report.accuracy > 0.5);
//! ```

#![warn(missing_docs)]

pub mod cached;
pub mod incremental;
pub mod pipeline;
pub mod report;
pub mod selectors;
pub mod similarity;
pub mod submodular;

pub use cached::{
    select_with_cache, select_with_digest, CacheStatus, CachedSelection, TenantContext,
    TenantDigest,
};
pub use incremental::IncrementalConsortium;
pub use pipeline::{make_selector, run_averaged, run_pipeline, Method, PipelineConfig, RunReport};
pub use report::selection_report;
pub use selectors::{
    AllSelector, RandomSelector, Selection, SelectionContext, Selector, ShapleySelector,
    VfMineSelector, VfpsSmSelector,
};
pub use similarity::{SimilarityAccumulator, SimilarityError};
pub use submodular::{KnnSubmodular, Maximizer};
