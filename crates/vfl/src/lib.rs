//! # vfps-vfl — vertical federated learning protocols
//!
//! The protocol layer between the substrates (HE, top-k, data, ML, net) and
//! the VFPS-SM selection logic:
//!
//! * [`fed_knn`] — vertical federated KNN, both `VFPS-SM-BASE` (encrypt all
//!   N partial distances) and the Fagin-optimized variant, as a logical
//!   engine with exact operation/byte billing;
//! * [`protocol`] — the same protocol run thread-per-node over the
//!   simulated cluster with *real* homomorphic encryption and pseudo-ID
//!   shuffling (tests assert it matches the logical engine);
//! * `outcome` — what both engines compute per query, written once: the
//!   self-excluded partial distances, the leader's pick and `d_T^p`;
//! * [`split_train`] — downstream KNN/LR/MLP training over a selected
//!   sub-consortium with split-learning cost billing.
//!
//! ```
//! use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
//! use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig};
//! use vfps_net::cost::OpLedger;
//!
//! let spec = DatasetSpec::by_name("Rice").unwrap();
//! let (ds, split) = prepared_sized(&spec, 200, 1);
//! let partition = VerticalPartition::random(ds.n_features(), 4, 1);
//! let engine = FedKnn::new(&ds.x, &partition, &[0, 1, 2, 3], &split.train,
//!                          FedKnnConfig::default());
//! let mut ledger = OpLedger::default();
//! let outcome = engine.query(split.train[0], &mut ledger);
//! assert_eq!(outcome.d_t.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod fed_knn;
mod he_wire;
mod outcome;
pub mod protocol;
pub mod split_train;

pub use fed_knn::{FedKnn, FedKnnConfig, KnnMode, QueryOutcome};
pub use protocol::{
    knn_participant_node, knn_server_node, run_threaded_knn, run_threaded_knn_faulted, FaultedRun,
    KnnNodeOut, KnnSession, ProtoMsg, ThreadedKnnRun,
};
pub use split_train::{train_downstream, Downstream, DownstreamReport};
