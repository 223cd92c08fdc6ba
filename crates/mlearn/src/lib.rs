//! Learning substrate for the DynaMiner reproduction.
//!
//! Implements, from scratch, the ensemble random forest (ERF) classifier
//! the paper trains on its 37 web-conversation-graph features, plus the
//! evaluation machinery its tables require:
//!
//! * [`dataset`] — feature-matrix container with named columns,
//! * [`tree`] — CART decision trees (Gini impurity, random feature subsets),
//! * [`forest`] — bootstrap ensembles combining trees by **averaging their
//!   probabilistic predictions** (the paper stresses this over majority
//!   voting; both are available so the choice can be ablated). One fit,
//!   [`RandomForest::fit`](forest::RandomForest::fit), and one scoring
//!   kernel, [`RandomForest::score`](forest::RandomForest::score), which
//!   allocates nothing,
//! * [`metrics`] — confusion counts, TPR/FPR/F-score and ROC curves,
//! * [`crossval`] — stratified k-fold cross-validation,
//! * [`rank`] — gain-ratio feature ranking with per-fold rank averaging
//!   (the paper's Table IV methodology),
//! * [`slot`] — atomic model slot for zero-downtime hot-reload, with a
//!   monotone version so every decision is attributable to one model
//!   generation.
//!
//! Forest training and cross-validation run on the workspace's worker
//! pool, [`telemetry::pool`], with bit-identical results at any thread
//! count.
//!
//! # Example
//!
//! ```
//! use mlearn::dataset::Dataset;
//! use mlearn::forest::{ForestConfig, RandomForest};
//!
//! let mut data = Dataset::new(vec!["x".into()], 2);
//! for i in 0..20 {
//!     let v = i as f64;
//!     data.push(vec![v], usize::from(v >= 10.0));
//! }
//! // Seed 42, all cores, no per-tree timing.
//! let forest = RandomForest::fit(&data, &ForestConfig::default(), 42, 0, None);
//! assert_eq!(forest.predict(&[2.0]), 0);
//! assert!(forest.score(&[15.0], 1) > 0.5);
//! ```

pub mod crossval;
pub mod dataset;
pub mod forest;
pub mod metrics;
pub mod rank;
pub mod slot;
pub mod tree;
