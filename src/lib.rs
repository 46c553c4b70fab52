//! # coordination — coordinated botnet detection in social networks
//!
//! Facade crate for the workspace reproducing Piercey's *Coordinated Botnet
//! Detection in Social Networks via Clustering Analysis* (2023). It re-exports:
//!
//! * [`ygm`] — YGM-style SPMD runtime with a packed, spilling shuffle (substrate);
//! * [`graph`] — the shared graph-representation layer: CSR storage with a
//!   sharded parallel builder, typed ids, and borrowed threshold/subset views
//!   that every stage exchanges zero-copy;
//! * [`tripoll`] — TriPoll-style triangle surveying with metadata (substrate);
//! * [`core`] — the paper's three-step pipeline: bipartite temporal multigraph,
//!   windowed projection to a common interaction graph, high-weight triangle
//!   query, hypergraph triplet validation;
//! * [`redditgen`] — synthetic Reddit workloads with injected ground-truth
//!   botnets (the offline stand-in for pushshift archives);
//! * [`analysis`] — hexbin histograms, correlations, component and
//!   detection-quality reports;
//! * [`stream`] — online detection: incremental CI-graph projection and
//!   triangle tracking over a live event stream, with mid-stream alerts.
//!
//! See `examples/quickstart.rs` for an end-to-end run and `DESIGN.md` for the
//! experiment index.

pub use analysis;
pub use coordination_core as core;
pub use coordination_graph as graph;
pub use redditgen;
pub use stream;
pub use tripoll;
pub use ygm;
