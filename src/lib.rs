//! # geometa — multi-site metadata management for cloud workflows
//!
//! Facade crate re-exporting the whole geometa stack. See the README for an
//! architecture overview and `DESIGN.md` for the paper-reproduction map.
//!
//! * [`sim`] — deterministic discrete-event simulation of multi-site clouds.
//! * [`cache`] — in-memory versioned cache tier (the Azure Managed Cache
//!   stand-in).
//! * [`core`] — the metadata registry middleware: the four strategies from
//!   the paper, hashing, lazy propagation, the transport-generic runtime.
//! * [`workflow`] — workflow DAGs, patterns, schedulers and the engine.
//! * [`net`] — the registry served over real TCP sockets (framed wire
//!   codec, pooling client, `geometa-server`/`geometa-load` binaries).
//! * [`experiments`] — harnesses reproducing every figure of the paper.

pub use geometa_cache as cache;
pub use geometa_core as core;
pub use geometa_experiments as experiments;
pub use geometa_net as net;
pub use geometa_sim as sim;
pub use geometa_workflow as workflow;
