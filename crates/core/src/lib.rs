//! # geometa-core — multi-site metadata management strategies
//!
//! The primary contribution of the reproduced paper (Pineda-Morales,
//! Costan, Antoniu: *Towards Multi-site Metadata Management for
//! Geographically Distributed Cloud Workflows*, CLUSTER 2015): a metadata
//! registry middleware for workflows that span several cloud datacenters,
//! with four interchangeable management strategies:
//!
//! | Strategy | Write | Read |
//! |---|---|---|
//! | [`strategy::Centralized`] | single home registry | home registry |
//! | [`strategy::Replicated`] | local registry, propagated by a [`sync_agent::SyncAgentState`]-driven agent | local registry |
//! | [`strategy::DhtNonReplicated`] | hash-owner registry | hash-owner registry |
//! | [`strategy::DhtLocalReplica`] | local registry + lazy copy to hash owner | local first, then hash owner |
//!
//! Supporting machinery:
//!
//! * [`entry::RegistryEntry`] — minimal per-file metadata (no POSIX
//!   permissions; paper §III-B) with a compact binary codec;
//! * [`hash`] — uniform hashing, consistent-hash ring and rendezvous
//!   hashing for site placement;
//! * [`registry::RegistryInstance`] — one site's registry service on top of
//!   the high-availability cache tier from `geometa-cache`;
//! * [`lazy::LazyBatcher`] — batched, asynchronous ("lazy") metadata
//!   propagation giving eventual consistency (paper §III-D);
//! * [`sync_agent`] — the replicated strategy's synchronization agent;
//! * [`consistency`] — last-writer-wins merging and inconsistency-window
//!   measurement;
//! * [`controller::ArchitectureController`] — runtime strategy switching
//!   (paper §V, "plug-and-play");
//! * [`advisor`] — the §VII "which strategy fits what workload" analysis
//!   as a programmatic recommendation;
//! * [`rebalance`] — elastic metadata migration when sites join/leave
//!   (the §VIII "server volatility" problem);
//! * [`op`] — the paper's publish and resolve semantics as pure state
//!   machines, driven by the service client and the simulator alike;
//! * [`client`] + [`transport`] — strategy-driven client logic over an
//!   abstract transport;
//! * [`protocol`] — the RPC types and their length-prefixed binary wire
//!   codec (the same messages flow through inline calls, the DES network
//!   model, and framed TCP);
//! * [`wal`] — per-site write-ahead logging (CRC'd length-prefixed
//!   records over the wire codec, group commit, snapshot + truncation)
//!   and torn-tail-tolerant crash recovery;
//! * [`runtime`] — the transport-generic service runtime: registry
//!   ownership, dispatch, sync-agent driving, failure injection and
//!   graceful shutdown, parameterized over a
//!   [`runtime::ConnectionLayer`]. [`runtime::InlineLayer`] is the
//!   socket-less layer (requests served on the caller's thread); the
//!   framed-TCP layer lives in the `geometa-net` crate.

pub mod advisor;
pub mod client;
pub mod consistency;
pub mod controller;
pub mod entry;
pub mod hash;
pub mod lazy;
pub mod metrics;
pub mod op;
mod plan;
pub mod protocol;
pub mod rebalance;
pub mod registry;
pub mod runtime;
pub mod strategy;
pub mod sync_agent;
pub mod transport;
pub mod wal;

pub use client::{ClientConfig, StrategyClient};
pub use controller::ArchitectureController;
pub use entry::{FileLocation, RegistryEntry};
// Re-exported because the RPC protocol (`protocol::RegistryRequest`) and
// the key-threaded strategy APIs take it.
pub use geometa_cache::Key;
// Re-exported so crates above core get the unseeded maps without a
// dependency edge to the cache crate.
pub use geometa_cache::{FxHashMap, FxHashSet};
pub use plan::{ReadPlan, WritePlan};
pub use registry::RegistryInstance;
pub use strategy::{
    Centralized, DhtLocalReplica, DhtNonReplicated, MetadataStrategy, Replicated, StrategyKind,
};

/// Errors surfaced by the metadata middleware.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaError {
    /// The entry does not exist in any probed registry instance.
    NotFound,
    /// A registry instance could not be reached / is failed.
    Unavailable,
    /// Optimistic concurrency conflict that exhausted its retry budget.
    Contention,
    /// The request was routed with a placement plan from a retired
    /// membership epoch. Carries the server's current epoch so the client
    /// knows it must refresh its member list before retrying.
    WrongEpoch {
        /// The server's current membership epoch.
        epoch: u64,
    },
    /// Malformed wire payload.
    Codec(String),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::NotFound => write!(f, "metadata entry not found"),
            MetaError::Unavailable => write!(f, "registry instance unavailable"),
            MetaError::Contention => write!(f, "optimistic concurrency retry budget exhausted"),
            MetaError::WrongEpoch { epoch } => {
                write!(f, "stale membership plan (server is at epoch {epoch})")
            }
            MetaError::Codec(m) => write!(f, "codec error: {m}"),
        }
    }
}

impl std::error::Error for MetaError {}
