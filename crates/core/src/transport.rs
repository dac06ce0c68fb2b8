//! Transport abstraction between metadata clients and registry instances.
//!
//! The strategy layer produces *plans*; a transport executes individual
//! RPCs. Four transports exist in the project, one per way of running the
//! registry plus a unit-test fake:
//!
//! * `geometa_net::TcpClientTransport` — framed TCP sockets (one
//!   pipelined, reconnecting connection per target): the shipped
//!   deployment.
//! * [`InlineTransport`](crate::runtime::InlineTransport) — a full
//!   [`ServiceCore`](crate::runtime::ServiceCore) (WAL, membership, batch
//!   path) served on the caller's thread: the socket-less deployment.
//! * `geometa_experiments::simbind` — the discrete-event simulation
//!   binding.
//! * [`InProcessTransport`] (here) — the unit-test fake: bare registry
//!   instances behind direct function calls.
//!
//! All four apply a request through
//! [`RegistryInstance::serve`](crate::registry::RegistryInstance::serve).

use crate::protocol::{RegistryRequest, RegistryResponse};
use crate::registry::RegistryInstance;
use crate::MetaError;
use geometa_cache::FxHashMap;
use geometa_sim::topology::SiteId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Synchronous request/response transport to registry instances.
pub trait RegistryTransport: Send + Sync {
    /// Blocking RPC to the registry instance at `target`.
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse;

    /// Fire-and-forget send (the lazy propagation path).
    ///
    /// **Contract:** `cast` must not block on the target's flight latency
    /// or service time — a slow or unreachable target cannot be allowed to
    /// stall the caller's lazy path. There is deliberately *no* default
    /// implementation: an earlier default ("blocking `call`, drop the
    /// response") silently violated this for any transport with real
    /// latency, so every transport now states its delivery mechanism
    /// explicitly (in-process and inline: serve on the caller's thread —
    /// zero latency; net: framed onto the target's call connection,
    /// leaving with that connection's next nonblocking write).
    fn cast(&self, target: SiteId, req: RegistryRequest);

    /// Monotonic logical clock in microseconds (stamped onto writes).
    fn now_micros(&self) -> u64;

    /// Sites reachable through this transport.
    fn sites(&self) -> Vec<SiteId>;

    /// Fetch the cluster's current membership `(epoch, members)`, for
    /// clients retiring a stale placement plan after a
    /// [`MetaError::WrongEpoch`] rejection. Transports that have no
    /// membership epochs (in-process, inline — their controller is
    /// shared with the server, so plans are never stale) return `None`.
    fn refresh_membership(&self) -> Option<(u64, Vec<SiteId>)> {
        None
    }
}

/// The unit-test fake: bare registry instances in the same process, called
/// directly.
///
/// It gives tests exactly what a
/// [`ServiceRuntime`](crate::runtime::ServiceRuntime) cannot: registries with **no sync agent** (a test can assert a
/// replicated read misses before anything synced it), a controller the
/// caller supplies, and a strictly increasing counter clock, so every
/// write gets a distinct, reproducible timestamp. It has no WAL, no
/// membership and no batch path; `Status`/`Reconfigure` answer
/// `Unavailable`. `tests/net_cluster.rs` uses it as the reference the TCP
/// cluster's final contents are compared against. Anything that wants the
/// real service without sockets starts a
/// [`ServiceRuntime`](crate::runtime::ServiceRuntime) over
/// [`InlineLayer`](crate::runtime::InlineLayer) instead.
pub struct InProcessTransport {
    registries: FxHashMap<SiteId, Arc<RegistryInstance>>,
    clock: AtomicU64,
}

impl InProcessTransport {
    /// Create registry instances for every given site.
    pub fn new(sites: &[SiteId], shards: usize) -> InProcessTransport {
        InProcessTransport {
            registries: sites
                .iter()
                .map(|&s| (s, Arc::new(RegistryInstance::new(s, shards))))
                .collect(),
            clock: AtomicU64::new(1),
        }
    }

    /// Direct handle to a site's registry instance.
    pub fn registry(&self, site: SiteId) -> Option<&Arc<RegistryInstance>> {
        self.registries.get(&site)
    }
}

impl RegistryTransport for InProcessTransport {
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        let now = self.now_micros();
        match self.registries.get(&target) {
            Some(r) => r.serve(req, now),
            None => RegistryResponse::Error {
                error: MetaError::Unavailable,
            },
        }
    }

    /// Zero-latency fire-and-forget: serve inline, drop the response. With
    /// no network in the way there is nothing to defer — the registry op
    /// itself is the only cost, so the caller cannot be stalled by flight
    /// latency.
    fn cast(&self, target: SiteId, req: RegistryRequest) {
        if let Some(r) = self.registries.get(&target) {
            let _ = r.serve(req, self.now_micros());
        }
    }

    fn now_micros(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn sites(&self) -> Vec<SiteId> {
        let mut s: Vec<SiteId> = self.registries.keys().copied().collect();
        s.sort();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{FileLocation, RegistryEntry};

    fn transport() -> InProcessTransport {
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        InProcessTransport::new(&sites, 8)
    }

    fn entry(name: &str) -> RegistryEntry {
        RegistryEntry::new(
            name,
            10,
            FileLocation {
                site: SiteId(0),
                node: 0,
            },
            0,
        )
    }

    #[test]
    fn put_and_get_through_transport() {
        let t = transport();
        let resp = t.call(SiteId(1), RegistryRequest::Put { entry: entry("f") });
        resp.into_ack().unwrap();
        let found = t
            .call(SiteId(1), RegistryRequest::Get { key: "f".into() })
            .into_entry()
            .unwrap();
        assert_eq!(found.name, "f");
        // Other sites don't have it — partitioned by construction.
        let miss = t.call(SiteId(2), RegistryRequest::Get { key: "f".into() });
        assert_eq!(miss.into_entry(), Err(MetaError::NotFound));
    }

    #[test]
    fn unknown_site_is_unavailable() {
        let t = transport();
        let resp = t.call(SiteId(9), RegistryRequest::Get { key: "f".into() });
        assert_eq!(resp.into_entry(), Err(MetaError::Unavailable));
    }

    #[test]
    fn delta_pull_round_trip() {
        let t = transport();
        t.call(SiteId(0), RegistryRequest::Put { entry: entry("a") })
            .into_ack()
            .unwrap();
        t.call(SiteId(0), RegistryRequest::Put { entry: entry("b") })
            .into_ack()
            .unwrap();
        match t.call(SiteId(0), RegistryRequest::DeltaPull { since: 0 }) {
            RegistryResponse::Delta { entries } => assert_eq!(entries.len(), 2),
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn absorb_merges_remotely() {
        let t = transport();
        t.call(
            SiteId(3),
            RegistryRequest::Absorb {
                entries: vec![entry("f")],
            },
        )
        .into_ack()
        .unwrap();
        let found = t
            .call(SiteId(3), RegistryRequest::Get { key: "f".into() })
            .into_entry()
            .unwrap();
        assert_eq!(found.name, "f");
    }

    #[test]
    fn ops_requests_against_a_bare_instance_are_unavailable() {
        use crate::protocol::ReconfigureOp;
        let t = transport();
        let unavailable = RegistryResponse::Error {
            error: MetaError::Unavailable,
        };
        assert_eq!(t.call(SiteId(0), RegistryRequest::Status), unavailable);
        let join = RegistryRequest::Reconfigure {
            op: ReconfigureOp::Join,
            site: SiteId(1),
        };
        assert_eq!(t.call(SiteId(0), join), unavailable);
    }

    #[test]
    fn clock_is_monotone() {
        let t = transport();
        let a = t.now_micros();
        let b = t.now_micros();
        assert!(b > a);
    }

    #[test]
    fn remove_via_transport() {
        let t = transport();
        t.call(SiteId(0), RegistryRequest::Put { entry: entry("f") })
            .into_ack()
            .unwrap();
        t.call(SiteId(0), RegistryRequest::Remove { key: "f".into() })
            .into_ack()
            .unwrap();
        let miss = t.call(SiteId(0), RegistryRequest::Get { key: "f".into() });
        assert_eq!(miss.into_entry(), Err(MetaError::NotFound));
    }
}
