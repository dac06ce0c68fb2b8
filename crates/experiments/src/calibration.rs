//! Calibration of the simulated testbed.
//!
//! The paper ran on four Azure datacenters with Azure Managed Cache
//! registries and .NET clients. We cannot measure that testbed, so the
//! simulator's constants are fitted to the *rates the paper itself
//! reports*:
//!
//! * **Latency hierarchy** — local ≈ 2 ms RTT, same-region ≈ 25 ms,
//!   geo-distant ≈ 100-120 ms: reproduces Fig. 1's orders-of-magnitude gap
//!   and the "up to 50x" local-vs-remote claim (§IV-D). Lives in
//!   [`geometa_sim::topology::Topology::azure_4dc`].
//! * **Per-operation client overhead ≈ 50 ms** — the paper's own numbers
//!   imply a large client-side cost: Fig. 5 shows 32 nodes sustaining only
//!   ≈ 4.5 ops/s per node under the centralized strategy (≈ 220 ms/op,
//!   far above any WAN RTT) and ≈ 9 ops/s under the decentralized ones.
//!   With a 50 ms client cost the centralized/decentralized per-op ratio
//!   (50+150 ms remote vs ≈ 55 ms local) reproduces the paper's ≈ 2x
//!   execution-time gap at 32 nodes. Fig. 1, which "isolates the metadata
//!   access times", is run with this overhead set to zero.
//! * **Registry service time ≈ 1.2 ms (exponential)** with a **congestion
//!   factor**: effective service inflates with the instance's backlog,
//!   reproducing the "near-exponential" slowdown of the overloaded
//!   centralized registry (§VI-B) while letting per-site instances scale.
//! * **Batched absorb weight 0.25** — propagated entries apply via batch
//!   merge, much cheaper than a full client round-trip (§III-D's rationale
//!   for lazy updates).
//! * **Sync-agent per-entry cost 2 ms** — the single agent processes
//!   deltas serially; beyond ~32 nodes the global write rate approaches
//!   its capacity and the replicated strategy degrades, exactly the
//!   bottleneck the paper observes in Fig. 7.

use geometa_sim::time::SimDuration;

/// All tunable constants of the simulated testbed.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Fixed client-side processing per metadata operation.
    pub client_overhead: SimDuration,
    /// Mean registry service time (exponentially distributed).
    pub registry_service: SimDuration,
    /// Backlog-proportional service inflation: effective factor =
    /// `1 + alpha * min(outstanding_requests, congestion_cap)`.
    pub congestion_alpha: f64,
    /// Cap on the outstanding-request count used for congestion inflation
    /// (a real instance has a bounded connection pool; without the cap a
    /// large absorbed batch could start a service-time death spiral).
    pub congestion_cap: f64,
    /// Service-time factor per entry of an absorbed batch.
    pub absorb_weight: f64,
    /// Sync agent processing cost per propagated entry.
    pub agent_per_entry: SimDuration,
    /// Pause between sync-agent cycles.
    pub agent_interval: SimDuration,
    /// Reader backoff before retrying a missed (not-yet-propagated) key.
    pub read_retry_backoff: SimDuration,
    /// Retry budget before a read counts as a permanent miss.
    pub max_read_retries: usize,
    /// Cache shards per registry instance.
    pub shards: usize,
    /// In-flight request timeout before a client re-sends. Only armed in
    /// chaos runs (a fault schedule is installed): healthy runs never
    /// lose a response, and not arming the timer keeps their event
    /// streams byte-identical to pre-fault-injection builds.
    pub op_timeout: SimDuration,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            client_overhead: SimDuration::from_millis(50),
            registry_service: SimDuration::from_micros(1_200),
            congestion_alpha: 0.06,
            congestion_cap: 40.0,
            absorb_weight: 0.25,
            agent_per_entry: SimDuration::from_millis(2),
            agent_interval: SimDuration::from_millis(100),
            read_retry_backoff: SimDuration::from_millis(250),
            max_read_retries: 100,
            shards: 16,
            op_timeout: SimDuration::from_secs(10),
        }
    }
}

impl Calibration {
    /// The Fig. 1 variant: no client overhead ("isolating the metadata
    /// access times"), no congestion (single sequential client).
    pub(crate) fn isolated_ops() -> Calibration {
        Calibration {
            client_overhead: SimDuration::ZERO,
            ..Calibration::default()
        }
    }

    /// A fast variant for unit tests: small overheads so tests simulate
    /// quickly while preserving the latency hierarchy.
    pub fn test_fast() -> Calibration {
        Calibration {
            client_overhead: SimDuration::from_millis(5),
            registry_service: SimDuration::from_millis(1),
            agent_interval: SimDuration::from_millis(20),
            read_retry_backoff: SimDuration::from_millis(20),
            max_read_retries: 500,
            op_timeout: SimDuration::from_millis(500),
            ..Calibration::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_documented_values() {
        let c = Calibration::default();
        assert_eq!(c.client_overhead, SimDuration::from_millis(50));
        assert_eq!(c.registry_service, SimDuration::from_micros(1_200));
        assert!(c.congestion_alpha > 0.0);
        assert!(c.absorb_weight < 1.0);
    }

    #[test]
    fn isolated_ops_zeroes_client_overhead_only() {
        let c = Calibration::isolated_ops();
        assert_eq!(c.client_overhead, SimDuration::ZERO);
        assert_eq!(c.registry_service, Calibration::default().registry_service);
    }
}
