//! Seeded load generation over any [`RegistryTransport`], in two modes.
//!
//! **Closed loop** (the default): one OS thread per node stream replays
//! its operations back-to-back — the next op issues only when the
//! previous completed — so offered load adapts to service capacity
//! instead of overrunning it. Latency is measured from actual issue to
//! completion.
//!
//! **Open loop** ([`LoadMode::Open`]): operations arrive on a fixed
//! schedule regardless of how the service is keeping up. Each node
//! stream issues op `i` at `start + phase + i·Δ` where `Δ =
//! nodes/rate`, and latency is measured from the op's *scheduled* issue
//! time, not from when the thread actually got around to sending it.
//! That makes the percentiles coordinated-omission-safe: when the
//! service stalls, the ops that queued up behind the stall are charged
//! their full waiting time instead of silently not being issued — the
//! classic closed-loop blind spot.
//!
//! Resolves of not-yet-published files retry with backoff, exactly like
//! the workflow engine's input polling. Every completed operation's
//! latency (including its retries — that is the latency the workflow
//! would observe) lands in a per-thread buffer; buffers merge into exact
//! percentiles at the end.

use geometa_core::transport::RegistryTransport;
use geometa_core::StrategyClient;
use geometa_workflow::apps::ops::{MetaOp, OpStream};
use std::time::{Duration, Instant};

/// How load is offered to the service.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadMode {
    /// Next op only after the previous completed; offered load tracks
    /// service capacity.
    Closed,
    /// Fixed total arrival rate in ops/s, spread evenly across node
    /// streams with per-stream phase offsets. Latency is measured from
    /// each op's scheduled issue time (coordinated-omission-safe); a
    /// thread that falls behind issues immediately without re-anchoring
    /// its schedule.
    Open {
        /// Total arrival rate across all node streams, ops/s.
        rate: f64,
    },
}

impl LoadMode {
    /// Stable label for reports ("closed" / "open").
    pub fn label(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open { .. } => "open",
        }
    }

    /// The configured arrival rate, if open-loop.
    pub(crate) fn target_rate(&self) -> Option<f64> {
        match self {
            LoadMode::Closed => None,
            LoadMode::Open { rate } => Some(*rate),
        }
    }
}

/// Executor tuning.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Attempts for a `Resolve` that keeps missing before the run fails.
    pub max_resolve_attempts: usize,
    /// Backoff between resolve attempts.
    pub resolve_backoff: Duration,
    /// Closed loop or fixed-rate open loop.
    pub mode: LoadMode,
    /// Prefix applied to every metadata name the run touches (externals,
    /// publishes, resolves). Replaying the same stream against the same
    /// cluster twice — `geometa-load --mode both` — with one namespace
    /// means the second run resolves entries the *first* run already
    /// published and propagated: every resolve hits instantly,
    /// `resolve_retries` reads 0, and the propagation race the retry
    /// counter exists to measure is gone. Give each run its own
    /// namespace so its resolves race its own publishes.
    pub key_namespace: String,
    /// Untimed operations each node stream issues before the measured
    /// clock starts. Warmup resolves (of keys that cannot exist) dial
    /// the TCP connections, fault in per-connection scratch buffers, and
    /// fill the client's call-slot slab — so the first *measured* op
    /// does not pay a TCP connect. Without this, closed-loop `max_us`
    /// reports one ~hundred-ms connect instead of a service latency.
    /// 0 disables the phase.
    pub warmup_ops: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            max_resolve_attempts: 10_000,
            resolve_backoff: Duration::from_micros(200),
            mode: LoadMode::Closed,
            key_namespace: String::new(),
            warmup_ops: 0,
        }
    }
}

/// What one load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The mode the run used (open-loop latencies are from scheduled
    /// issue time and are not comparable to closed-loop ones).
    pub mode: LoadMode,
    /// Completed metadata operations.
    pub total_ops: u64,
    /// Resolve retries (reads that raced propagation).
    pub retries: u64,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Operations per second (closed-loop sustained throughput).
    pub throughput: f64,
    /// Latency percentiles over every completed op, microseconds.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Slowest op.
    pub max_us: f64,
}

impl LoadReport {
    fn from_latencies(
        mode: LoadMode,
        mut lat_ns: Vec<u64>,
        retries: u64,
        wall: Duration,
    ) -> LoadReport {
        lat_ns.sort_unstable();
        let pct = |p: f64| -> f64 {
            if lat_ns.is_empty() {
                return 0.0;
            }
            let idx = ((lat_ns.len() as f64 * p).ceil() as usize).clamp(1, lat_ns.len()) - 1;
            lat_ns[idx] as f64 / 1_000.0
        };
        let total_ops = lat_ns.len() as u64;
        LoadReport {
            mode,
            total_ops,
            retries,
            wall,
            throughput: total_ops as f64 / wall.as_secs_f64().max(1e-9),
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
            max_us: lat_ns.last().map_or(0.0, |&n| n as f64 / 1_000.0),
        }
    }
}

/// Replay `stream` under `opts.mode`, one thread per node, building each
/// node's client with `make_client`. Returns the merged latency report,
/// or the first per-node error.
pub fn run_stream<T, F>(
    make_client: F,
    stream: &OpStream,
    opts: &LoadOptions,
) -> Result<LoadReport, String>
where
    T: RegistryTransport,
    F: Fn(geometa_sim::topology::SiteId, u32) -> StrategyClient<T> + Sync,
{
    let key = |name: &str| -> String { format!("{}{name}", opts.key_namespace) };

    // Pre-publish external inputs (they "exist" before the run).
    if let Some(first) = stream.nodes.first() {
        let bootstrap = make_client(first.site, first.node);
        for (name, size) in &stream.externals {
            bootstrap
                .publish(&key(name), *size)
                .map_err(|e| format!("pre-publish {name}: {e}"))?;
        }
    }

    // Warmup: untimed resolves of keys that cannot exist, one thread per
    // node stream, BEFORE the measured clock starts. The misses traverse
    // the full wire path (dialing every connection the strategy will
    // probe) without perturbing registry state, so the measured run
    // starts against warm connections and warm scratch buffers.
    if opts.warmup_ops > 0 {
        std::thread::scope(|scope| {
            for node in stream.nodes.iter() {
                let make_client = &make_client;
                let key = &key;
                scope.spawn(move || {
                    let client = make_client(node.site, node.node);
                    for j in 0..opts.warmup_ops {
                        let name = key(&format!("__warmup__/{}/{}/{j}", node.site.0, node.node));
                        let _ = client.resolve(&name);
                    }
                });
            }
        });
    }

    // Open loop: each of the N node streams issues every Δ = N/rate
    // seconds, phase-shifted so arrivals interleave evenly instead of
    // bursting N-wide every interval.
    let n_nodes = stream.nodes.len().max(1);
    let interval = opts
        .mode
        .target_rate()
        .map(|rate| Duration::from_secs_f64(n_nodes as f64 / rate.max(f64::MIN_POSITIVE)));

    let start = Instant::now();
    let results: Vec<Result<(Vec<u64>, u64), String>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(stream.nodes.len());
        for (node_idx, node) in stream.nodes.iter().enumerate() {
            let make_client = &make_client;
            let key = &key;
            handles.push(scope.spawn(move || {
                let client = make_client(node.site, node.node);
                let phase = interval.map(|d| d.mul_f64(node_idx as f64 / n_nodes as f64));
                let mut lat_ns = Vec::with_capacity(node.ops.len());
                let mut retries = 0u64;
                for (i, op) in node.ops.iter().enumerate() {
                    // Closed loop: the clock starts when the op actually
                    // issues. Open loop: it starts at the op's scheduled
                    // arrival — if we are behind schedule we issue
                    // immediately and the queueing delay counts.
                    let t0 = match (interval, phase) {
                        (Some(step), Some(phase)) => {
                            let due = start + phase + step.mul_f64(i as f64);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            due
                        }
                        _ => Instant::now(),
                    };
                    match op {
                        MetaOp::Publish { name, size } => {
                            client
                                .publish(&key(name), *size)
                                .map_err(|e| format!("publish {name}: {e}"))?;
                        }
                        MetaOp::Resolve { name } => {
                            let name = key(name);
                            client
                                .resolve_with_retry(&name, opts.max_resolve_attempts, |_| {
                                    retries += 1;
                                    std::thread::sleep(opts.resolve_backoff);
                                })
                                .map_err(|e| format!("resolve {name}: {e}"))?;
                        }
                    }
                    lat_ns.push(t0.elapsed().as_nanos() as u64);
                }
                Ok((lat_ns, retries))
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("node thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();

    let mut lat_ns = Vec::new();
    let mut retries = 0;
    for r in results {
        let (l, n) = r?;
        lat_ns.extend(l);
        retries += n;
    }
    Ok(LoadReport::from_latencies(opts.mode, lat_ns, retries, wall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometa_core::controller::ArchitectureController;
    use geometa_core::strategy::StrategyKind;
    use geometa_core::transport::InProcessTransport;
    use geometa_core::ClientConfig;
    use geometa_sim::topology::SiteId;
    use geometa_workflow::apps::ops::synthetic_streams;
    use geometa_workflow::apps::synthetic::SyntheticSpec;
    use std::sync::Arc;

    #[test]
    fn closed_loop_synthetic_over_in_process_transport() {
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let transport = Arc::new(InProcessTransport::new(&sites, 8));
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::DhtLocalReplica,
            sites.clone(),
        ));
        let spec = SyntheticSpec {
            nodes: 8,
            ops_per_node: 50,
            compute_per_op: geometa_sim::time::SimDuration::ZERO,
            seed: 7,
        };
        let stream = synthetic_streams(&spec, &sites);
        let report = run_stream(
            |site, node| {
                StrategyClient::new(
                    Arc::clone(&transport),
                    Arc::clone(&controller),
                    ClientConfig { site, node },
                )
            },
            &stream,
            &LoadOptions::default(),
        )
        .unwrap();
        assert_eq!(report.total_ops, spec.total_ops() as u64);
        assert!(report.throughput > 0.0);
        assert!(report.p50_us <= report.p99_us);
        assert!(report.p99_us <= report.max_us);
    }

    /// Open loop paces arrivals by the schedule, not by completions: an
    /// in-process transport finishes each op in microseconds, yet the
    /// run's wall clock is pinned to the arrival schedule's span.
    #[test]
    fn open_loop_paces_by_the_arrival_schedule() {
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let transport = Arc::new(InProcessTransport::new(&sites, 8));
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::Centralized,
            sites.clone(),
        ));
        let spec = SyntheticSpec {
            nodes: 4,
            ops_per_node: 20,
            compute_per_op: geometa_sim::time::SimDuration::ZERO,
            seed: 11,
        };
        let stream = synthetic_streams(&spec, &sites);
        // 2 kops/s over 4 nodes: Δ = 2 ms per node, last op due ≈ 38 ms
        // after start — far above in-process service time.
        let report = run_stream(
            |site, node| {
                StrategyClient::new(
                    Arc::clone(&transport),
                    Arc::clone(&controller),
                    ClientConfig { site, node },
                )
            },
            &stream,
            &LoadOptions {
                mode: LoadMode::Open { rate: 2_000.0 },
                ..LoadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.total_ops, spec.total_ops() as u64);
        assert_eq!(report.mode.label(), "open");
        assert!(
            report.wall >= Duration::from_millis(30),
            "open-loop run finished in {:?} — it paced by completions, not the schedule",
            report.wall
        );
        // An idle service keeps up: typical latency stays well under the
        // arrival interval (nothing was charged queueing delay). Judged
        // at the median — charging schedule lag would shift *every*
        // sample by ~Δ, while a scheduler hiccup on a loaded test runner
        // only pollutes the tail.
        assert!(report.p50_us < 2_000.0, "p50 {} us", report.p50_us);
    }

    /// Namespaced runs do not see each other's keys: the `--mode both`
    /// regression where run 2 resolved run 1's already-propagated
    /// entries (and so always reported `resolve_retries: 0`).
    #[test]
    fn key_namespace_isolates_repeated_runs() {
        let sites: Vec<SiteId> = (0..2).map(SiteId).collect();
        let transport = Arc::new(InProcessTransport::new(&sites, 8));
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::DhtNonReplicated,
            sites.clone(),
        ));
        let make_client = |site, node| {
            StrategyClient::new(
                Arc::clone(&transport),
                Arc::clone(&controller),
                ClientConfig { site, node },
            )
        };
        let spec = SyntheticSpec {
            nodes: 2,
            ops_per_node: 10,
            compute_per_op: geometa_sim::time::SimDuration::ZERO,
            seed: 3,
        };
        let stream = synthetic_streams(&spec, &sites);
        let opts = LoadOptions {
            key_namespace: "run1#".into(),
            ..LoadOptions::default()
        };
        run_stream(make_client, &stream, &opts).unwrap();

        // Every name the run touched lives under its namespace — the
        // raw name (what a second, differently-namespaced run would
        // look up) does not exist.
        let probe = make_client(sites[0], 0);
        let published: Vec<&String> = stream
            .nodes
            .iter()
            .flat_map(|n| &n.ops)
            .filter_map(|op| match op {
                MetaOp::Publish { name, .. } => Some(name),
                MetaOp::Resolve { .. } => None,
            })
            .collect();
        assert!(!published.is_empty(), "stream has publishes to check");
        for name in published {
            assert!(probe.resolve(&format!("run1#{name}")).is_ok());
            assert!(matches!(
                probe.resolve(name),
                Err(geometa_core::MetaError::NotFound)
            ));
        }
    }

    /// Warmup ops run before the clock and are invisible to the report:
    /// same op count, and the absent warmup keys leave no registry state.
    #[test]
    fn warmup_ops_are_untimed_and_stateless() {
        let sites: Vec<SiteId> = (0..2).map(SiteId).collect();
        let transport = Arc::new(InProcessTransport::new(&sites, 8));
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::DhtLocalReplica,
            sites.clone(),
        ));
        let make_client = |site, node| {
            StrategyClient::new(
                Arc::clone(&transport),
                Arc::clone(&controller),
                ClientConfig { site, node },
            )
        };
        let spec = SyntheticSpec {
            nodes: 2,
            ops_per_node: 10,
            compute_per_op: geometa_sim::time::SimDuration::ZERO,
            seed: 5,
        };
        let stream = synthetic_streams(&spec, &sites);
        let report = run_stream(
            make_client,
            &stream,
            &LoadOptions {
                warmup_ops: 8,
                ..LoadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.total_ops, spec.total_ops() as u64);

        let probe = make_client(sites[0], 0);
        assert!(matches!(
            probe.resolve("__warmup__/0/0/0"),
            Err(geometa_core::MetaError::NotFound)
        ));
    }

    /// Each resolve that misses and is retried counts once: a registry
    /// that answers the first three gets `NotFound` costs exactly three
    /// retries on a one-node stream.
    #[test]
    fn retried_resolves_are_counted() {
        use geometa_core::protocol::{RegistryRequest, RegistryResponse};
        use geometa_core::transport::RegistryTransport;
        use geometa_workflow::apps::ops::{MetaOp, NodeStream, OpStream};
        use std::sync::atomic::{AtomicU64, Ordering};

        struct LateRegistry {
            inner: InProcessTransport,
            misses: AtomicU64,
        }
        impl RegistryTransport for LateRegistry {
            fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
                let get = matches!(req, RegistryRequest::Get { .. });
                let late = |n: u64| n.checked_sub(1);
                if get
                    && self
                        .misses
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, late)
                        .is_ok()
                {
                    return RegistryResponse::Error {
                        error: geometa_core::MetaError::NotFound,
                    };
                }
                self.inner.call(target, req)
            }
            fn cast(&self, target: SiteId, req: RegistryRequest) {
                self.inner.cast(target, req)
            }
            fn now_micros(&self) -> u64 {
                self.inner.now_micros()
            }
            fn sites(&self) -> Vec<SiteId> {
                self.inner.sites()
            }
        }

        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let transport = Arc::new(LateRegistry {
            inner: InProcessTransport::new(&sites, 8),
            misses: AtomicU64::new(3),
        });
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::Centralized,
            sites,
        ));
        let resolve = |name: &str| MetaOp::Resolve { name: name.into() };
        let stream = OpStream {
            externals: vec![("a".into(), 1), ("b".into(), 1)],
            nodes: vec![NodeStream {
                site: SiteId(1),
                node: 0,
                ops: vec![resolve("a"), resolve("b"), resolve("a")],
            }],
        };
        let report = run_stream(
            |site, node| {
                StrategyClient::new(
                    Arc::clone(&transport),
                    Arc::clone(&controller),
                    ClientConfig { site, node },
                )
            },
            &stream,
            &LoadOptions::default(),
        )
        .unwrap();
        assert_eq!(report.total_ops, 3);
        assert_eq!(report.retries, 3);
    }

    #[test]
    fn percentiles_are_exact_on_known_data() {
        let lat: Vec<u64> = (1..=100).map(|i| i * 1_000).collect(); // 1..100 us
        let r = LoadReport::from_latencies(LoadMode::Closed, lat, 0, Duration::from_secs(1));
        assert_eq!(r.p50_us, 50.0);
        assert_eq!(r.p90_us, 90.0);
        assert_eq!(r.p99_us, 99.0);
        assert_eq!(r.max_us, 100.0);
        assert_eq!(r.total_ops, 100);
    }
}
