//! The three live workloads: a real `ServiceRuntime` serving the seeded
//! stream of [`crate::gen`] to closed-loop callers.
//!
//! One *repetition* builds everything from nothing — data dir, cluster,
//! clients — preloads, waits until lazy propagation has settled, runs the
//! fixed operation stream, checks every output and tears down. Repetitions
//! never share state, so a run is a set of identical experiments and the
//! best of them estimates the program's speed (README, "The estimator").

use crate::gen::{Mix, Op, Step, Stream, Written, SITES};
use crate::os::ProcSample;
use crate::trace::{self, Span, Traced};
use geometa_core::controller::ArchitectureController;
use geometa_core::metrics::OpStatsSnapshot;
use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::runtime::{
    ConnectionLayer, RuntimeConfig, ServiceCore, ServiceRuntime, Spawner, WalConfig,
};
use geometa_core::strategy::StrategyKind;
use geometa_core::transport::RegistryTransport;
use geometa_core::wal::FsyncPolicy;
use geometa_core::{ClientConfig, MetaError, StrategyClient};
use geometa_net::{TcpClientTransport, TcpConfig, TcpLayer};
use geometa_sim::topology::SiteId;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How requests reach `ServiceCore`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// `TcpLayer` on loopback with one reactor per site.
    Tcp,
    /// [`InlineLayer`]: the caller's thread runs `ServiceCore::serve`.
    Inline,
}

/// Which write-ahead log a workload's sites keep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wal {
    /// None: `core_inline` times strategy, client, runtime, registry and
    /// cache alone. (With a log, the snapshot taken every 4 096 appends
    /// re-collects the whole registry — at this working set that is 70%
    /// of the run and would bury the layers the workload is for.)
    Off,
    /// `WalConfig::Memory`, the runtime's default.
    Memory,
    /// `WalConfig::File` in the run's data dir, `FsyncPolicy::Never`:
    /// every record is encoded, checksummed and written, snapshots are
    /// installed and the log truncated, restarts replay — but no append
    /// waits for the device, whose fsync time swings by a factor from
    /// minute to minute (README, "No device wait").
    File,
}

/// One live workload. Sizes are fixed so every repetition of every run
/// does the same work; see README for why each was chosen.
#[derive(Clone, Copy, Debug)]
pub struct LiveSpec {
    /// Workload name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Connection layer under test.
    pub wire: Wire,
    /// Write-ahead log behind every registry.
    pub wal: Wal,
    /// Keys published during set-up.
    pub preload: usize,
    /// Closed-loop caller threads.
    pub callers: usize,
    /// Measured operations per repetition, over all callers.
    pub ops: usize,
    /// Publish share of the measured operations.
    pub mix: Mix,
}

/// 4-site loopback TCP, in-memory WAL, half publishes.
pub const WIRE_MIXED: LiveSpec = LiveSpec {
    name: "wire_mixed",
    wire: Wire::Tcp,
    wal: Wal::Memory,
    preload: 16_000,
    callers: 2,
    ops: 40_000,
    mix: Mix::Half,
};

/// The same stream served inline over a working set far past L2.
pub const CORE_INLINE: LiveSpec = LiveSpec {
    name: "core_inline",
    wire: Wire::Inline,
    wal: Wal::Off,
    preload: 200_000,
    callers: 1,
    ops: 400_000,
    mix: Mix::Half,
};

/// `wire_mixed` write-heavy on a file-backed WAL, with a recovering
/// restart in set-up and a restart audit after the measured phase.
pub const WAL_PUBLISH: LiveSpec = LiveSpec {
    name: "wal_publish",
    wire: Wire::Tcp,
    wal: Wal::File,
    preload: 16_000,
    callers: 2,
    ops: 40_000,
    mix: Mix::ThreeQuarters,
};

/// Group-commit window of the `core.wal.append_file_us` probe (the server
/// binary's default).
pub const GROUP_COMMIT: Duration = Duration::from_millis(2);

/// The strategy every live workload runs: the paper's best performer.
const KIND: StrategyKind = StrategyKind::DhtLocalReplica;

impl LiveSpec {
    /// The runtime configuration of one repetition.
    pub fn runtime_config(&self, data_dir: &Path) -> RuntimeConfig {
        RuntimeConfig {
            kind: KIND,
            wal: match self.wal {
                Wal::Off => WalConfig::Disabled,
                Wal::Memory => WalConfig::Memory,
                Wal::File => WalConfig::File {
                    data_dir: data_dir.to_path_buf(),
                    fsync: FsyncPolicy::Never,
                },
            },
            ..RuntimeConfig::default()
        }
    }
}

/// A [`ConnectionLayer`] without a connection: its transport runs
/// `ServiceCore::serve` on the caller's thread for `call` and `cast`
/// alike. No sockets, no codec, no service threads — what remains is
/// strategy, client, runtime, registry and cache.
pub struct InlineLayer;

/// The client side of [`InlineLayer`].
pub struct InlineTransport {
    core: Arc<ServiceCore>,
}

impl RegistryTransport for InlineTransport {
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        self.core.serve(target, req)
    }

    fn cast(&self, target: SiteId, req: RegistryRequest) {
        let _ = self.core.serve(target, req);
    }

    fn now_micros(&self) -> u64 {
        self.core.now_micros()
    }

    fn sites(&self) -> Vec<SiteId> {
        self.core.topology().site_ids().collect()
    }
}

impl ConnectionLayer for InlineLayer {
    type Transport = InlineTransport;

    fn start(&mut self, _core: &Arc<ServiceCore>, _spawner: &mut Spawner) {}

    fn transport(&self, core: &Arc<ServiceCore>, _site: SiteId) -> Arc<InlineTransport> {
        Arc::new(InlineTransport {
            core: Arc::clone(core),
        })
    }

    fn unblock(&self) {}
}

/// Counters a transport keeps about work it refused; both must stay 0.
pub trait WireCounters {
    /// Casts dropped because the target's breaker was open.
    fn casts_shed(&self) -> u64;
    /// Calls failed without touching a socket.
    fn breaker_fast_fails(&self) -> u64;
}

impl WireCounters for TcpClientTransport {
    fn casts_shed(&self) -> u64 {
        TcpClientTransport::casts_shed(self)
    }
    fn breaker_fast_fails(&self) -> u64 {
        TcpClientTransport::breaker_fast_fails(self)
    }
}

impl WireCounters for InlineTransport {
    fn casts_shed(&self) -> u64 {
        0
    }
    fn breaker_fast_fails(&self) -> u64 {
        0
    }
}

/// What one repetition measured. Latency vectors are ascending.
#[derive(Default)]
pub struct Rep {
    /// Fresh state → ready to time, seconds.
    pub setup_s: f64,
    /// First operation issued → last operation returned, seconds.
    pub wall_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result, plus published
    /// keys a later audit could not find.
    pub failed: u64,
    /// Caller-observed publish latencies, ns.
    pub publish_ns: Vec<u64>,
    /// Caller-observed resolve latencies, ns.
    pub resolve_ns: Vec<u64>,
    /// `OpStats` summed over the four clients.
    pub client: OpStatsSnapshot,
    /// Operations that ended in `MetaError::Contention`.
    pub contention: u64,
    /// See [`WireCounters`].
    pub casts_shed: u64,
    /// See [`WireCounters`].
    pub breaker_fast_fails: u64,
    /// Process counters over the measured phase.
    pub os: ProcSample,
    /// Median publish-ack → readable-at-owner delay, µs (traced only).
    pub propagation_p50_us: f64,
    /// Spans of a traced repetition (empty otherwise).
    pub spans: Vec<Span>,
}

impl Rep {
    /// Completed operations per second of wall time.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.wall_s
    }
}

/// Where a run keeps its files and which CPU it is pinned to.
pub struct Env {
    /// Data dir of the file-backed WAL; wiped before each repetition.
    pub data_dir: PathBuf,
    /// The CPU the process is pinned to.
    pub cpu: usize,
}

/// Run one repetition of `spec` over `stream`.
pub fn run_rep(spec: &LiveSpec, stream: &Stream, env: &Env, traced: bool) -> Result<Rep, String> {
    match spec.wire {
        Wire::Tcp => rep_on(spec, stream, env, traced, &|| {
            TcpLayer::new(TcpConfig {
                reactors: 1,
                ..TcpConfig::default()
            })
        }),
        Wire::Inline => rep_on(spec, stream, env, traced, &|| InlineLayer),
    }
}

fn start<L: ConnectionLayer>(
    config: &RuntimeConfig,
    make_layer: &dyn Fn() -> L,
) -> Result<ServiceRuntime<L>, String> {
    ServiceRuntime::try_start(config.clone(), make_layer()).map_err(|e| format!("start: {e}"))
}

fn rep_on<L>(
    spec: &LiveSpec,
    stream: &Stream,
    env: &Env,
    traced: bool,
    make_layer: &dyn Fn() -> L,
) -> Result<Rep, String>
where
    L: ConnectionLayer,
    L::Transport: WireCounters,
{
    let setup_started = Instant::now();
    let config = spec.runtime_config(&env.data_dir);
    if spec.wal == Wal::File {
        let _ = std::fs::remove_dir_all(&env.data_dir);
    }
    let mut rt = start(&config, make_layer)?;
    {
        let clients = clients_of(rt.layer().transport(rt.core(), SiteId(0)), rt.controller());
        preload(&clients, &stream.preload, spec.callers)?;
    }
    // Set-up ends only when every preloaded key is where its write plan
    // puts it: a resolve racing the lazy copy to the hash owner would
    // otherwise miss and retry.
    let unsettled = await_placement(&rt, &stream.preload, Duration::from_secs(10));
    if unsettled > 0 {
        return Err(format!(
            "{unsettled} preloaded keys never reached their targets"
        ));
    }
    if spec.wal == Wal::File {
        rt.shutdown();
        rt = start(&config, make_layer)?;
        let lost = await_placement(&rt, &stream.preload, Duration::ZERO);
        if lost > 0 {
            return Err(format!("recovery lost {lost} of the preloaded keys"));
        }
    }

    let transport = rt.layer().transport(rt.core(), SiteId(0));
    let run = Run {
        stream,
        cpu: env.cpu,
        setup_started,
        check_entries: true,
    };
    let (mut rep, acked) = if traced {
        let traced = Arc::new(Traced::new(Arc::clone(&transport)));
        let clients = clients_of(traced, rt.controller());
        let (mut rep, acked) = measure::<_, true>(&clients, &run);
        rep.propagation_p50_us = propagation_p50_us(&rt, &clients);
        (rep, acked)
    } else {
        measure::<_, false>(&clients_of(Arc::clone(&transport), rt.controller()), &run)
    };
    rep.casts_shed = transport.casts_shed();
    rep.breaker_fast_fails = transport.breaker_fast_fails();
    drop(transport);

    // Every acked publish must be readable at its sync site and, once the
    // lazy copies have landed, at its hash owner.
    rep.failed += await_placement(&rt, &acked, Duration::from_secs(10));
    if spec.wal == Wal::File {
        // …and a restart from snapshot + log must find all of them again.
        rt.shutdown();
        rt = start(&config, make_layer)?;
        rep.failed += await_placement(&rt, &acked, Duration::ZERO);
    }
    rt.shutdown();
    if spec.wal == Wal::File {
        let _ = std::fs::remove_dir_all(&env.data_dir);
    }
    Ok(rep)
}

/// One client per site, all on `transport`.
fn clients_of<T: RegistryTransport>(
    transport: Arc<T>,
    controller: &Arc<ArchitectureController>,
) -> Vec<StrategyClient<T>> {
    (0..SITES as u16)
        .map(|site| {
            StrategyClient::new(
                Arc::clone(&transport),
                Arc::clone(controller),
                ClientConfig {
                    site: SiteId(site),
                    node: 0,
                },
            )
        })
        .collect()
}

/// Publish the preload set, each key from its origin site's client,
/// split over as many threads as the measured phase will use.
fn preload<T: RegistryTransport>(
    clients: &[StrategyClient<T>],
    keys: &[Written],
    threads: usize,
) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    for k in keys.iter().skip(t).step_by(threads) {
                        clients[usize::from(k.origin.0)]
                            .publish(&k.name, k.size)
                            .map_err(|e| format!("preload {}: {e}", k.name))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err("preload thread panicked".into()))
        })
    })
}

/// Wait until every key is readable, with its size and origin, at every
/// target of its write plan — read straight from the sites' registries.
/// Returns how many keys were still missing somewhere after `patience`.
fn await_placement<L: ConnectionLayer>(
    rt: &ServiceRuntime<L>,
    keys: &[Written],
    patience: Duration,
) -> u64 {
    let strategy = rt.controller().strategy();
    let deadline = Instant::now() + patience;
    let mut missing = 0;
    for k in keys {
        let plan = strategy.write_plan(&k.name, k.origin);
        for target in plan.all_targets() {
            let placed = || {
                rt.registry(target)
                    .and_then(|r| r.get(&k.name).ok())
                    .is_some_and(|e| e.size == k.size && e.available_at(k.origin))
            };
            while !placed() {
                if Instant::now() >= deadline {
                    missing += 1;
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    missing
}

/// Inputs of [`measure`] that do not depend on the transport type.
pub struct Run<'a> {
    /// The stream to replay.
    pub stream: &'a Stream,
    /// Pinned CPU (for the steal-time sample).
    pub cpu: usize,
    /// When the repetition's set-up began.
    pub setup_started: Instant,
    /// Compare every resolved entry with what the generator wrote. Off
    /// only for the no-op transport of `bench.loadgen.self_ns_per_op`.
    pub check_entries: bool,
}

/// What one caller thread brings back.
struct CallerOut {
    started: Instant,
    finished: Instant,
    failed: u64,
    contention: u64,
    publish_ns: Vec<u64>,
    resolve_ns: Vec<u64>,
    acked: Vec<Written>,
    spans: Vec<Span>,
}

/// Reads that miss are retried this often, this far apart, before the
/// operation counts as failed. Reads target settled keys, so any retry at
/// all is reported (`core.client.resolve_retries` must be 0).
const RESOLVE_ATTEMPTS: usize = 50;
const RESOLVE_BACKOFF: Duration = Duration::from_micros(200);

/// Warm up, then replay the stream closed-loop: each caller issues its
/// next operation when the previous one has returned. `TRACED` records a
/// span per operation (the transport records the children).
pub fn measure<T: RegistryTransport, const TRACED: bool>(
    clients: &[StrategyClient<T>],
    run: &Run,
) -> (Rep, Vec<Written>) {
    let callers = run.stream.callers.len();
    let preload = &run.stream.preload;
    let barrier = Barrier::new(callers + 1);
    let mut out = Rep::default();
    let mut acked = Vec::new();
    let outs: Vec<CallerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = run
            .stream
            .callers
            .iter()
            .map(|steps| {
                let barrier = &barrier;
                scope.spawn(move || {
                    // Untimed: dial every connection and fault in buffers.
                    for (i, k) in preload.iter().take(64 * SITES).enumerate() {
                        let _ = clients[i % SITES].resolve(&k.name);
                    }
                    barrier.wait(); // every caller is warm: set-up is over
                    barrier.wait(); // the "before" sample is taken: go
                    let o = replay::<T, TRACED>(clients, steps, preload, run.check_entries);
                    barrier.wait(); // every caller is done
                    barrier.wait(); // the "after" sample is taken
                    o
                })
            })
            .collect();
        barrier.wait();
        out.setup_s = run.setup_started.elapsed().as_secs_f64();
        let before = ProcSample::take(run.cpu);
        barrier.wait();
        barrier.wait();
        out.os = ProcSample::take(run.cpu).since(&before);
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let started = outs.iter().map(|o| o.started).min().expect("a caller");
    let finished = outs.iter().map(|o| o.finished).max().expect("a caller");
    out.wall_s = finished.duration_since(started).as_secs_f64();
    out.attempted = run.stream.total_ops() as u64;
    for o in outs {
        out.failed += o.failed;
        out.contention += o.contention;
        out.publish_ns.extend(o.publish_ns);
        out.resolve_ns.extend(o.resolve_ns);
        acked.extend(o.acked);
        out.spans.extend(o.spans);
    }
    for c in clients {
        let s = c.stats().snapshot();
        out.client.local_read_hits += s.local_read_hits;
        out.client.remote_reads += s.remote_reads;
        out.client.read_misses += s.read_misses;
        out.client.local_writes += s.local_writes;
        out.client.remote_writes += s.remote_writes;
        out.client.async_pushes += s.async_pushes;
        out.client.retries += s.retries;
        out.client.failovers += s.failovers;
        out.client.epoch_refreshes += s.epoch_refreshes;
    }
    out.publish_ns.sort_unstable();
    out.resolve_ns.sort_unstable();
    (out, acked)
}

fn replay<T: RegistryTransport, const TRACED: bool>(
    clients: &[StrategyClient<T>],
    steps: &[Step],
    preload: &[Written],
    check_entries: bool,
) -> CallerOut {
    let mut o = CallerOut {
        started: Instant::now(),
        finished: Instant::now(),
        failed: 0,
        contention: 0,
        publish_ns: Vec::with_capacity(steps.len()),
        resolve_ns: Vec::with_capacity(steps.len()),
        acked: Vec::with_capacity(steps.len()),
        spans: Vec::new(),
    };
    let fail = |o: &mut CallerOut, e: &MetaError| {
        o.failed += 1;
        o.contention += u64::from(*e == MetaError::Contention);
    };
    o.started = Instant::now();
    for step in steps {
        let client = &clients[usize::from(step.site)];
        match &step.op {
            Op::Publish { name, size } => {
                let issued = Instant::now();
                let result = if TRACED {
                    trace::in_op("publish", || client.publish(name, *size))
                } else {
                    client.publish(name, *size)
                };
                let ns = issued.elapsed().as_nanos() as u64;
                match result {
                    Ok(()) => {
                        o.publish_ns.push(ns);
                        o.acked.push(Written {
                            name: name.clone(),
                            size: *size,
                            origin: SiteId(step.site),
                        });
                    }
                    Err(e) => fail(&mut o, &e),
                }
            }
            Op::Resolve { key } => {
                let want = &preload[*key as usize];
                let resolve = || {
                    client.resolve_with_retry(&want.name, RESOLVE_ATTEMPTS, |_| {
                        std::thread::sleep(RESOLVE_BACKOFF)
                    })
                };
                let issued = Instant::now();
                let result = if TRACED {
                    trace::in_op("resolve", resolve)
                } else {
                    resolve()
                };
                let ns = issued.elapsed().as_nanos() as u64;
                match result {
                    Ok(e)
                        if !check_entries
                            || (e.size == want.size && e.available_at(want.origin)) =>
                    {
                        o.resolve_ns.push(ns)
                    }
                    Ok(_) => o.failed += 1,
                    Err(e) => fail(&mut o, &e),
                }
            }
        }
    }
    o.finished = Instant::now();
    if TRACED {
        o.spans = trace::take_spans();
    }
    o
}

/// `core.lazy.propagation_p50_us`: publish fresh keys whose hash owner is
/// another site and time publish-ack → readable in the owner's registry.
fn propagation_p50_us<L: ConnectionLayer, T: RegistryTransport>(
    rt: &ServiceRuntime<L>,
    clients: &[StrategyClient<T>],
) -> f64 {
    let strategy = rt.controller().strategy();
    let mut delays = Vec::new();
    for i in 0..4_000 {
        if delays.len() == 200 {
            break;
        }
        let name = format!("wf-probe/propagation/{i:05}.dat");
        let origin = SiteId((i % SITES) as u16);
        let plan = strategy.write_plan(&name, origin);
        let Some(&owner) = plan.async_targets.first() else {
            continue;
        };
        if clients[usize::from(origin.0)].publish(&name, 1).is_err() {
            continue;
        }
        let acked = Instant::now();
        let deadline = acked + Duration::from_secs(2);
        while rt.registry(owner).is_some_and(|r| r.get(&name).is_err()) && Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        delays.push(acked.elapsed().as_nanos() as u64);
    }
    delays.sort_unstable();
    crate::stats::percentile(&delays, 0.5) / 1e3
}

/// A transport that answers at once, for `bench.loadgen.self_ns_per_op`:
/// what the load generator and `StrategyClient` cost with no registry
/// behind them.
pub struct NoopTransport;

impl RegistryTransport for NoopTransport {
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        match req {
            RegistryRequest::Get { key } => RegistryResponse::Found {
                entry: geometa_core::RegistryEntry::new(
                    key.as_str(),
                    0,
                    geometa_core::FileLocation {
                        site: target,
                        node: 0,
                    },
                    0,
                ),
            },
            _ => RegistryResponse::Ack,
        }
    }

    fn cast(&self, _target: SiteId, _req: RegistryRequest) {}

    fn now_micros(&self) -> u64 {
        0
    }

    fn sites(&self) -> Vec<SiteId> {
        (0..SITES as u16).map(SiteId).collect()
    }
}

/// Nanoseconds per operation of the stream replayed into [`NoopTransport`].
pub fn loadgen_self_ns_per_op(stream: &Stream, cpu: usize) -> f64 {
    let sites: Vec<SiteId> = (0..SITES as u16).map(SiteId).collect();
    let controller = Arc::new(ArchitectureController::with_kind(KIND, sites));
    let clients = clients_of(Arc::new(NoopTransport), &controller);
    let run = Run {
        stream,
        cpu,
        setup_started: Instant::now(),
        check_entries: false,
    };
    let (rep, _) = measure::<_, false>(&clients, &run);
    rep.wall_s * 1e9 * stream.callers.len() as f64 / rep.attempted as f64
}
