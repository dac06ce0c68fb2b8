//! Per-layer probes: direct, timed calls into each module's public
//! functions, on requests sampled from the workload's own stream.
//!
//! A probe reports the fastest of a few repetitions of a loop over the
//! sample (`stats::best_ns_per_op`). Probes run in every workload's traced
//! invocation, so a layer's number is comparable across workloads; they
//! say what a layer costs in isolation, not what it costs under load —
//! that is what the spans and the end-to-end metrics are for.

use crate::gen::{Op, Stream, SITES};
use crate::live::{InlineLayer, GROUP_COMMIT};
use crate::stats::best_ns_per_op;
use bytes::Bytes;
use geometa_cache::{HaCache, Key, PutCondition, ShardedStore};
use geometa_core::controller::ArchitectureController;
use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::runtime::{RuntimeConfig, ServiceRuntime};
use geometa_core::strategy::StrategyKind;
use geometa_core::wal::{encode_record, FileWal, FsyncPolicy, MemWal, WalSink};
use geometa_core::{FileLocation, RegistryEntry, RegistryInstance};
use geometa_experiments::fig10::{buzzflow_for, montage_for, Fig10Config};
use geometa_experiments::scale::{self, ScaleConfig};
use geometa_experiments::simbind::{run_synthetic, SimConfig};
use geometa_net::frame::{write_frame_with_mode, FrameReader};
use geometa_sim::prelude::*;
use geometa_workflow::apps::SyntheticSpec;
use geometa_workflow::scheduler::{node_grid, schedule, SchedulerPolicy};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Requests per probe loop.
const SAMPLE: usize = 4_096;
/// Timed repetitions per probe; the fastest counts.
const REPS: u32 = 5;
/// Entries in the snapshot and recovery probes.
const SNAPSHOT_ENTRIES: usize = 20_000;

/// The entries the stream's first [`SAMPLE`] publishes would write.
fn sample_entries(stream: &Stream) -> Vec<RegistryEntry> {
    let mut entries = Vec::with_capacity(SAMPLE);
    'outer: for caller in &stream.callers {
        for step in caller {
            if let Op::Publish { name, size } = &step.op {
                entries.push(RegistryEntry::new(
                    name.as_str(),
                    *size,
                    FileLocation {
                        site: SiteId(step.site),
                        node: 0,
                    },
                    entries.len() as u64,
                ));
                if entries.len() == SAMPLE {
                    break 'outer;
                }
            }
        }
    }
    entries
}

/// Per-layer metric values keyed by name.
pub type Values = Vec<(&'static str, f64)>;

/// Run every probe. `dir` is scratch space for the file-backed WAL probes.
pub fn run(stream: &Stream, dir: &Path) -> Result<Values, String> {
    let entries = sample_entries(stream);
    if entries.is_empty() {
        return Err("the stream has no publishes to sample".into());
    }
    let n = entries.len() as u64;
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    let keys: Vec<Key> = names.iter().map(|n| Key::new(n)).collect();
    let values: Vec<Bytes> = entries.iter().map(RegistryEntry::to_bytes).collect();
    let mut out = Values::new();

    // cache: the sharded store and the primary/replica pair above it.
    let store = ShardedStore::new(16);
    out.push((
        "cache.store.put_ns",
        best_ns_per_op(REPS, n, || {
            for (k, v) in names.iter().zip(&values) {
                black_box(store.put(k, v.clone(), 1).is_ok());
            }
        }),
    ));
    out.push((
        "cache.store.get_ns",
        best_ns_per_op(REPS, n, || {
            for k in &names {
                black_box(store.get(k).is_ok());
            }
        }),
    ));
    let ha = HaCache::new(16);
    out.push((
        "cache.replica.put_if_ns",
        best_ns_per_op(REPS, n, || {
            for (k, v) in names.iter().zip(&values) {
                black_box(ha.put_if(k, PutCondition::Always, v.clone(), 1).is_ok());
            }
        }),
    ));

    // core.entry: the cache representation of an entry.
    out.push((
        "core.entry.to_bytes_ns",
        best_ns_per_op(REPS, n, || {
            for e in &entries {
                black_box(e.to_bytes());
            }
        }),
    ));
    out.push((
        "core.entry.from_bytes_ns",
        best_ns_per_op(REPS, n, || {
            for v in &values {
                black_box(RegistryEntry::from_bytes(v.clone()).is_ok());
            }
        }),
    ));

    // core.strategy: one write plan and one read plan per key.
    let sites: Vec<SiteId> = (0..SITES as u16).map(SiteId).collect();
    let controller = ArchitectureController::with_kind(StrategyKind::DhtLocalReplica, sites);
    let strategy = controller.strategy();
    out.push((
        "core.strategy.plan_ns",
        best_ns_per_op(REPS, 2 * n, || {
            for (i, k) in keys.iter().enumerate() {
                let origin = SiteId((i % SITES) as u16);
                black_box(strategy.write_plan_key(k, origin));
                black_box(strategy.read_plan_key(k, origin));
            }
        }),
    ));

    // core.registry: one site's instance.
    let registry = RegistryInstance::new(SiteId(0), 16);
    out.push((
        "core.registry.put_ns",
        best_ns_per_op(REPS, n, || {
            for e in &entries {
                black_box(registry.put(e, 1).is_ok());
            }
        }),
    ));
    out.push((
        "core.registry.get_ns",
        best_ns_per_op(REPS, n, || {
            for k in &names {
                black_box(registry.get(k).is_ok());
            }
        }),
    ));

    // core.runtime: ServiceCore's dispatch over an in-memory WAL.
    let rt = ServiceRuntime::start(RuntimeConfig::default(), InlineLayer);
    let core = rt.core();
    let puts: Vec<RegistryRequest> = entries
        .iter()
        .map(|e| RegistryRequest::Put { entry: e.clone() })
        .collect();
    let gets: Vec<RegistryRequest> = keys
        .iter()
        .map(|k| RegistryRequest::Get { key: k.clone() })
        .collect();
    out.push((
        "core.runtime.serve_put_ns",
        best_ns_per_op(REPS, n, || {
            for r in &puts {
                black_box(core.serve(SiteId(0), r.clone()));
            }
        }),
    ));
    out.push((
        "core.runtime.serve_get_ns",
        best_ns_per_op(REPS, n, || {
            for r in &gets {
                black_box(core.serve(SiteId(0), r.clone()));
            }
        }),
    ));
    // Sixteen requests per batch, alternating put and get, as a reactor
    // pass hands them over.
    let mut scratch = core.new_batch_scratch();
    let (mut reqs, mut resps) = (Vec::with_capacity(16), Vec::with_capacity(16));
    out.push((
        "core.runtime.serve_batch16_ns",
        best_ns_per_op(REPS, 2 * n, || {
            for (p, g) in puts.chunks(8).zip(gets.chunks(8)) {
                for (p, g) in p.iter().zip(g) {
                    reqs.push(p.clone());
                    reqs.push(g.clone());
                }
                core.serve_batch_into(SiteId(0), &mut reqs, &mut resps, &mut scratch);
                black_box(resps.len());
                resps.clear();
            }
        }),
    ));
    let found: Vec<RegistryResponse> = gets
        .iter()
        .map(|g| core.serve(SiteId(0), g.clone()))
        .collect();
    rt.shutdown();

    // core.protocol: one operation's request and response on the wire,
    // averaged over a put/ack and a get/found.
    let mut buf = Vec::with_capacity(512);
    out.push((
        "core.protocol.encode_ns",
        best_ns_per_op(REPS, 2 * n, || {
            for ((p, g), f) in puts.iter().zip(&gets).zip(&found) {
                buf.clear();
                p.encode_into(&mut buf);
                RegistryResponse::Ack.encode_into(&mut buf);
                g.encode_into(&mut buf);
                f.encode_into(&mut buf);
                black_box(buf.len());
            }
        }),
    ));
    let wire: Vec<[Bytes; 4]> = puts
        .iter()
        .zip(&gets)
        .zip(&found)
        .map(|((p, g), f)| {
            [
                p.encode(),
                RegistryResponse::Ack.encode(),
                g.encode(),
                f.encode(),
            ]
        })
        .collect();
    out.push((
        "core.protocol.decode_ns",
        best_ns_per_op(REPS, 2 * n, || {
            for [p, ack, g, f] in &wire {
                black_box(RegistryRequest::decode(p.clone()).is_ok());
                black_box(RegistryResponse::decode(ack.clone()).is_ok());
                black_box(RegistryRequest::decode(g.clone()).is_ok());
                black_box(RegistryResponse::decode(f.clone()).is_ok());
            }
        }),
    ));
    let wire_bytes: usize = wire.iter().flatten().map(Bytes::len).sum();
    out.push((
        "core.protocol.bytes_per_op",
        wire_bytes as f64 / (2 * n) as f64,
    ));

    // net.frame: framing one put request.
    let mut framed = Vec::with_capacity(SAMPLE * 256);
    out.push((
        "net.frame.write_ns",
        best_ns_per_op(REPS, n, || {
            framed.clear();
            for [p, ..] in &wire {
                black_box(write_frame_with_mode(&mut framed, 2, p).is_ok());
            }
        }),
    ));
    out.push((
        "net.frame.read_ns",
        best_ns_per_op(REPS, n, || {
            let mut reader = FrameReader::new();
            let mut rest = framed.as_slice();
            let mut frames = 0u64;
            while !rest.is_empty() {
                let _ = reader.fill(&mut rest);
                while let Ok(Some(range)) = reader.next_frame_range() {
                    black_box(reader.view(range).len());
                    frames += 1;
                }
            }
            assert_eq!(frames, n, "every written frame reads back");
        }),
    ));

    wal_probes(&entries, &puts, dir, &mut out)?;
    sim_probes(&mut out);
    Ok(out)
}

/// core.wal: appends, snapshot, recovery, bytes, and the device's fsync.
fn wal_probes(
    entries: &[RegistryEntry],
    puts: &[RegistryRequest],
    dir: &Path,
    out: &mut Values,
) -> Result<(), String> {
    let n = puts.len() as u64;
    out.push((
        "core.wal.append_mem_ns",
        best_ns_per_op(REPS, n, || {
            let wal = MemWal::new();
            for r in puts {
                black_box(wal.append(r, 1).is_ok());
            }
        }),
    ));
    // One publish logs its Put at the sync site and, for three keys in
    // four, an Absorb at the hash owner.
    let put_bytes: usize = puts.iter().map(|r| encode_record(0, 0, r).len()).sum();
    let absorb_bytes: usize = entries
        .iter()
        .map(|e| {
            let absorb = RegistryRequest::Absorb {
                entries: vec![e.clone()],
            };
            encode_record(0, 0, &absorb).len()
        })
        .sum();
    let remote_owner = (SITES - 1) as f64 / SITES as f64;
    out.push((
        "core.wal.bytes_per_publish",
        (put_bytes as f64 + remote_owner * absorb_bytes as f64) / n as f64,
    ));

    let io = |what: &str, e: &dyn std::fmt::Display| format!("wal probe, {what}: {e}");
    let wal_dir = dir.join("probe-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (wal, _) = FileWal::open(&wal_dir, FsyncPolicy::GroupCommit(GROUP_COMMIT))
        .map_err(|e| io("open", &e))?;
    // One appender, so every append pays a full flusher round trip.
    let appends = &puts[..puts.len().min(512)];
    let mut failed = 0;
    out.push((
        "core.wal.append_file_us",
        best_ns_per_op(REPS, appends.len() as u64, || {
            for r in appends {
                failed += usize::from(wal.append(r, 1).is_err());
            }
        }) / 1e3,
    ));
    let image: Vec<RegistryEntry> = (0..SNAPSHOT_ENTRIES)
        .map(|i| {
            let mut e = entries[i % entries.len()].clone();
            e.name = format!("{}#{i}", e.name).into();
            e
        })
        .collect();
    let mut snapshot_ms = f64::INFINITY;
    for _ in 0..REPS {
        let started = Instant::now();
        wal.install_snapshot(&mut || image.clone())
            .map_err(|e| io("snapshot", &e))?;
        snapshot_ms = snapshot_ms.min(started.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("core.wal.snapshot_ms", snapshot_ms));
    for r in appends {
        failed += usize::from(wal.append(r, 1).is_err());
    }
    wal.close();
    drop(wal);
    if failed > 0 {
        return Err(format!("wal probe: {failed} appends failed"));
    }
    // Recovery: decode the snapshot just installed plus the log tail.
    let mut recover_ms = f64::INFINITY;
    for _ in 0..REPS {
        let started = Instant::now();
        let (wal, rec) =
            FileWal::open(&wal_dir, FsyncPolicy::Never).map_err(|e| io("recover", &e))?;
        recover_ms = recover_ms.min(started.elapsed().as_secs_f64() * 1e3);
        if rec.entries.len() != SNAPSHOT_ENTRIES || rec.tail.len() != appends.len() {
            return Err(format!(
                "wal probe: recovered {} entries and {} records",
                rec.entries.len(),
                rec.tail.len()
            ));
        }
        wal.close();
    }
    out.push(("core.wal.recover_ms", recover_ms));

    // The device under the data dir: 4 KiB written and synced. Ungated —
    // on a disk this moves by a factor from minute to minute.
    let path = wal_dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path).map_err(|e| io("create", &e))?;
    let mut syncs = Vec::new();
    for _ in 0..32 {
        file.write_all(&[0u8; 4096]).map_err(|e| io("write", &e))?;
        let started = Instant::now();
        file.sync_data().map_err(|e| io("sync", &e))?;
        syncs.push(started.elapsed().as_nanos() as u64);
    }
    syncs.sort_unstable();
    out.push((
        "core.wal.device_fsync_us",
        crate::stats::percentile(&syncs, 0.5) / 1e3,
    ));
    drop(file);
    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(())
}

#[derive(Clone, Debug)]
enum PingPong {
    Ping(u32),
    Pong(u32),
}

struct Pinger {
    peer: ActorId,
    rounds: u32,
}

impl Actor<PingPong> for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<PingPong>) {
        ctx.send(self.peer, PingPong::Ping(self.rounds), 64);
    }
    fn on_message(&mut self, ctx: &mut Ctx<PingPong>, env: Envelope<PingPong>) {
        if let PingPong::Pong(n) = env.msg {
            if n > 0 {
                ctx.send(self.peer, PingPong::Ping(n - 1), 64);
            }
        }
    }
}

struct Ponger;

impl Actor<PingPong> for Ponger {
    fn on_message(&mut self, ctx: &mut Ctx<PingPong>, env: Envelope<PingPong>) {
        if let PingPong::Ping(n) = env.msg {
            ctx.send(env.from, PingPong::Pong(n), 64);
        }
    }
}

/// Files per site of the simulator probes: a tenth of `sim_figures`, so
/// they cost every workload's traced run a fraction of a second.
const PROBE_FILES_PER_SITE: usize = 1_000;

/// sim.engine, experiments.simbind, workflow.apps.
fn sim_probes(out: &mut Values) {
    // The bare event queue: two actors bouncing one message.
    let rounds = 20_000u32;
    out.push((
        "sim.engine.ping_pong_ns",
        best_ns_per_op(REPS, 2 * (u64::from(rounds) + 1), || {
            let mut engine: Engine<PingPong> = Engine::new(Topology::azure_4dc(), 1);
            let ponger = engine.add_actor(SiteId(2), Ponger);
            engine.add_actor(
                SiteId(0),
                Pinger {
                    peer: ponger,
                    rounds,
                },
            );
            black_box(engine.run().events_processed);
        }),
    ));

    // The registry binding: ns per dispatched event, per strategy.
    let cfg = ScaleConfig::default();
    let (mut events, mut ops, mut best_wall) = (0u64, 0u64, 0.0);
    for (kind, name) in [
        (
            StrategyKind::Centralized,
            "experiments.simbind.ns_per_event.centralized",
        ),
        (
            StrategyKind::Replicated,
            "experiments.simbind.ns_per_event.replicated",
        ),
        (
            StrategyKind::DhtNonReplicated,
            "experiments.simbind.ns_per_event.dht",
        ),
        (
            StrategyKind::DhtLocalReplica,
            "experiments.simbind.ns_per_event.dht_local",
        ),
    ] {
        let row = scale::run_cell(&cfg, PROBE_FILES_PER_SITE, kind);
        let ns_per_event = best_ns_per_op(3, row.events, || {
            black_box(scale::run_cell(&cfg, PROBE_FILES_PER_SITE, kind).events);
        });
        out.push((name, ns_per_event));
        events += row.events;
        ops += row.total_ops as u64;
        best_wall += ns_per_event * row.events as f64 / 1e9;
        if kind == StrategyKind::DhtLocalReplica {
            out.push(("experiments.simbind.virtual_ops_s", row.throughput));
        }
    }
    out.push(("sim.engine.events_per_s", events as f64 / best_wall));
    out.push(("sim.engine.events_per_op", events as f64 / ops as f64));
    let spec = SyntheticSpec {
        nodes: cfg.nodes,
        ops_per_node: cfg.ops_per_node(PROBE_FILES_PER_SITE),
        compute_per_op: SimDuration::ZERO,
        seed: cfg.seed,
    };
    let outcome = run_synthetic(
        &spec,
        &SimConfig::new(StrategyKind::DhtLocalReplica, cfg.seed),
    );
    out.push((
        "experiments.simbind.wan_messages_per_op",
        outcome.wan_messages as f64 / outcome.total_ops as f64,
    ));

    // Building the quick Fig. 10 DAGs and placing them on the node grid.
    let fig10 = Fig10Config::quick();
    let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
    out.push((
        "workflow.apps.build_ms",
        best_ns_per_op(REPS, 1, || {
            for &scenario in &fig10.scenarios {
                for w in [
                    montage_for(scenario, &fig10),
                    buzzflow_for(scenario, &fig10),
                ] {
                    let nodes = node_grid(&sites, fig10.nodes_per_site);
                    black_box(schedule(&w, &nodes, SchedulerPolicy::RoundRobin));
                }
            }
        }) / 1e6,
    ));
}
