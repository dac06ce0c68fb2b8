//! Chaos scenarios: seeded fault injection with an invariant oracle.
//!
//! A [`ChaosCell`] names one point of the scenario matrix — a metadata
//! strategy, a fault kind, a workload and a seed. [`run_cell`] builds a
//! deterministic [`FaultSchedule`] from the seed, drives the workload
//! through the simulator in chaos mode (client timeouts, crash recovery,
//! batched lazy propagation), and then audits the surviving state against
//! the reproduction's safety claims:
//!
//! 1. **Durability** — every client-acknowledged write is present in at
//!    least one surviving registry instance after heal + quiescence.
//! 2. **Convergence** — absorbing the union of all instances' entries
//!    everywhere makes every instance reach the identical join
//!    ([`merge_entries`] is a deterministic, idempotent, commutative
//!    merge, exercised on state produced under real faults).
//! 3. **Bounded migration** — a crash-triggered [`ConsistentRing`]
//!    rebalance evacuates only the crashed site's owned keys, within the
//!    consistent-hashing bound, and every moved key resolves at its new
//!    owner.
//! 4. **Replay** — re-running the cell with the same seed produces a
//!    byte-identical fingerprint ([`run_cell_checked`]).
//!
//! Plus the lazy-propagation accounting check: entries handed to a
//! [`LazyBatcher`](geometa_core::lazy::LazyBatcher) are eventually
//! shipped — crashes included — never silently dropped.
//!
//! Failures print a seed banner with a one-line reproduction command;
//! `GEOMETA_SEED` replays a single seed, `GEOMETA_CHAOS_SEEDS` pins the
//! seed list (the CI smoke job uses this).
//!
//! [`merge_entries`]: geometa_core::consistency::merge_entries
//! [`ConsistentRing`]: geometa_core::hash::ConsistentRing

use crate::calibration::Calibration;
use crate::simbind::{
    run_synthetic_instrumented, run_workflow_instrumented, SimArtifacts, SimConfig,
};
use geometa_core::consistency::merge_entries;
use geometa_core::entry::RegistryEntry;
use geometa_core::hash::ConsistentRing;
use geometa_core::protocol::RegistryRequest;
use geometa_core::rebalance::{apply_rebalance, plan_rebalance};
use geometa_core::strategy::StrategyKind;
use geometa_sim::oracle::{Fingerprint, OpLog};
use geometa_sim::prelude::*;
use geometa_workflow::apps::buzzflow::{buzzflow, BuzzFlowConfig};
use geometa_workflow::apps::montage::{montage, MontageConfig};
use geometa_workflow::apps::synthetic::SyntheticSpec;
use geometa_workflow::scheduler::{node_grid, schedule, SchedulerPolicy};
use std::collections::BTreeMap;

/// Fault kinds of the chaos matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// Crash (and later restart) a registry-hosting site; drives HaCache
    /// primary→replica promotion and client crash recovery.
    RegistryCrash,
    /// Partition one site from the rest (symmetric or asymmetric, decided
    /// by the seed).
    Partition,
    /// A WAN latency/bandwidth degradation window.
    WanDegradation,
    /// One lossy WAN link: probabilistic message drop + duplication.
    FlakyLink,
    /// SIGKILL-style process death of a registry site followed by a
    /// restart that replays the site's write-ahead log (snapshot + tail).
    /// Unlike [`ChaosFault::RegistryCrash`] — a cache-primary failover
    /// with the replica surviving — a kill loses *every* byte of
    /// in-memory state; durability holds only if the log brings the
    /// acked writes back. Deliberately **not** part of [`Self::all`]:
    /// the kill-recover tier rides its own grid
    /// ([`kill_recover_grid`]) so the legacy matrix — and with it the
    /// figures' byte-identity — is untouched.
    KillRecover,
}

impl ChaosFault {
    /// All fault kinds of the legacy matrix, in matrix order
    /// ([`ChaosFault::KillRecover`] has its own grid).
    pub fn all() -> [ChaosFault; 4] {
        [
            ChaosFault::RegistryCrash,
            ChaosFault::Partition,
            ChaosFault::WanDegradation,
            ChaosFault::FlakyLink,
        ]
    }

    /// Short label for tables and banners.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ChaosFault::RegistryCrash => "crash",
            ChaosFault::Partition => "partition",
            ChaosFault::WanDegradation => "wan-degrade",
            ChaosFault::FlakyLink => "flaky-link",
            ChaosFault::KillRecover => "kill-recover",
        }
    }
}

/// Workloads of the chaos matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosApp {
    /// The §VI-B synthetic writer/reader benchmark.
    Synthetic,
    /// A reduced Montage DAG, round-robin placed (cross-site deps).
    Montage,
    /// A reduced BuzzFlow DAG, round-robin placed.
    BuzzFlow,
}

impl ChaosApp {
    /// Short label for tables and banners.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ChaosApp::Synthetic => "synthetic",
            ChaosApp::Montage => "montage",
            ChaosApp::BuzzFlow => "buzzflow",
        }
    }
}

/// One cell of the chaos matrix.
#[derive(Clone, Copy, Debug)]
pub struct ChaosCell {
    /// Strategy under test.
    pub kind: StrategyKind,
    /// Fault kind injected.
    pub fault: ChaosFault,
    /// Workload driven through the faults.
    pub app: ChaosApp,
    /// Seed for both the workload and the fault schedule.
    pub seed: u64,
}

impl std::fmt::Display for ChaosCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "strategy={} fault={} app={} seed={}",
            self.kind.label(),
            self.fault.label(),
            self.app.label(),
            self.seed
        )
    }
}

/// Workload sizing for a cell.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSize {
    /// Synthetic benchmark nodes.
    pub nodes: usize,
    /// Synthetic ops per node.
    pub ops_per_node: usize,
    /// Montage tiles / BuzzFlow initial width.
    pub wf_scale: usize,
}

impl ChaosSize {
    /// The full-matrix size (small DES runs; the matrix has many cells).
    pub fn matrix() -> ChaosSize {
        ChaosSize {
            nodes: 8,
            ops_per_node: 12,
            wf_scale: 4,
        }
    }

    /// The CI smoke size.
    pub fn smoke() -> ChaosSize {
        ChaosSize {
            nodes: 6,
            ops_per_node: 8,
            wf_scale: 3,
        }
    }
}

/// A failed invariant, with enough context to replay.
#[derive(Clone, Debug)]
pub struct ChaosViolation {
    /// The failing cell.
    pub cell: ChaosCell,
    /// Which invariant failed.
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

impl std::fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} — {}", self.cell, self.invariant, self.detail)
    }
}

/// What one audited cell run observed.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The cell.
    pub cell: ChaosCell,
    /// Deterministic fold over the run's observable state.
    pub fingerprint: u64,
    /// Client-acknowledged writes recorded by the oracle.
    pub acked_writes: usize,
    /// Reads that exhausted their retry budget (allowed under chaos,
    /// reported).
    pub read_misses: u64,
    /// Fault-layer accounting for the run.
    pub fault_stats: FaultStats,
    /// Fraction of entries a crash-triggered rebalance moved (crash cells
    /// on hash-placed strategies only).
    pub moved_fraction: Option<f64>,
    /// `(enqueued, flushed, pending_at_crash)` lazy-batcher accounting.
    pub lazy: (u64, u64, u64),
}

/// Seeds for a chaos run: `GEOMETA_SEED` (single) or `GEOMETA_CHAOS_SEEDS`
/// (comma-separated) override `defaults` — the failing-seed banner prints
/// the exact variable to set.
pub fn chaos_seeds(defaults: &[u64]) -> Vec<u64> {
    if let Ok(s) = std::env::var("GEOMETA_SEED") {
        if let Ok(v) = s.trim().parse::<u64>() {
            return vec![v];
        }
    }
    if let Ok(s) = std::env::var("GEOMETA_CHAOS_SEEDS") {
        let seeds: Vec<u64> = s
            .split(',')
            .filter_map(|p| p.trim().parse::<u64>().ok())
            .collect();
        if !seeds.is_empty() {
            return seeds;
        }
    }
    defaults.to_vec()
}

/// The synthetic chaos grid: every strategy × fault kind × seed, in
/// matrix order. Single source of the cell layout for the `repro`
/// matrix, the bench timing workload and the determinism gates.
pub fn synthetic_grid(seeds: &[u64]) -> Vec<ChaosCell> {
    let mut cells =
        Vec::with_capacity(StrategyKind::all().len() * ChaosFault::all().len() * seeds.len());
    for kind in StrategyKind::all() {
        for fault in ChaosFault::all() {
            for &seed in seeds {
                cells.push(ChaosCell {
                    kind,
                    fault,
                    app: ChaosApp::Synthetic,
                    seed,
                });
            }
        }
    }
    cells
}

/// The kill-and-recover grid: every strategy × seed on the synthetic
/// workload, each cell a [`ChaosFault::KillRecover`]. Kept out of
/// [`synthetic_grid`] (and thus out of the legacy matrix, the bench
/// timing workload and the figure fingerprints): the durability tier
/// rides its own rows.
pub fn kill_recover_grid(seeds: &[u64]) -> Vec<ChaosCell> {
    let mut cells = Vec::with_capacity(StrategyKind::all().len() * seeds.len());
    for kind in StrategyKind::all() {
        for &seed in seeds {
            cells.push(ChaosCell {
                kind,
                fault: ChaosFault::KillRecover,
                app: ChaosApp::Synthetic,
                seed,
            });
        }
    }
    cells
}

/// The workflow spot cells appended to the matrix: one Montage and one
/// BuzzFlow registry-crash cell per strategy.
pub(crate) fn spot_cells(seed: u64) -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    for kind in StrategyKind::all() {
        for app in [ChaosApp::Montage, ChaosApp::BuzzFlow] {
            cells.push(ChaosCell {
                kind,
                fault: ChaosFault::RegistryCrash,
                app,
                seed,
            });
        }
    }
    cells
}

/// One-line reproduction command for a failing cell.
pub(crate) fn repro_command(cell: &ChaosCell) -> String {
    format!(
        "GEOMETA_SEED={} cargo test --release --test chaos_matrix",
        cell.seed
    )
}

/// Run a cell and panic with a seed banner on any violation. The harness
/// entry point for tests and CI.
pub fn check_cell(cell: ChaosCell, size: &ChaosSize) -> ChaosReport {
    match run_cell_checked(cell, size) {
        Ok(report) => report,
        Err(v) => {
            eprintln!("================ CHAOS FAILURE ================");
            eprintln!("cell:       {}", v.cell);
            eprintln!("invariant:  {}", v.invariant);
            eprintln!("observed:   {}", v.detail);
            eprintln!("reproduce:  {}", repro_command(&v.cell));
            eprintln!("===============================================");
            panic!("chaos invariant violated: {v}");
        }
    }
}

/// Run a cell twice and enforce invariant 4 (byte-identical replay) on
/// top of the per-run invariants.
pub(crate) fn run_cell_checked(
    cell: ChaosCell,
    size: &ChaosSize,
) -> Result<ChaosReport, ChaosViolation> {
    let first = run_cell(cell, size)?;
    let second = run_cell(cell, size)?;
    if first.fingerprint != second.fingerprint {
        return Err(ChaosViolation {
            cell,
            invariant: "replay (byte-identical reruns)",
            detail: format!(
                "fingerprint {:#018x} != rerun {:#018x}",
                first.fingerprint, second.fingerprint
            ),
        });
    }
    Ok(first)
}

/// Build the deterministic fault schedule for a cell. Returns the
/// schedule and, for crash faults, the crashed site.
pub(crate) fn build_schedule(
    cell: &ChaosCell,
    registry_sites: &[SiteId],
    all_sites: &[SiteId],
) -> (FaultSchedule, Option<SiteId>) {
    let mut rng = SplitMix64::new(cell.seed).split(0xC4A0_5EED);
    let t0 = SimTime::ZERO
        + SimDuration::from_millis(150)
        + SimDuration::from_millis(rng.range_u64(250));
    let t1 = t0 + SimDuration::from_millis(250) + SimDuration::from_millis(rng.range_u64(350));
    let mut schedule = FaultSchedule::new();
    let mut crashed = None;
    match cell.fault {
        ChaosFault::RegistryCrash => {
            let site = registry_sites[rng.range_usize(registry_sites.len())];
            schedule.crash_window(site, t0, t1);
            crashed = Some(site);
        }
        ChaosFault::KillRecover => {
            // Same window shape as a crash; the kill semantics (wipe +
            // WAL replay) are owned by the registry actor's fault
            // handlers under `SimConfig::wal`.
            let site = registry_sites[rng.range_usize(registry_sites.len())];
            schedule.kill_window(site, t0, t1);
            crashed = Some(site);
        }
        ChaosFault::Partition => {
            let cut = all_sites[rng.range_usize(all_sites.len())];
            let rest: Vec<SiteId> = all_sites.iter().copied().filter(|&s| s != cut).collect();
            let symmetric = rng.chance(0.5);
            schedule.partition_window(vec![cut], rest, symmetric, t0, t1);
        }
        ChaosFault::WanDegradation => {
            let latency_mult = 3.0 + rng.range_u64(6) as f64;
            let bandwidth_div = 1 + rng.range_u64(9);
            schedule.wan_degradation_window(latency_mult, bandwidth_div, t0, t1);
        }
        ChaosFault::FlakyLink => {
            let a = all_sites[rng.range_usize(all_sites.len())];
            let b = loop {
                let c = all_sites[rng.range_usize(all_sites.len())];
                if c != a {
                    break c;
                }
            };
            let drop = 0.2 + rng.uniform_f64() * 0.3;
            let duplicate = 0.1 + rng.uniform_f64() * 0.2;
            schedule.link_chaos_window(a, b, drop, duplicate, t0, t1);
        }
    }
    (schedule, crashed)
}

/// Run one audited cell: workload under faults, then the oracle's
/// per-run invariants (durability, lazy accounting, bounded migration,
/// convergence).
pub fn run_cell(cell: ChaosCell, size: &ChaosSize) -> Result<ChaosReport, ChaosViolation> {
    let topology = Topology::azure_4dc();
    let all_sites: Vec<SiteId> = topology.site_ids().collect();
    let registry_sites: Vec<SiteId> = match cell.kind {
        StrategyKind::Centralized => vec![all_sites[0]],
        _ => all_sites.clone(),
    };
    let (faults, crashed) = build_schedule(&cell, &registry_sites, &all_sites);
    let op_log = OpLog::new_shared();
    let cfg = SimConfig {
        kind: cell.kind,
        topology,
        seed: cell.seed,
        cal: Calibration::test_fast(),
        centralized_home: None,
        faults,
        op_log: Some(op_log.clone()),
        lazy_batch: Some((4, SimDuration::from_millis(40))),
        wal: cell.fault == ChaosFault::KillRecover,
    };

    let mut fp = Fingerprint::new();
    let (artifacts, read_misses) = match cell.app {
        ChaosApp::Synthetic => {
            let spec = SyntheticSpec {
                nodes: size.nodes,
                ops_per_node: size.ops_per_node,
                compute_per_op: SimDuration::ZERO,
                seed: cell.seed,
            };
            let (out, artifacts) = run_synthetic_instrumented(&spec, &cfg);
            if out.total_ops != spec.total_ops() {
                return Err(ChaosViolation {
                    cell,
                    invariant: "liveness (every op completes after heal)",
                    detail: format!("{} of {} ops completed", out.total_ops, spec.total_ops()),
                });
            }
            fp.fold(out.total_ops as u64);
            fp.fold(out.makespan.as_micros());
            fp.fold(out.wan_messages);
            fp.fold(out.read_misses);
            fp.fold(out.read_retries);
            (artifacts, out.read_misses)
        }
        ChaosApp::Montage | ChaosApp::BuzzFlow => {
            let workflow = match cell.app {
                ChaosApp::Montage => montage(MontageConfig {
                    tiles: size.wf_scale,
                    files_per_task: 2,
                    compute: SimDuration::from_millis(5),
                    ..MontageConfig::default()
                }),
                _ => buzzflow(BuzzFlowConfig {
                    stages: 4,
                    initial_width: size.wf_scale,
                    files_per_task: 2,
                    compute: SimDuration::from_millis(5),
                    ..BuzzFlowConfig::default()
                }),
            };
            let nodes = node_grid(&all_sites, 2);
            // Round-robin placement maximises cross-site dependencies —
            // the worst case for partitions and flaky links.
            let placement = schedule(&workflow, &nodes, SchedulerPolicy::RoundRobin);
            let (out, artifacts) = run_workflow_instrumented(&workflow, &placement, &cfg);
            if out.total_ops < workflow.total_metadata_ops() {
                return Err(ChaosViolation {
                    cell,
                    invariant: "liveness (every op completes after heal)",
                    detail: format!(
                        "{} of at least {} metadata ops completed",
                        out.total_ops,
                        workflow.total_metadata_ops()
                    ),
                });
            }
            fp.fold(out.total_ops as u64);
            fp.fold(out.makespan.as_micros());
            fp.fold(out.wan_messages);
            fp.fold(out.input_polls);
            (artifacts, 0)
        }
    };

    // Fold the surviving registry state and the oracle log before any
    // invariant mutates instances.
    fold_artifacts(&mut fp, &artifacts);
    op_log.lock().fold_into(&mut fp);

    // Invariant 1: no acked write may be lost.
    let acked = op_log.lock().acked_writes().to_vec();
    for w in &acked {
        let found = artifacts
            .instances
            .values()
            .any(|inst| inst.get(&w.key).is_ok());
        if !found {
            return Err(ChaosViolation {
                cell,
                invariant: "durability (no lost acked writes)",
                detail: format!(
                    "acked write '{}' (acked by site{} at {}) missing from every surviving instance",
                    w.key, w.site.0, w.at
                ),
            });
        }
    }

    // Kill-recover tier: durability is additionally audited against the
    // log itself — every acked write must be recoverable from some
    // site's WAL (snapshot ∪ decoded tail), i.e. it survived because it
    // was logged before its ack left the site, not by luck of a
    // surviving replica.
    if cell.fault == ChaosFault::KillRecover {
        check_wal_durability(&cell, &artifacts, &acked)?;
    }

    // Lazy-propagation accounting: batched-but-unflushed entries must be
    // retried (after crashes) or shipped at drain — never dropped.
    let lazy = op_log.lock().lazy_counters();
    if lazy.0 != lazy.1 {
        return Err(ChaosViolation {
            cell,
            invariant: "lazy accounting (no silently dropped batch entries)",
            detail: format!(
                "{} entries enqueued but only {} flushed ({} were pending at a crash)",
                lazy.0, lazy.1, lazy.2
            ),
        });
    }

    // Invariant 3: crash-triggered rebalance stays within the
    // consistent-hashing migration bound.
    let moved_fraction = match (crashed, cell.kind) {
        (Some(site), StrategyKind::DhtNonReplicated | StrategyKind::DhtLocalReplica) => {
            Some(check_crash_rebalance(&cell, &artifacts, &all_sites, site)?)
        }
        _ => None,
    };

    // Invariant 2: all surviving replicas reach the same join.
    check_convergence(&cell, &artifacts)?;

    Ok(ChaosReport {
        cell,
        fingerprint: fp.value(),
        acked_writes: acked.len(),
        read_misses,
        fault_stats: artifacts.fault_stats,
        moved_fraction,
        lazy,
    })
}

/// Fold run artifacts (fault accounting + per-instance contents) into the
/// replay fingerprint.
fn fold_artifacts(fp: &mut Fingerprint, artifacts: &SimArtifacts) {
    fp.fold(artifacts.final_time.as_micros());
    fp.fold(artifacts.events_processed);
    let fs = artifacts.fault_stats;
    for v in [
        fs.crashes,
        fs.restarts,
        fs.dropped_partition,
        fs.dropped_crashed_dst,
        fs.dropped_chaos,
        fs.duplicated,
        fs.timers_lost,
    ] {
        fp.fold(v);
    }
    let mut sites: Vec<SiteId> = artifacts.instances.keys().copied().collect();
    sites.sort();
    for site in sites {
        fp.fold(site.0 as u64);
        let mut entries = artifacts.instances[&site].all_entries();
        entries.sort_by(|a, b| a.name.as_str().cmp(b.name.as_str()));
        fp.fold(entries.len() as u64);
        for e in entries {
            fold_entry(fp, &e);
        }
    }
}

fn fold_entry(fp: &mut Fingerprint, e: &RegistryEntry) {
    fp.fold_str(e.name.as_str());
    fp.fold(e.size);
    fp.fold(e.created_at);
    let mut locs: Vec<(u16, u32)> = e
        .locations
        .as_slice()
        .iter()
        .map(|l| (l.site.0, l.node))
        .collect();
    locs.sort_unstable();
    for (s, n) in locs {
        fp.fold(s as u64);
        fp.fold(n as u64);
    }
}

/// Kill-recover durability: every oracle-acked write must be present in
/// the union of the per-site WALs — as a snapshot entry or a decoded
/// tail record. This is the tier's defining check: after a kill the
/// restarted site holds only what the log gave back, so an acked key
/// missing from every log is a write that survived (if at all) by
/// accident.
fn check_wal_durability(
    cell: &ChaosCell,
    artifacts: &SimArtifacts,
    acked: &[geometa_sim::oracle::AckedWrite],
) -> Result<(), ChaosViolation> {
    if artifacts.wals.is_empty() {
        return Err(ChaosViolation {
            cell: *cell,
            invariant: "wal durability (acked writes recoverable from the log)",
            detail: "kill-recover cell produced no WALs to audit".to_string(),
        });
    }
    let mut logged: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for wal in artifacts.wals.values() {
        let rec = wal.recovery();
        for e in &rec.entries {
            logged.insert(e.name.as_str().to_owned());
        }
        for r in &rec.tail {
            match &r.req {
                RegistryRequest::Put { entry } => {
                    logged.insert(entry.name.as_str().to_owned());
                }
                RegistryRequest::Absorb { entries } => {
                    for e in entries {
                        logged.insert(e.name.as_str().to_owned());
                    }
                }
                _ => {}
            }
        }
    }
    for w in acked {
        if !logged.contains(w.key.as_str()) {
            return Err(ChaosViolation {
                cell: *cell,
                invariant: "wal durability (acked writes recoverable from the log)",
                detail: format!(
                    "acked write '{}' (acked by site{} at {}) absent from every site's WAL",
                    w.key, w.site.0, w.at
                ),
            });
        }
    }
    Ok(())
}

/// Invariant 3: evacuate the crashed site on a [`ConsistentRing`] and
/// verify the migration is bounded and lands correctly. Returns the moved
/// fraction.
fn check_crash_rebalance(
    cell: &ChaosCell,
    artifacts: &SimArtifacts,
    all_sites: &[SiteId],
    crashed: SiteId,
) -> Result<f64, ChaosViolation> {
    // The same ring build_strategy uses (128 vnodes), before/after losing
    // the crashed site.
    let ring_all = ConsistentRing::new(all_sites.to_vec(), 128);
    let mut ring_minus = ring_all.clone();
    ring_minus.remove_site(crashed);
    let moves = plan_rebalance(&ring_all, &ring_minus, &artifacts.instances);
    let total: usize = artifacts.instances.values().map(|i| i.len()).sum();
    for m in &moves {
        if m.from != crashed || m.to == crashed {
            return Err(ChaosViolation {
                cell: *cell,
                invariant: "bounded migration (crash rebalance)",
                detail: format!(
                    "move '{}' goes {} → {}, but only site{} may evacuate",
                    m.entry.name.as_str(),
                    m.from,
                    m.to,
                    crashed.0
                ),
            });
        }
    }
    let fraction = if total == 0 {
        0.0
    } else {
        moves.len() as f64 / total as f64
    };
    // The crashed site's authoritative share is ≈ 1/n of owned keys; 0.75
    // leaves generous room for vnode imbalance on small key sets while
    // still catching a broken ring (which moves nearly everything).
    if fraction > 0.75 {
        return Err(ChaosViolation {
            cell: *cell,
            invariant: "bounded migration (crash rebalance)",
            detail: format!(
                "{} of {} entries moved ({fraction:.2} > 0.75 bound)",
                moves.len(),
                total
            ),
        });
    }
    let applied = apply_rebalance(&moves, &artifacts.instances).map_err(|e| ChaosViolation {
        cell: *cell,
        invariant: "bounded migration (crash rebalance)",
        detail: format!("apply_rebalance failed: {e}"),
    })?;
    debug_assert_eq!(applied, moves.len());
    for m in &moves {
        let owner = &artifacts.instances[&m.to];
        if owner.get(m.entry.name.as_str()).is_err() {
            return Err(ChaosViolation {
                cell: *cell,
                invariant: "bounded migration (crash rebalance)",
                detail: format!(
                    "moved key '{}' unresolvable at new owner {}",
                    m.entry.name.as_str(),
                    m.to
                ),
            });
        }
    }
    Ok(fraction)
}

/// Invariant 2: the union-join of all instances, absorbed everywhere,
/// must leave every instance with identical contents.
fn check_convergence(cell: &ChaosCell, artifacts: &SimArtifacts) -> Result<(), ChaosViolation> {
    let mut union: BTreeMap<String, RegistryEntry> = BTreeMap::new();
    for inst in artifacts.instances.values() {
        for e in inst.all_entries() {
            union
                .entry(e.name.as_str().to_owned())
                .and_modify(|cur| *cur = merge_entries(cur, &e))
                .or_insert(e);
        }
    }
    for (&site, inst) in &artifacts.instances {
        for e in union.values() {
            inst.absorb(e).map_err(|err| ChaosViolation {
                cell: *cell,
                invariant: "convergence (identical join everywhere)",
                detail: format!(
                    "site{} refused absorb of '{}': {err}",
                    site.0,
                    e.name.as_str()
                ),
            })?;
        }
        let mut got = inst.all_entries();
        if got.len() != union.len() {
            return Err(ChaosViolation {
                cell: *cell,
                invariant: "convergence (identical join everywhere)",
                detail: format!(
                    "site{} holds {} entries after anti-entropy, union has {}",
                    site.0,
                    got.len(),
                    union.len()
                ),
            });
        }
        got.sort_by(|a, b| a.name.as_str().cmp(b.name.as_str()));
        for e in got {
            let expected = &union[e.name.as_str()];
            if &e != expected {
                return Err(ChaosViolation {
                    cell: *cell,
                    invariant: "convergence (identical join everywhere)",
                    detail: format!(
                        "site{} disagrees on '{}': {:?} vs join {:?}",
                        site.0,
                        e.name.as_str(),
                        e,
                        expected
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let cell = ChaosCell {
            kind: StrategyKind::DhtLocalReplica,
            fault: ChaosFault::FlakyLink,
            app: ChaosApp::Synthetic,
            seed: 7,
        };
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let (a, _) = build_schedule(&cell, &sites, &sites);
        let (b, _) = build_schedule(&cell, &sites, &sites);
        assert_eq!(format!("{:?}", a.events()), format!("{:?}", b.events()));
        let other = ChaosCell { seed: 8, ..cell };
        let (c, _) = build_schedule(&other, &sites, &sites);
        assert_ne!(format!("{:?}", a.events()), format!("{:?}", c.events()));
    }

    #[test]
    fn crash_schedule_targets_a_registry_site() {
        for seed in 0..16 {
            let cell = ChaosCell {
                kind: StrategyKind::Centralized,
                fault: ChaosFault::RegistryCrash,
                app: ChaosApp::Synthetic,
                seed,
            };
            let homes = vec![SiteId(0)];
            let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
            let (_, crashed) = build_schedule(&cell, &homes, &sites);
            assert_eq!(crashed, Some(SiteId(0)), "centralized crash hits home");
        }
    }

    #[test]
    fn one_cell_per_fault_kind_passes_the_oracle() {
        // The full matrix lives in tests/chaos_matrix.rs; this is the
        // in-crate smoke that a single cell of each fault kind survives
        // the invariants end to end.
        let size = ChaosSize::smoke();
        for fault in ChaosFault::all() {
            let cell = ChaosCell {
                kind: StrategyKind::DhtLocalReplica,
                fault,
                app: ChaosApp::Synthetic,
                seed: 0xC0FFEE,
            };
            let report = run_cell(cell, &size).unwrap_or_else(|v| panic!("{v}"));
            assert!(report.acked_writes > 0, "{fault:?} recorded no writes");
        }
    }

    #[test]
    fn kill_recover_cell_survives_the_oracle_and_replays_deterministically() {
        let cell = ChaosCell {
            kind: StrategyKind::DhtLocalReplica,
            fault: ChaosFault::KillRecover,
            app: ChaosApp::Synthetic,
            seed: 11,
        };
        let report = run_cell_checked(cell, &ChaosSize::smoke()).unwrap_or_else(|v| panic!("{v}"));
        assert!(report.fault_stats.crashes >= 1, "kill never fired");
        assert!(report.acked_writes > 0, "no writes recorded");
    }

    #[test]
    fn kill_recover_grid_covers_every_strategy() {
        let cells = kill_recover_grid(&[1, 2]);
        assert_eq!(cells.len(), StrategyKind::all().len() * 2);
        assert!(cells.iter().all(|c| c.fault == ChaosFault::KillRecover));
        // The legacy matrix must not pick the new fault kind up.
        assert!(!ChaosFault::all().contains(&ChaosFault::KillRecover));
        assert!(synthetic_grid(&[1])
            .iter()
            .all(|c| c.fault != ChaosFault::KillRecover));
    }

    #[test]
    fn seed_env_override_parses() {
        // No env set in tests → defaults pass through.
        let seeds = chaos_seeds(&[1, 2, 3]);
        assert!(!seeds.is_empty());
    }

    #[test]
    fn replay_is_byte_identical_for_a_cell() {
        let cell = ChaosCell {
            kind: StrategyKind::Replicated,
            fault: ChaosFault::RegistryCrash,
            app: ChaosApp::Synthetic,
            seed: 42,
        };
        let report = run_cell_checked(cell, &ChaosSize::smoke()).unwrap_or_else(|v| panic!("{v}"));
        assert!(report.fault_stats.crashes >= 1);
    }
}
