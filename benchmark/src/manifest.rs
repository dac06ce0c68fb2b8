//! The benchmark's names, units and bounds — the single source of
//! `BENCHMARK.json` (`--manifest` prints it) and of the A/A verdicts.

/// Seconds one run measures for: time for about twelve repetitions of
/// the longest workload on the 2-vCPU box the bounds were set on.
pub const RUN_SECONDS: u64 = 24;

/// A workload and why it is in the benchmark.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// One line of reasoning (≤ 200 characters).
    pub why: &'static str,
}

/// An end-to-end metric with its regression bound.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// A per-layer metric (reported by `--trace 1`, never gated).
pub struct PerLayer {
    /// Metric name, prefixed by the module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_mixed",
        why: "4-site loopback TCP, in-memory WAL, half publishes: net (frames, reactors, wake-ups) is ~95% of an op, so wire-path work shows here and core work should not",
    },
    Workload {
        name: "core_inline",
        why: "same stream served inline (no sockets, codec or service threads) over a 100k-key working set: strategy, client, runtime, registry, cache do all the work; the bypass for net changes",
    },
    Workload {
        name: "wal_publish",
        why: "wire_mixed at 75% publishes on a file-backed WAL (record encode+CRC, write, snapshot+truncate, replay; no fsync wait), recovering restart in set-up, restart audit after: core.wal shows here",
    },
    Workload {
        name: "sim_figures",
        why: "single-threaded DES: scale cells at 10k files/site for all four strategies plus quick Fig. 10 cells, checked against golden rows: sim.engine, simbind, workflow; guards repro wall time",
    },
];

/// The six end-to-end metrics.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "publish_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "publish_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "resolve_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "resolve_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, grouped by module.
pub const PER_LAYER: [PerLayer; 62] = [
    layer("cache.store.get_ns", "ns", "lower"),
    layer("cache.store.put_ns", "ns", "lower"),
    layer("cache.replica.put_if_ns", "ns", "lower"),
    layer("core.entry.to_bytes_ns", "ns", "lower"),
    layer("core.entry.from_bytes_ns", "ns", "lower"),
    layer("core.strategy.plan_ns", "ns", "lower"),
    layer("core.registry.put_ns", "ns", "lower"),
    layer("core.registry.get_ns", "ns", "lower"),
    layer("core.registry.occ_conflicts", "count", "lower"),
    layer("core.runtime.serve_put_ns", "ns", "lower"),
    layer("core.runtime.serve_get_ns", "ns", "lower"),
    layer("core.runtime.serve_batch16_ns", "ns", "lower"),
    layer("core.client.publish_self_us", "us", "lower"),
    layer("core.client.resolve_self_us", "us", "lower"),
    layer("core.client.calls_per_publish", "count", "lower"),
    layer("core.client.calls_per_resolve", "count", "lower"),
    layer("core.client.casts_per_publish", "count", "lower"),
    layer("core.client.local_read_ratio", "ratio", "higher"),
    layer("core.client.resolve_retries", "count", "lower"),
    layer("core.client.epoch_refreshes", "count", "lower"),
    layer("core.protocol.encode_ns", "ns", "lower"),
    layer("core.protocol.decode_ns", "ns", "lower"),
    layer("core.protocol.bytes_per_op", "bytes", "lower"),
    layer("core.wal.append_mem_ns", "ns", "lower"),
    layer("core.wal.append_file_us", "us", "lower"),
    layer("core.wal.snapshot_ms", "ms", "lower"),
    layer("core.wal.recover_ms", "ms", "lower"),
    layer("core.wal.bytes_per_publish", "bytes", "lower"),
    layer("core.wal.device_fsync_us", "us", "lower"),
    layer("core.lazy.propagation_p50_us", "us", "lower"),
    layer("net.frame.read_ns", "ns", "lower"),
    layer("net.frame.write_ns", "ns", "lower"),
    layer("net.client.call_p50_us", "us", "lower"),
    layer("net.client.call_p90_us", "us", "lower"),
    layer("net.client.cast_ns", "ns", "lower"),
    layer("net.client.casts_shed", "count", "lower"),
    layer("net.client.breaker_fast_fails", "count", "lower"),
    layer("net.wire_residual_us", "us", "lower"),
    layer("net.wire_residual_share", "ratio", "lower"),
    layer("bench.os.peak_rss_mb", "MiB", "lower"),
    layer("bench.os.cpu_us_per_op", "us", "lower"),
    layer("bench.os.vol_ctx_switches_per_op", "count", "lower"),
    layer("bench.os.invol_ctx_switches_per_op", "count", "lower"),
    layer("bench.os.steal_share", "ratio", "lower"),
    layer("sim.engine.events_per_s", "1/s", "higher"),
    layer("sim.engine.events_per_op", "count", "lower"),
    layer("sim.engine.ping_pong_ns", "ns", "lower"),
    layer(
        "experiments.simbind.ns_per_event.centralized",
        "ns",
        "lower",
    ),
    layer("experiments.simbind.ns_per_event.replicated", "ns", "lower"),
    layer("experiments.simbind.ns_per_event.dht", "ns", "lower"),
    layer("experiments.simbind.ns_per_event.dht_local", "ns", "lower"),
    layer("experiments.simbind.wan_messages_per_op", "count", "lower"),
    layer("experiments.simbind.virtual_ops_s", "ops/s", "higher"),
    layer("workflow.apps.build_ms", "ms", "lower"),
    layer("bench.loadgen.self_ns_per_op", "ns", "lower"),
    layer("bench.loadgen.publish_p99_us", "us", "lower"),
    layer("bench.loadgen.resolve_p99_us", "us", "lower"),
    layer("bench.loadgen.max_us", "us", "lower"),
    layer("bench.reps.throughput_median", "ops/s", "higher"),
    layer("bench.reps.throughput_iqr_share", "ratio", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "higher"),
    layer("bench.span_sum_gap", "ratio", "lower"),
];

/// `BENCHMARK.json`.
pub fn json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
