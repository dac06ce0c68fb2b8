//! The repo benchmark. `README.md` beside this package says what is
//! measured and why; `BENCHMARK.json` at the repo root is this program's
//! `--manifest` output.
//!
//! ```text
//! geometa-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out-dir DIR]
//! geometa-benchmark --aa <n> [--workload <name>]… [--seconds <n>]
//! geometa-benchmark --manifest
//! ```

mod aa;
mod gen;
mod live;
mod manifest;
mod os;
mod probes;
mod sim;
mod stats;
mod trace;

use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A run makes at least this many repetitions, however slow they are.
const MIN_REPS: usize = 3;

/// Command-line arguments of a measuring run.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

/// What a workload hands back for printing.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Reasons the outputs are wrong; empty means correct.
    wrong: Vec<String>,
    /// Fresh repetitions behind the end-to-end values.
    reps: usize,
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(&'static str, f64)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(correct) => i32::from(!correct),
        Err(message) => {
            eprintln!("geometa-benchmark: {message}");
            2
        }
    };
    std::process::exit(code);
}

/// The values of every `flag` occurrence in `argv`.
fn values<'a>(argv: &'a [String], flag: &str) -> Vec<&'a str> {
    argv.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].as_str())
        .collect()
}

fn parse<T: std::str::FromStr>(argv: &[String], flag: &str, default: T) -> Result<T, String> {
    match values(argv, flag).last() {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} {v}: not a valid value")),
    }
}

fn run(argv: &[String]) -> Result<bool, String> {
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", manifest::json());
        return Ok(true);
    }
    let seconds = parse(argv, "--seconds", RUN_SECONDS)?;
    if let Some(n) = values(argv, "--aa").last() {
        let n: usize = n.parse().map_err(|_| format!("--aa {n}: not a count"))?;
        return aa::run(n, &values(argv, "--workload"), seconds);
    }
    let args = Args {
        workload: values(argv, "--workload")
            .last()
            .ok_or("usage: --workload <name> --seed <u64> --seconds <n> --trace <0|1>")?
            .to_string(),
        seed: parse(argv, "--seed", 1)?,
        seconds,
        trace: parse(argv, "--trace", 0u8)? != 0,
        out_dir: values(argv, "--out-dir").last().map(PathBuf::from),
    };
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; choose one of {}",
            args.workload,
            known.join(", ")
        ));
    }

    // Files the run writes live beside the binary, inside the build
    // directory of the checkout.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let build_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the binary has no build directory above it")?;
    let data_dir = build_dir.join(format!(
        "bench-data/{}-{}",
        args.workload,
        std::process::id()
    ));
    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| build_dir.join("bench-out"));
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;

    // Pre-flight.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = os::pin_to_one_cpu().map_err(|e| format!("refusing to run unpinned: {e}"))?;
    eprintln!(
        "pre-flight: nproc {nproc}, pinned to cpu {cpu}, load average {}, data dir {} ({})",
        os::load_average(),
        data_dir.display(),
        if os::is_memory_backed(&data_dir) {
            "memory-backed"
        } else {
            "on a device"
        },
    );

    let env = live::Env { data_dir, cpu };
    let outcome = match args.workload.as_str() {
        "wire_mixed" => live_workload(&live::WIRE_MIXED, &args, &env, &out_dir),
        "core_inline" => live_workload(&live::CORE_INLINE, &args, &env, &out_dir),
        "wal_publish" => live_workload(&live::WAL_PUBLISH, &args, &env, &out_dir),
        _ => sim_workload(&args, &env, &out_dir),
    };
    let _ = std::fs::remove_dir_all(&env.data_dir);
    let outcome = outcome?;
    print_outcome(&args, &outcome);
    Ok(outcome.wrong.is_empty())
}

/// Make fresh repetitions until another one would overrun `budget`.
fn repeat<R>(
    budget: Duration,
    mut rep: impl FnMut() -> Result<R, String>,
) -> Result<Vec<R>, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(rep()?);
        let mean = started.elapsed() / reps.len() as u32;
        if reps.len() >= MIN_REPS && started.elapsed() + mean > budget {
            return Ok(reps);
        }
    }
}

/// The time a run spends on repetitions that feed the end-to-end values.
/// A traced run keeps part of `--seconds` for its traced repetition and
/// the layer probes.
fn rep_budget(args: &Args) -> Duration {
    Duration::from_secs(args.seconds).mul_f64(if args.trace { 0.7 } else { 1.0 })
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn live_workload(
    spec: &live::LiveSpec,
    args: &Args,
    env: &live::Env,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let stream = gen::generate(args.seed, spec.preload, spec.callers, spec.ops, spec.mix);
    let reps = repeat(rep_budget(args), || {
        live::run_rep(spec, &stream, env, false)
    })?;
    let each = |f: &dyn Fn(&live::Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let pct = |publish: bool, p: f64| {
        each(&|r| {
            let ns = if publish {
                &r.publish_ns
            } else {
                &r.resolve_ns
            };
            us(stats::percentile(ns, p))
        })
    };

    let mut out = Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        reps: reps.len(),
        ..Outcome::default()
    };
    let retries: u64 = reps.iter().map(|r| r.client.retries).sum();
    let shed: u64 = reps.iter().map(|r| r.casts_shed).sum();
    let fast_fails: u64 = reps.iter().map(|r| r.breaker_fast_fails).sum();
    for (count, what) in [
        (
            out.failed,
            "operations failed, returned a wrong entry or were lost",
        ),
        (retries, "resolves of settled keys were retried"),
        (shed, "casts were shed"),
        (fast_fails, "calls were failed by an open breaker"),
    ] {
        if count > 0 {
            out.wrong.push(format!("{count} {what}"));
        }
    }
    // The best repetition of each metric: interference on a shared host
    // only ever adds time (README, "The estimator").
    let throughputs = each(&|r| r.throughput());
    out.end_to_end = vec![
        ("setup_s", stats::min(&each(&|r| r.setup_s))),
        ("throughput_ops_s", stats::max(&throughputs)),
        ("publish_p50_us", stats::min(&pct(true, 0.5))),
        ("publish_p90_us", stats::min(&pct(true, 0.9))),
        ("resolve_p50_us", stats::min(&pct(false, 0.5))),
        ("resolve_p90_us", stats::min(&pct(false, 0.9))),
    ];
    eprintln!(
        "{}: {} repetitions, {} publish and {} resolve samples each; \
         set-up median {:.3} s, throughput median {:.0} ops/s",
        spec.name,
        reps.len(),
        reps[0].publish_ns.len(),
        reps[0].resolve_ns.len(),
        stats::median(&each(&|r| r.setup_s)),
        stats::median(&throughputs),
    );
    if !args.trace {
        return Ok(out);
    }

    // The traced repetition, its span file, and the layer probes.
    let traced = live::run_rep(spec, &stream, env, true)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let span_file = out_dir.join(format!("spans-{}.jsonl", spec.name));
    trace::write_jsonl(&span_file, &traced.spans)
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    eprintln!(
        "{} spans written to {}",
        traced.spans.len(),
        span_file.display()
    );
    let spans = trace::summarise(&traced.spans);
    if spans.orphans > 0 {
        out.wrong.push(format!(
            "{} spans have no operation above them",
            spans.orphans
        ));
    }
    if traced.failed > 0 {
        out.wrong.push(format!(
            "{} operations failed in the traced repetition",
            traced.failed
        ));
    }
    out.attempted += traced.attempted;
    out.failed += traced.failed;

    let mut layers = probes::run(&stream, &env.data_dir)?;
    layers.extend(os_layers(reps.iter().map(|r| (&r.os, r.attempted))));
    let probe = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    // What the probes can explain of one call: the request and the
    // response each encoded, framed, read back and decoded once, and the
    // request served. The rest is sockets, reactors and wake-ups.
    let explained_us = us(probe("core.protocol.encode_ns")
        + probe("core.protocol.decode_ns")
        + 2.0 * probe("net.frame.write_ns")
        + 2.0 * probe("net.frame.read_ns")
        + (probe("core.runtime.serve_put_ns") + probe("core.runtime.serve_get_ns")) / 2.0);
    let residual_us = spans.call_p50_us - explained_us;
    layers.extend([
        ("core.client.publish_self_us", spans.publish_self_us),
        ("core.client.resolve_self_us", spans.resolve_self_us),
        ("core.client.calls_per_publish", spans.calls_per_publish),
        ("core.client.calls_per_resolve", spans.calls_per_resolve),
        ("core.client.casts_per_publish", spans.casts_per_publish),
        (
            "core.client.local_read_ratio",
            traced.client.local_read_ratio(),
        ),
        (
            "core.client.resolve_retries",
            (retries + traced.client.retries) as f64,
        ),
        (
            "core.client.epoch_refreshes",
            reps.iter()
                .chain([&traced])
                .map(|r| r.client.epoch_refreshes)
                .sum::<u64>() as f64,
        ),
        (
            "core.registry.occ_conflicts",
            reps.iter()
                .chain([&traced])
                .map(|r| r.contention)
                .sum::<u64>() as f64,
        ),
        ("core.lazy.propagation_p50_us", traced.propagation_p50_us),
        ("net.client.call_p50_us", spans.call_p50_us),
        ("net.client.call_p90_us", spans.call_p90_us),
        ("net.client.cast_ns", spans.cast_ns),
        ("net.client.casts_shed", (shed + traced.casts_shed) as f64),
        (
            "net.client.breaker_fast_fails",
            (fast_fails + traced.breaker_fast_fails) as f64,
        ),
        ("net.wire_residual_us", residual_us),
        ("net.wire_residual_share", residual_us / spans.call_p50_us),
        (
            "bench.loadgen.self_ns_per_op",
            live::loadgen_self_ns_per_op(&stream, env.cpu),
        ),
        ("bench.loadgen.publish_p99_us", stats::min(&pct(true, 0.99))),
        (
            "bench.loadgen.resolve_p99_us",
            stats::min(&pct(false, 0.99)),
        ),
        (
            "bench.loadgen.max_us",
            stats::min(&each(&|r| {
                us(r.publish_ns
                    .last()
                    .max(r.resolve_ns.last())
                    .copied()
                    .unwrap_or(0) as f64)
            })),
        ),
        ("bench.reps.throughput_median", stats::median(&throughputs)),
        (
            "bench.reps.throughput_iqr_share",
            stats::iqr_share(&throughputs),
        ),
        (
            "bench.trace_overhead_ratio",
            traced.throughput() / stats::max(&throughputs),
        ),
        (
            "bench.span_sum_gap",
            1.0 - spans.op_span_sum_ns as f64 / (traced.wall_s * 1e9 * spec.callers as f64),
        ),
    ]);
    out.per_layer = layers;
    Ok(out)
}

/// The `bench.os.*` rows from the measured phases of a run's repetitions,
/// each given with the operations it covered.
fn os_layers<'a>(
    phases: impl Iterator<Item = (&'a os::ProcSample, u64)>,
) -> [(&'static str, f64); 5] {
    let (mut sum, mut ops) = (os::ProcSample::default(), 0.0);
    for (sample, n) in phases {
        sum.add(sample);
        ops += n as f64;
    }
    [
        ("bench.os.peak_rss_mb", os::peak_rss_mb()),
        ("bench.os.cpu_us_per_op", us(sum.cpu_ns as f64) / ops),
        (
            "bench.os.vol_ctx_switches_per_op",
            sum.vol_switches as f64 / ops,
        ),
        (
            "bench.os.invol_ctx_switches_per_op",
            sum.invol_switches as f64 / ops,
        ),
        (
            "bench.os.steal_share",
            sum.steal_ticks as f64 / sum.total_ticks.max(1) as f64,
        ),
    ]
}

fn sim_workload(args: &Args, env: &live::Env, out_dir: &Path) -> Result<Outcome, String> {
    let reps = repeat(rep_budget(args), || sim::run_rep(args.seed, env.cpu, false))?;
    let each = |f: &dyn Fn(&sim::Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let mut out = Outcome {
        attempted: reps.iter().map(|r| r.ops).sum(),
        reps: reps.len(),
        ..Outcome::default()
    };
    // Virtual-time results must equal the golden rows in every
    // repetition, and the quick CSV report its golden copy.
    let golden_rows = include_str!("../golden/sim_rows.tsv");
    let bad_rows: usize = reps
        .iter()
        .map(|r| sim::mismatches(&r.results, golden_rows))
        .sum();
    if bad_rows > 0 {
        out.wrong.push(format!(
            "{bad_rows} simulation rows differ from golden/sim_rows.tsv"
        ));
        for result in &reps[0].results {
            eprintln!("got row: {}", result.row());
        }
    }
    if sim::quick_csv() != include_str!("../golden/quick.csv") {
        out.wrong
            .push("the quick CSV report differs from golden/quick.csv".into());
    }
    // A wrong row is a failed cell; count its operations as failed.
    out.failed = if out.wrong.is_empty() {
        0
    } else {
        out.attempted
    };

    let throughputs = each(&|r| r.ops as f64 / r.wall_s);
    out.end_to_end = vec![
        ("setup_s", stats::min(&each(&|r| r.setup_s))),
        ("throughput_ops_s", stats::max(&throughputs)),
        (
            "publish_p50_us",
            stats::min(&each(&|r| sim::micro_us_per_op(&r.publish_ns, 0.5))),
        ),
        (
            "publish_p90_us",
            stats::min(&each(&|r| sim::micro_us_per_op(&r.publish_ns, 0.9))),
        ),
        (
            "resolve_p50_us",
            stats::min(&each(&|r| sim::micro_us_per_op(&r.resolve_ns, 0.5))),
        ),
        (
            "resolve_p90_us",
            stats::min(&each(&|r| sim::micro_us_per_op(&r.resolve_ns, 0.9))),
        ),
    ];
    eprintln!(
        "sim_figures: {} repetitions of {} cells, {} simulated operations each; \
         throughput median {:.0} ops/s",
        reps.len(),
        reps[0].results.len(),
        reps[0].ops,
        stats::median(&throughputs),
    );
    if !args.trace {
        return Ok(out);
    }

    let traced = sim::run_rep(args.seed, env.cpu, true)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let span_file = out_dir.join("spans-sim_figures.jsonl");
    trace::write_jsonl(&span_file, &traced.spans)
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    eprintln!(
        "{} spans written to {}",
        traced.spans.len(),
        span_file.display()
    );
    // The probes sample requests from a live stream; the smallest serves.
    let stream = gen::generate(args.seed, 64, 1, 2 * 4_096, gen::Mix::Half);
    let mut layers = probes::run(&stream, &env.data_dir)?;
    layers.extend(os_layers(reps.iter().map(|r| (&r.os, r.ops))));
    let span_sum: u64 = traced.spans.iter().map(trace::Span::duration_ns).sum();
    layers.extend([
        ("bench.reps.throughput_median", stats::median(&throughputs)),
        (
            "bench.reps.throughput_iqr_share",
            stats::iqr_share(&throughputs),
        ),
        (
            "bench.trace_overhead_ratio",
            traced.ops as f64 / traced.wall_s / stats::max(&throughputs),
        ),
        (
            "bench.span_sum_gap",
            1.0 - span_sum as f64 / (traced.wall_s * 1e9),
        ),
    ]);
    out.per_layer = layers;
    Ok(out)
}

/// A JSON number: the value with all its digits, or 0 when not finite.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Print the metric table for people and, last, the result line the
/// driver reads.
fn print_outcome(args: &Args, outcome: &Outcome) {
    let (table, measured): (Vec<(&str, &str)>, _) = if args.trace {
        (
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
            &outcome.per_layer,
        )
    } else {
        (
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            &outcome.end_to_end,
        )
    };
    println!(
        "workload {} seed {} — {} fresh repetitions, {} operations attempted, {} failed",
        args.workload, args.seed, outcome.reps, outcome.attempted, outcome.failed
    );
    for reason in &outcome.wrong {
        println!("WRONG: {reason}");
    }
    let mut fields = Vec::new();
    for (name, unit) in table {
        // A layer this workload does not exercise reads 0.
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        println!("{name:<48} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.wrong.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
}
