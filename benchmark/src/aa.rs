//! `--aa N`: an A/A study of the benchmark itself.
//!
//! Runs each chosen workload `2 × N` times as fresh child processes —
//! two sets, A and B, of the same binary, interleaved A B A B … with a
//! new seed each time — and prints, per end-to-end metric, both medians,
//! how far B's is on the worse side of A's, the spread over all runs as
//! the driver computes it, and PASS when the first two stay within the
//! metric's bound. `AA.md` is one `--aa 4` over all four workloads.

use crate::manifest::{END_TO_END, WORKLOADS};
use crate::stats;
use std::process::Command;

/// The `"name": {"value": v, …}` pairs of a result line.
fn metric_values(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line.split_once("\"metrics\": {").map_or("", |(_, m)| m);
    while let Some((head, tail)) = rest.split_once("\": {\"value\": ") {
        let name = head.rsplit('"').next().unwrap_or("").to_string();
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse() {
            out.push((name, v));
        }
        rest = &tail[end..];
    }
    out
}

/// One child run; returns its end-to-end values.
fn child(workload: &str, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!("{workload} seed {seed} failed: {line}"));
    }
    Ok(metric_values(line))
}

/// Run the study and print it as Markdown. `Ok(false)` when a metric
/// broke its bound.
pub fn run(n: usize, chosen: &[&str], seconds: u64) -> Result<bool, String> {
    let workloads: Vec<&str> = if chosen.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        chosen.to_vec()
    };
    println!("# A/A: two interleaved sets of {n} runs of one binary, {seconds} s each\n");
    println!(
        "`drift` is how far set B's median lies on the worse side of set A's; `spread` is the \
         interquartile range of all {} runs over their median. Both are judged against `bound`; \
         the spread of `setup_s` is shown but not judged, as in the driver.\n",
        2 * n
    );
    let mut all_pass = true;
    for workload in workloads {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * n {
            eprintln!("aa: {workload} run {} of {}", i + 1, 2 * n);
            sets[i % 2].push(child(workload, 1_000 + i as u64, seconds)?);
        }
        println!("## {workload}\n");
        println!("| metric | unit | A median | B median | drift | spread | min | max | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|---|");
        for m in &END_TO_END {
            let of = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .flat_map(|run| run.iter().filter(|(n, _)| n == m.name).map(|&(_, v)| v))
                    .collect()
            };
            let (a, b) = (of(&sets[0]), of(&sets[1]));
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let (med_a, med_b) = (stats::median(&a), stats::median(&b));
            let worse = if m.better == "lower" {
                med_b - med_a
            } else {
                med_a - med_b
            };
            let drift = (worse / med_a).max(0.0);
            let spread = stats::iqr_share(&all);
            let pass = drift <= m.bound && (m.name == "setup_s" || spread <= m.bound);
            all_pass &= pass;
            println!(
                "| `{}` | {} | {:.4} | {:.4} | {:.1}% | {:.1}% | {:.4} | {:.4} | {:.0}% | {} |",
                m.name,
                m.unit,
                med_a,
                med_b,
                drift * 100.0,
                spread * 100.0,
                stats::min(&all),
                stats::max(&all),
                m.bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
            );
        }
        println!();
    }
    println!("{}", if all_pass { "**PASS**" } else { "**FAIL**" });
    Ok(all_pass)
}
