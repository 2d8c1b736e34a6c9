//! Sharded-fleet scaling benchmark: aggregate throughput per shard count.
//!
//! Builds the same coupled fleet topology (UMTS member nodes running
//! concurrent probe sessions into wired sinks) at shard counts 1, 2, 4
//! and 8, drives each partitioning on a worker pool, and reports
//!
//! * **aggregate simulated packets per wall-clock second** — access-link
//!   deliveries plus radio (uplink + downlink) serves, the whole
//!   fleet's forwarding work over the run's wall time; and
//! * the run's **trace hash**, which must be identical across every
//!   shard count (the invariance gate — partitioning must never change
//!   results, only wall time).
//!
//! Results are a **trajectory**: each run appends an entry (git
//! revision, mode, per-shard-count figures) to the `history` array of
//! `BENCH_fleet.json`, so the committed file records how sharded
//! throughput evolved across the PR sequence. Per shard count, pkts/s
//! must stay within 10% of the previous same-mode entry (skip with
//! `--no-gate` on machines unrelated to the recorded history).
//!
//! ```sh
//! cargo run --release -p umtslab-bench --bin fleet [-- --quick] [--no-gate]
//! ```
//!
//! `--quick` shrinks the fleet and only runs shard counts 1 and 2 for CI
//! smoke use; quick entries are only compared against other quick
//! entries.

use std::fmt::Write as _;

use umtslab::fleet::FleetConfig;
use umtslab_bench::history::{git_rev, regressions, Trajectory};
use umtslab_runner::{default_workers, run_fleet_parallel};

const SEED: u64 = 2008;
const BENCH_PATH: &str = "BENCH_fleet.json";

/// Repetitions per shard count; the median wall time wins. The simulated
/// work is identical each repetition (same seed), so they differ only in
/// host noise.
const REPS: usize = 3;

struct ShardReport {
    shards: usize,
    packets: u64,
    wall_seconds: f64,
    packets_per_sec: f64,
    trace_hash: u64,
}

/// The fleet the bench drives: small enough to finish in seconds per
/// repetition, large enough that every shard count {1, 2, 4, 8} gets a
/// meaningful partition.
fn bench_config(quick: bool) -> FleetConfig {
    let mut cfg = FleetConfig::demo();
    cfg.seed = SEED;
    if quick {
        cfg.nodes = 48;
        cfg.flows_per_node = 4;
        cfg.sinks = 6;
        cfg.seconds = 2;
    } else {
        cfg.nodes = 240;
        cfg.flows_per_node = 8;
        cfg.sinks = 12;
        cfg.seconds = 5;
    }
    cfg
}

fn run_once(cfg: &FleetConfig) -> ShardReport {
    let wall0 = std::time::Instant::now();
    let report = run_fleet_parallel(cfg, default_workers(cfg.shards));
    let wall = wall0.elapsed().as_secs_f64();
    let m = &report.metrics;
    let packets = m.access.delivered + m.uplink.served + m.downlink.served;
    ShardReport {
        shards: cfg.shards,
        packets,
        wall_seconds: wall,
        packets_per_sec: packets as f64 / wall.max(1e-9),
        trace_hash: report.trace_hash,
    }
}

/// Runs one shard count `REPS` times and returns the median-wall rep.
fn run_shard_count(cfg: &FleetConfig) -> ShardReport {
    let mut runs: Vec<ShardReport> = (0..REPS).map(|_| run_once(cfg)).collect();
    runs.sort_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds));
    runs.swap_remove(REPS / 2)
}

/// Renders one history entry (one run) at the array's indent level.
fn render_entry(git_rev: &str, quick: bool, reports: &[ShardReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "      \"git_rev\": \"{git_rev}\",");
    let _ = writeln!(out, "      \"quick\": {quick},");
    out.push_str("      \"shard_counts\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("        {\n");
        let _ = writeln!(out, "          \"shards\": {},", r.shards);
        let _ = writeln!(out, "          \"packets\": {},", r.packets);
        let _ = writeln!(out, "          \"wall_seconds\": {:.6},", r.wall_seconds);
        let _ = writeln!(out, "          \"packets_per_sec\": {:.1},", r.packets_per_sec);
        let _ = writeln!(out, "          \"trace_hash\": \"0x{:016x}\"", r.trace_hash);
        out.push_str(if i + 1 < reports.len() { "        },\n" } else { "        }\n" });
    }
    out.push_str("      ]\n    }");
    out
}

/// The gate's name for one shard count's figure.
fn shard_key(shards: usize) -> String {
    format!("{shards} shard(s)")
}

/// Pulls `(shard count, pkts/s)` pairs out of one raw history entry.
fn entry_shard_counts(entry: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut shards = None;
    for line in entry.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"shards\": ") {
            shards = rest.trim_end_matches(',').parse::<usize>().ok().map(shard_key);
        } else if let Some(rest) = line.strip_prefix("\"packets_per_sec\": ") {
            if let (Some(s), Ok(v)) = (shards.take(), rest.trim_end_matches(',').parse::<f64>()) {
                out.push((s, v));
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = !args.iter().any(|a| a == "--no-gate");

    let mut history = Trajectory::load_or_exit(BENCH_PATH, "fleet", SEED);
    let prev = history.last_in_mode(quick).map(entry_shard_counts).unwrap_or_default();
    let base = bench_config(quick);
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    println!(
        "fleet bench: {} nodes x {} sessions, {} s window, seed {SEED}, {} mode",
        base.nodes,
        base.flows_per_node,
        base.seconds,
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<8} {:>12} {:>10} {:>14} {:>20}",
        "shards", "packets", "wall [s]", "pkts/s", "trace_hash"
    );

    let mut reports = Vec::new();
    for &shards in shard_counts {
        let mut cfg = base.clone();
        cfg.shards = shards;
        let r = run_shard_count(&cfg);
        println!(
            "{:<8} {:>12} {:>10.3} {:>14.1}   0x{:016x}",
            r.shards, r.packets, r.wall_seconds, r.packets_per_sec, r.trace_hash
        );
        reports.push(r);
    }

    history.append(render_entry(&git_rev(), quick, &reports)).expect("write BENCH_fleet.json");
    println!("appended history entry {} to {BENCH_PATH}", history.entries().len());

    // Gate 1: shard-count invariance — the whole point of the sharded
    // core. Any hash mismatch means partitioning leaked into results.
    let first = reports.first().expect("at least one shard count ran");
    assert!(first.packets > 0, "fleet forwarded no packets");
    for r in &reports[1..] {
        if r.trace_hash != first.trace_hash {
            eprintln!(
                "FAIL: trace hash diverged — {} shard(s) 0x{:016x} vs 1 shard 0x{:016x}",
                r.shards, r.trace_hash, first.trace_hash
            );
            std::process::exit(1);
        }
    }
    println!("invariance gate holds: identical trace hash at every shard count");

    // Gate 2: throughput must not regress more than 10% against the last
    // same-mode trajectory entry, per shard count.
    if gate {
        let now: Vec<(String, f64)> =
            reports.iter().map(|r| (shard_key(r.shards), r.packets_per_sec)).collect();
        let failures = regressions(&prev, &now, "pkts/s");
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: throughput regression — {f}");
            }
            std::process::exit(1);
        }
        println!("throughput gate holds: within 10% of the previous same-mode entry");
    }
}
