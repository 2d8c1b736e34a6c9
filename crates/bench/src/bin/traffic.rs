//! Traffic-library benchmark: TCP cells per wall-clock second.
//!
//! Drives the INRIA switching-policy experiment (one congestion-
//! controlled `umtslab_traffic::TcpFlow` on the UMTS uplink per
//! FACH/DCH policy preset) as a fixed four-cell sweep and reports
//!
//! * **delivered TCP segments per wall-clock second** — the traffic
//!   stack's end-to-end cost per acknowledged segment, summed over the
//!   whole policy sweep; and
//! * the sweep's **report hash** (FNV-1a over the canonical per-policy
//!   rows), which must be identical across every repetition — the
//!   determinism gate for the flow library.
//!
//! Results are a **trajectory**: each run appends an entry (git
//! revision, mode, sweep figures, per-policy rows) to the `history`
//! array of `BENCH_traffic.json`, so the committed file records how the
//! traffic stack's throughput evolved across the PR sequence. Segments
//! per second must stay within 10% of the previous same-mode entry
//! (skip with `--no-gate` on machines unrelated to the recorded
//! history).
//!
//! ```sh
//! cargo run --release -p umtslab-bench --bin traffic [-- --quick] [--no-gate]
//! ```
//!
//! `--quick` shortens the per-cell horizon for CI smoke use; quick
//! entries are only compared against other quick entries.

use std::fmt::Write as _;

use umtslab::umtslab_sim::report::Fnv1a;
use umtslab::umtslab_sim::time::Duration;
use umtslab::umtslab_traffic::{PolicyReport, SwitchingPolicy};
use umtslab::CrosslayerConfig;
use umtslab_bench::history::{git_rev, regressions, Trajectory};

const SEED: u64 = 2008;
const BENCH_PATH: &str = "BENCH_traffic.json";

/// Repetitions of the sweep; the median wall time wins. The simulated
/// work is identical each repetition (same seed), so they differ only in
/// host noise.
const REPS: usize = 3;

struct SweepReport {
    segments: u64,
    wall_seconds: f64,
    segments_per_sec: f64,
    report_hash: u64,
    rows: Vec<PolicyReport>,
}

/// The experiment cell the bench drives per policy: the paper's 30 s
/// bulk upload, shortened in quick mode.
fn bench_config(policy: SwitchingPolicy, quick: bool) -> CrosslayerConfig {
    let mut cfg = CrosslayerConfig::new(policy, SEED);
    cfg.tcp.duration = Duration::from_secs(if quick { 10 } else { 30 });
    cfg
}

/// Seconds with six fractional digits, matching the runner's canonical
/// row formatting so both hash the same dwell values.
fn fmt_dur_s(d: Duration) -> String {
    format!("{}.{:06}", d.total_secs(), d.total_micros() % 1_000_000)
}

/// The canonical hashable row for one policy cell (same layout as
/// `runner traffic`).
fn policy_row(r: &PolicyReport) -> String {
    let d = &r.dwell;
    format!(
        "{} seed={} goodput_bps={} segments={} retx={} timeouts={} max_cwnd={} \
         rrc_transitions={} dwell_idle={} dwell_fach={} dwell_dch={} dwell_dch_up={} \
         idle_promotions={} promotion_latency={}",
        r.policy.name(),
        r.seed,
        r.goodput_bps,
        r.delivered_segments,
        r.retransmits,
        r.timeouts,
        r.max_cwnd_bytes,
        r.rrc_transitions,
        fmt_dur_s(d.idle),
        fmt_dur_s(d.fach),
        fmt_dur_s(d.dch),
        fmt_dur_s(d.dch_upgraded),
        d.idle_promotions,
        fmt_dur_s(d.idle_promotion_latency),
    )
}

/// FNV-1a over the canonical rows, one `\n` after each.
fn report_hash(rows: &[PolicyReport]) -> u64 {
    let mut hash = Fnv1a::new();
    for row in rows {
        hash.update(policy_row(row).as_bytes());
        hash.update(b"\n");
    }
    hash.digest()
}

fn run_once(quick: bool) -> SweepReport {
    let wall0 = std::time::Instant::now();
    let rows: Vec<PolicyReport> = SwitchingPolicy::ALL
        .iter()
        .map(|&policy| {
            let cfg = bench_config(policy, quick);
            let (report, _) = umtslab::run_switching_policy(&cfg)
                .unwrap_or_else(|e| panic!("{} cell failed: {e:?}", policy.name()));
            report
        })
        .collect();
    let wall = wall0.elapsed().as_secs_f64();
    let segments: u64 = rows.iter().map(|r| r.delivered_segments).sum();
    SweepReport {
        segments,
        wall_seconds: wall,
        segments_per_sec: segments as f64 / wall.max(1e-9),
        report_hash: report_hash(&rows),
        rows,
    }
}

/// Runs the sweep `REPS` times, checks the determinism gate across all
/// repetitions, and returns the median-wall rep.
fn run_sweep(quick: bool) -> SweepReport {
    let mut runs: Vec<SweepReport> = (0..REPS).map(|_| run_once(quick)).collect();
    let first_hash = runs[0].report_hash;
    for (i, r) in runs.iter().enumerate() {
        if r.report_hash != first_hash {
            eprintln!(
                "FAIL: report hash diverged — rep {i} 0x{:016x} vs rep 0 0x{first_hash:016x}",
                r.report_hash
            );
            std::process::exit(1);
        }
    }
    runs.sort_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds));
    runs.swap_remove(REPS / 2)
}

/// Renders one history entry (one run) at the array's indent level.
fn render_entry(git_rev: &str, quick: bool, sweep: &SweepReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "      \"git_rev\": \"{git_rev}\",");
    let _ = writeln!(out, "      \"quick\": {quick},");
    let _ = writeln!(out, "      \"segments\": {},", sweep.segments);
    let _ = writeln!(out, "      \"wall_seconds\": {:.6},", sweep.wall_seconds);
    let _ = writeln!(out, "      \"segments_per_sec\": {:.1},", sweep.segments_per_sec);
    let _ = writeln!(out, "      \"report_hash\": \"0x{:016x}\",", sweep.report_hash);
    out.push_str("      \"policies\": [\n");
    for (i, r) in sweep.rows.iter().enumerate() {
        out.push_str("        {\n");
        let _ = writeln!(out, "          \"policy\": \"{}\",", r.policy.name());
        let _ = writeln!(out, "          \"goodput_bps\": {},", r.goodput_bps);
        let _ = writeln!(out, "          \"delivered_segments\": {},", r.delivered_segments);
        let _ = writeln!(out, "          \"retransmits\": {},", r.retransmits);
        let _ = writeln!(out, "          \"timeouts\": {},", r.timeouts);
        let _ = writeln!(out, "          \"rrc_transitions\": {}", r.rrc_transitions);
        out.push_str(if i + 1 < sweep.rows.len() { "        },\n" } else { "        }\n" });
    }
    out.push_str("      ]\n    }");
    out
}

/// Pulls the sweep-level segments/s figure out of one raw history entry.
fn entry_segments_per_sec(entry: &str) -> Vec<(String, f64)> {
    let rate = entry.lines().find_map(|line| {
        line.trim()
            .strip_prefix("\"segments_per_sec\": ")
            .and_then(|rest| rest.trim_end_matches(',').parse::<f64>().ok())
    });
    rate.map(|v| ("sweep".to_string(), v)).into_iter().collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = !args.iter().any(|a| a == "--no-gate");

    let mut history = Trajectory::load_or_exit(BENCH_PATH, "traffic", SEED);
    let prev = history.last_in_mode(quick).map(entry_segments_per_sec).unwrap_or_default();
    let horizon = if quick { 10 } else { 30 };
    println!(
        "traffic bench: {} policy cells x {horizon} s TCP horizon, seed {SEED}, {} mode",
        SwitchingPolicy::ALL.len(),
        if quick { "quick" } else { "full" }
    );

    let sweep = run_sweep(quick);
    println!(
        "{:<14} {:>12} {:>12} {:>8} {:>9} {:>16}",
        "policy", "goodput_bps", "segments", "retx", "timeouts", "rrc_transitions"
    );
    for r in &sweep.rows {
        println!(
            "{:<14} {:>12} {:>12} {:>8} {:>9} {:>16}",
            r.policy.name(),
            r.goodput_bps,
            r.delivered_segments,
            r.retransmits,
            r.timeouts,
            r.rrc_transitions
        );
    }
    println!(
        "sweep: {} segments in {:.3} s = {:.1} segments/s, report_hash 0x{:016x}",
        sweep.segments, sweep.wall_seconds, sweep.segments_per_sec, sweep.report_hash
    );
    println!("determinism gate holds: identical report hash across {REPS} repetitions");

    assert!(sweep.segments > 0, "traffic sweep delivered no segments");

    history.append(render_entry(&git_rev(), quick, &sweep)).expect("write BENCH_traffic.json");
    println!("appended history entry {} to {BENCH_PATH}", history.entries().len());

    // Gate: segments/s must not regress more than 10% against the last
    // same-mode trajectory entry.
    if gate {
        let now = [("sweep".to_string(), sweep.segments_per_sec)];
        let failures = regressions(&prev, &now, "segments/s");
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: throughput regression — {f}");
            }
            std::process::exit(1);
        }
        println!("throughput gate holds: within 10% of the previous same-mode entry");
    }
}
