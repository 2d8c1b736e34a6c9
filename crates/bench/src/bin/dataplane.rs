//! Steady-state data-plane throughput and copy-count benchmark.
//!
//! Measures the zero-copy data plane on the wired (Ethernet↔Ethernet)
//! two-node testbed, for the paper's two measurement flows:
//!
//! * `voip-g711` — small packets at a high rate (80 B @ 100 pps);
//! * `cbr-1mbps` — the saturation flow (1000 B @ 125 pps).
//!
//! For each flow the bench warms the testbed up, then times a steady-state
//! window and reports
//!
//! * **simulated packets forwarded per wall-clock second** (the headline
//!   throughput of the simulator's forwarding path), and
//! * **payload bytes deep-copied per forwarded packet**, from the global
//!   [`copy counters`](umtslab::umtslab_net::copy_counters) that every
//!   `Bytes::copy_from_slice`/`to_vec` increments.
//!
//! Results are a **trajectory**: each run appends an entry (git revision,
//! mode, per-flow figures) to the `history` array of
//! `BENCH_dataplane.json`, so the committed file records how throughput
//! evolved across the PR sequence. Two gates make the bench fail loudly:
//!
//! * the wired fast path must perform **zero** payload-byte copies in the
//!   1 Mbps flow's steady state, and
//! * each flow's pkts/s must stay within 10% of the previous same-mode
//!   history entry (the regression gate; skip with `--no-gate` when
//!   measuring on a machine unrelated to the recorded history).
//!
//! ```sh
//! cargo run --release -p umtslab-bench --bin dataplane [-- --quick] [--no-gate]
//! ```
//!
//! `--quick` shrinks the flow durations for CI smoke use; quick entries
//! are only ever compared against other quick entries.

use std::fmt::Write as _;

use umtslab::experiment::{ExperimentConfig, PathKind, TwoNodeTestbed, INRIA_ADDR};
use umtslab::prelude::*;
use umtslab::umtslab_net::copy_counters;
use umtslab_bench::history::{git_rev, regressions, Trajectory};

const SEED: u64 = 42;
const BENCH_PATH: &str = "BENCH_dataplane.json";

struct FlowReport {
    label: String,
    sim_seconds: f64,
    packets_forwarded: u64,
    wall_seconds: f64,
    packets_per_sec: f64,
    deep_copies: u64,
    deep_copy_bytes: u64,
    bytes_cloned_per_packet: f64,
}

/// Repetitions per flow; the median wall time wins. The simulated work
/// is identical each time (same seed), so the repetitions differ only in
/// host noise — the median strips both slow outliers (scheduler
/// preemption) and fast ones (turbo bursts), which a min/max would chase.
const REPS: usize = 5;

/// Runs one flow on the wired path `REPS` times and returns the
/// median-wall repetition.
fn run_flow(spec: FlowSpec, measure: Duration) -> FlowReport {
    let mut runs: Vec<FlowReport> =
        (0..REPS).map(|_| run_flow_once(spec.clone(), measure)).collect();
    runs.sort_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds));
    runs.swap_remove(REPS / 2)
}

/// One measured repetition of a flow's steady-state window.
fn run_flow_once(spec: FlowSpec, measure: Duration) -> FlowReport {
    let label = spec.label.clone();
    let mut spec = spec;
    // Warmup fills the pipeline and the buffer pool; only the second
    // half of the flow is measured.
    let warmup = Duration::from_secs(2);
    spec.duration = warmup + measure;

    let cfg = ExperimentConfig::paper(spec.clone(), PathKind::EthernetToEthernet, SEED);
    let mut env = TwoNodeTestbed::build(&cfg);
    let flow_start = env.tb.now() + cfg.settle;
    let dport = spec.dport;
    let tx = env.tb.add_sender(env.napoli, env.umts_slice, spec, INRIA_ADDR, flow_start);
    let rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);

    // Warm up to steady state, then measure the remaining window.
    env.tb.run_until(flow_start + warmup);
    let copies0 = copy_counters();
    let recv0 = env.tb.receiver_records(rx).len() as u64;
    let wall0 = std::time::Instant::now();

    env.tb.run_until(flow_start + warmup + measure + cfg.drain);

    let wall = wall0.elapsed().as_secs_f64();
    let copies1 = copy_counters();
    let recv1 = env.tb.receiver_records(rx).len() as u64;

    let packets = recv1 - recv0;
    let deep_copies = copies1.copies - copies0.copies;
    let deep_copy_bytes = copies1.bytes - copies0.bytes;
    FlowReport {
        label,
        sim_seconds: measure.total_micros() as f64 / 1e6,
        packets_forwarded: packets,
        wall_seconds: wall,
        packets_per_sec: packets as f64 / wall.max(1e-9),
        deep_copies,
        deep_copy_bytes,
        bytes_cloned_per_packet: deep_copy_bytes as f64 / (packets.max(1)) as f64,
    }
}

/// Renders one history entry (one run) at the array's indent level.
fn render_entry(git_rev: &str, quick: bool, reports: &[FlowReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "      \"git_rev\": \"{git_rev}\",");
    let _ = writeln!(out, "      \"quick\": {quick},");
    out.push_str("      \"flows\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("        {\n");
        let _ = writeln!(out, "          \"flow\": \"{}\",", r.label);
        let _ = writeln!(out, "          \"sim_seconds\": {:.3},", r.sim_seconds);
        let _ = writeln!(out, "          \"packets_forwarded\": {},", r.packets_forwarded);
        let _ = writeln!(out, "          \"wall_seconds\": {:.6},", r.wall_seconds);
        let _ = writeln!(out, "          \"packets_per_sec\": {:.1},", r.packets_per_sec);
        let _ = writeln!(out, "          \"deep_copies\": {},", r.deep_copies);
        let _ = writeln!(out, "          \"deep_copy_bytes\": {},", r.deep_copy_bytes);
        let _ = writeln!(
            out,
            "          \"bytes_cloned_per_packet\": {:.3}",
            r.bytes_cloned_per_packet
        );
        out.push_str(if i + 1 < reports.len() { "        },\n" } else { "        }\n" });
    }
    out.push_str("      ]\n    }");
    out
}

/// Pulls `(flow label, pkts/s)` pairs out of one raw history entry.
fn entry_flows(entry: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut label = None;
    for line in entry.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"flow\": \"") {
            label = rest.strip_suffix("\",").map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("\"packets_per_sec\": ") {
            if let (Some(l), Ok(v)) = (label.take(), rest.trim_end_matches(',').parse::<f64>()) {
                out.push((l, v));
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = !args.iter().any(|a| a == "--no-gate");
    let measure = if quick { Duration::from_secs(4) } else { Duration::from_secs(30) };
    let mut history = Trajectory::load_or_exit(BENCH_PATH, "dataplane", SEED);
    let prev = history.last_in_mode(quick).map(entry_flows).unwrap_or_default();

    println!(
        "dataplane bench: wired two-node path, seed {SEED}, {} mode",
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>12} {:>10}",
        "flow", "packets", "wall [s]", "pkts/s", "copies", "B/pkt"
    );

    let flows = [FlowSpec::voip_g711(), FlowSpec::cbr_1mbps()];
    let mut reports = Vec::new();
    for spec in flows {
        let r = run_flow(spec, measure);
        println!(
            "{:<12} {:>10} {:>10.3} {:>14.1} {:>12} {:>10.3}",
            r.label,
            r.packets_forwarded,
            r.wall_seconds,
            r.packets_per_sec,
            r.deep_copies,
            r.bytes_cloned_per_packet
        );
        reports.push(r);
    }

    history.append(render_entry(&git_rev(), quick, &reports)).expect("write BENCH_dataplane.json");
    println!("appended history entry {} to {BENCH_PATH}", history.entries().len());

    // Gate 1: the contract the zero-copy refactor guarantees — once a
    // packet is emitted, the wired forwarding path never copies its
    // payload bytes.
    let cbr = reports.iter().find(|r| r.label == "cbr-1mbps").expect("cbr flow ran");
    assert!(cbr.packets_forwarded > 0, "cbr flow forwarded no packets");
    if cbr.deep_copies != 0 {
        eprintln!(
            "FAIL: wired cbr-1mbps steady state performed {} payload copies ({} B)",
            cbr.deep_copies, cbr.deep_copy_bytes
        );
        std::process::exit(1);
    }
    println!("zero-copy invariant holds: 0 payload byte copies in steady state");

    // Gate 2: throughput must not regress more than 10% against the last
    // same-mode trajectory entry.
    if gate {
        let now: Vec<(String, f64)> =
            reports.iter().map(|r| (r.label.clone(), r.packets_per_sec)).collect();
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
