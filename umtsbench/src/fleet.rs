//! `fleet_idle`: the sharded fleet on a two-worker pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use umtslab::prelude::Instant as SimInstant;
use umtslab::umtslab_net::copy_counters;
use umtslab::umtslab_sim::ShardScheduler;
use umtslab::{run_fleet_with, FleetConfig, Shard};
use umtslab_runner::run_jobs_mut;

use umtslab_verify::determinism::Fnv1a;

use crate::outcome::{hops, Outcome};
use crate::trace::{SpanId, Tracer};

/// Shards, and the worker threads that drive them.
const SHARDS: usize = 2;

/// Reference timings taken before the fleet, and again after it.
const HOST_SAMPLES: usize = 8;

/// The fleet configuration under `seed`: many nodes with few slow
/// probes, so most windows are empty and setup is most of the run.
pub fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        nodes: 1_024,
        flows_per_node: 8,
        sinks: 16,
        shards: SHARDS,
        seconds: 10,
        seed,
        trace_nodes: 2,
    }
}

/// Runs the fleet once. Each member's session is one operation.
pub fn run(seed: u64, tr: &mut Tracer, root: Option<SpanId>) -> Outcome {
    let cfg = config(seed);
    let mut out = Outcome { attempted: cfg.nodes as u64, ..Outcome::default() };
    // The fleet is one operation: sample the host around it, alone and
    // on two threads as its windows run.
    for _ in 0..HOST_SAMPLES {
        out.sample_host();
        out.sample_parallel_host();
    }
    let copies0 = copy_counters();
    let t0 = Instant::now();
    let op = 1;
    let mut first_window: Option<Instant> = None;
    let mut last_window = t0;
    let mut windows = 0u64;
    let mut drive: Option<SpanId> = None;
    let traced = tr.on();
    // Per-shard (start, end) of the current window, in tracer ns.
    let lanes: Vec<(AtomicU64, AtomicU64)> =
        (0..SHARDS).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect();
    let report = run_fleet_with(&cfg, |shards: &mut [Shard], end: SimInstant| {
        let start = Instant::now();
        if first_window.is_none() {
            first_window = Some(start);
            tr.record("core.build", tr.ns_at(t0), tr.ns_at(start), root, op, 0);
            drive = tr.record("sim.drive", tr.ns_at(start), tr.ns_at(start), root, op, 0);
        }
        if traced {
            let origin = tr.origin();
            run_jobs_mut(shards, SHARDS, |i, shard| {
                let a = origin.elapsed().as_nanos() as u64;
                shard.run_window(end);
                let b = origin.elapsed().as_nanos() as u64;
                lanes[i].0.store(a, Ordering::Relaxed);
                lanes[i].1.store(b, Ordering::Relaxed);
            });
        } else {
            run_jobs_mut(shards, SHARDS, |_, shard| shard.run_window(end));
        }
        last_window = Instant::now();
        windows += 1;
        if traced {
            let w = tr.record("sim.window", tr.ns_at(start), tr.ns_at(last_window), drive, op, 0);
            for (i, (a, b)) in lanes.iter().enumerate() {
                let (a, b) = (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
                tr.record("core.shard", a, b, w, op, i as u32);
            }
        }
    });
    let done = Instant::now();
    let first_window = first_window.unwrap_or(done);
    tr.close_at(drive, tr.ns_at(last_window));
    tr.record("core.report", tr.ns_at(last_window), tr.ns_at(done), root, op, 0);

    out.setup_s = first_window.duration_since(t0).as_secs_f64();
    out.steady_s = last_window.duration_since(first_window).as_secs_f64();
    // Nothing forwards before the probes start, after the settle.
    out.steady_hops = hops(&report.metrics);
    out.count_metrics(&report.metrics);
    out.count("sim.windows", windows as f64);
    out.count("ditg.probes_sent", report.sent as f64);
    out.count("ditg.probes_received", report.received as f64);
    out.count("ditg.rtts", report.rtt_count as f64);
    out.count("bench.copy_bytes", (copy_counters().bytes - copies0.bytes) as f64);
    let mut hash = Fnv1a::new();
    hash.update(&report.trace_hash.to_le_bytes());
    hash.update(report.metrics_json.as_bytes());
    out.report_hash = hash.digest();

    if report.ppp_up < cfg.nodes {
        out.fail_check(
            (cfg.nodes - report.ppp_up) as u64,
            format!(
                "{} of {} member sessions not up after the settle",
                cfg.nodes - report.ppp_up,
                cfg.nodes
            ),
        );
    } else if report.sent == 0 || report.received == 0 || report.rtt_count == 0 {
        out.fail_check(
            cfg.nodes as u64,
            format!(
                "probes not carried: sent {} received {} echoed {}",
                report.sent, report.received, report.rtt_count
            ),
        );
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.time_op(op, out.wall_s, out.setup_s, out.steady_s);
    for _ in 0..HOST_SAMPLES {
        out.sample_host();
        out.sample_parallel_host();
    }
    out
}
