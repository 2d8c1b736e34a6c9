//! One two-node experiment, driven phase by phase the way
//! `umtslab::run_experiment` drives it, with each phase timed.

use std::fmt::Write as _;
use std::time::Instant;

use umtslab::experiment::collect_result;
use umtslab::prelude::{Decoder, Duration};
use umtslab::umtslab_net::copy_counters;
use umtslab::{ExperimentConfig, ExperimentError, ExperimentResult, PathKind, TwoNodeTestbed};

use umtslab_verify::determinism::Fnv1a;

use crate::outcome::hops;
use crate::trace::{SpanId, Tracer};

/// How long `umts_up` may wait for the session, as in `run_experiment`.
const DIAL_HORIZON: Duration = Duration::from_secs(120);

/// The measured phases of one job.
pub struct JobRun {
    /// The result `run_experiment` would have returned.
    pub result: ExperimentResult,
    /// Wall seconds of build + `umts_up` + `register_destination`.
    pub setup_s: f64,
    /// Wall nanoseconds of the measured phase.
    pub steady_ns: u64,
    /// Scheduler events in the measured phase.
    pub steady_events: u64,
    /// Packet-hops delivered in the measured phase.
    pub steady_hops: u64,
    /// Payload bytes deep-copied over the whole job.
    pub copy_bytes: u64,
    /// Round-trip samples the sender logged.
    pub rtts: u64,
    /// Whether the benchmark's own decode of the logs matched the result.
    pub decode_matches: bool,
}

/// Runs one experiment. `step`, if set, advances the measured phase in
/// slices of that much simulated time and reports the simulated clock to
/// `progress` after each, so a supervisor can tell a stalled run from a
/// slow one; `None` runs it in one call, as `run_experiment` does.
pub fn run_job(
    cfg: &ExperimentConfig,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    op: u32,
    step: Option<Duration>,
    mut progress: impl FnMut(f64),
    setup_done: impl FnOnce(f64),
) -> Result<JobRun, ExperimentError> {
    let copies0 = copy_counters();
    let t0 = Instant::now();
    let span = tr.open("core.build", parent, op);
    let mut env = TwoNodeTestbed::build(cfg);
    tr.close(span);
    let mut connect_time = None;
    if cfg.path == PathKind::UmtsToEthernet {
        let span = tr.open("umts.dial", parent, op);
        let dialed = env.umts_up(DIAL_HORIZON);
        if dialed.is_ok() {
            env.register_destination();
        }
        tr.close(span);
        connect_time = Some(dialed?);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    setup_done(setup_s);

    let flow_start = env.tb.now() + cfg.settle;
    let (tx, duration, dport) = env.add_measurement_flow(cfg, flow_start);
    let rx = env.tb.add_receiver(env.inria, env.probe_slice, dport, tx, true);
    let end = flow_start + duration + cfg.drain;
    let before = env.tb.metrics();
    let span = tr.open("core.steady", parent, op);
    let t1 = Instant::now();
    match step {
        None => env.tb.run_until(end),
        Some(step) => {
            while env.tb.now() < end {
                let next = env.tb.now() + step;
                env.tb.run_until(if next < end { next } else { end });
                progress(env.tb.now().duration_since(flow_start).as_secs_f64());
            }
        }
    }
    let steady_ns = t1.elapsed().as_nanos() as u64;
    tr.close(span);
    let after = env.tb.metrics();

    let report = tr.open("core.report", parent, op);
    let span = tr.open("ditg.decode", report, op);
    let (sent, rtts) = env.tb.sender_logs(tx);
    let recv = env.tb.receiver_records(rx);
    let decoder = Decoder::with_window(cfg.window);
    let series = decoder.series(flow_start, duration, sent, recv, rtts);
    let summary = decoder.summary(sent, recv, rtts);
    let rtt_samples = rtts.len() as u64;
    tr.close(span);
    let result = collect_result(&env.tb, cfg, tx, rx, flow_start, duration, connect_time);
    let decode_matches = result.series.points == series.points && result.summary == summary;
    tr.close(report);
    Ok(JobRun {
        result,
        setup_s,
        steady_ns,
        steady_events: after.events - before.events,
        steady_hops: hops(&after) - hops(&before),
        copy_bytes: copy_counters().bytes - copies0.bytes,
        rtts: rtt_samples,
        decode_matches,
    })
}

/// A canonical, byte-stable rendering of everything a job reports.
pub fn canonical(r: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "{} {} start={} connect={:?}", r.label, r.path, r.flow_start, r.connect_time);
    let _ = writeln!(out, "{:?}", r.summary);
    for p in &r.series.points {
        let _ = writeln!(out, "{p:?}");
    }
    let _ = writeln!(out, "{}", umtslab::render_metrics_json(&r.metrics));
    let _ = writeln!(out, "{:?} {:?}", r.tcp, r.rrc_dwell);
    out
}

/// FNV-1a of [`canonical`].
pub fn result_hash(r: &ExperimentResult) -> u64 {
    let mut h = Fnv1a::new();
    h.update(canonical(r).as_bytes());
    h.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab::paper::paper_jobs;

    /// Driving the phases one by one must compute what `run_experiment`
    /// computes, on both paths.
    #[test]
    fn phased_job_matches_run_experiment() {
        let flow = Some(Duration::from_secs(5));
        for job in paper_jobs(2008, flow) {
            let expected = job.run().unwrap();
            let mut cfg = ExperimentConfig::paper(job.workload.spec(flow), job.path, job.seed);
            cfg.flow_model = job.workload.flow_model(flow);
            let mut tr = Tracer::new(true);
            let got = run_job(&cfg, &mut tr, None, 7, None, |_| {}, |_| {}).unwrap();
            assert_eq!(canonical(&got.result), canonical(&expected), "{}", job.label());
            assert!(got.decode_matches);
            assert!(got.steady_events > 0 && got.steady_hops > 0);
            let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
            let dial: &[&str] =
                if job.path == PathKind::UmtsToEthernet { &["umts.dial"] } else { &[] };
            let expected_names: Vec<&str> = ["core.build"]
                .iter()
                .chain(dial)
                .chain(&["core.steady", "core.report", "ditg.decode"])
                .copied()
                .collect();
            assert_eq!(names, expected_names);
            assert!(tr.spans().iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        }
    }
}
