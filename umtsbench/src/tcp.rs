//! `tcp_switching`: the INRIA FACH/DCH policy grid at the paper's 120 s.
//!
//! Some cells never return (the simulated clock stops advancing while
//! memory grows), so every cell runs in a child process of this binary
//! under two budgets: wall time for the whole cell, and CPU time for
//! each simulated second of the measured phase. A cell that overruns
//! either is killed, waited for, counted as failed and named by
//! `(policy, seed)`; the next cell starts only after it is gone.

use std::process::ExitCode;
use std::time::{Duration as WallDuration, Instant};

use umtslab::paper::campaign_seeds;
use umtslab::prelude::{Duration, FlowSpec};
use umtslab::umtslab_traffic::{SwitchingPolicy, TcpConfig};
use umtslab::{ExperimentConfig, FlowModel, PathKind};
use umtslab_verify::determinism::Fnv1a;

use crate::child;
use crate::host;
use crate::job::{result_hash, run_job};
use crate::outcome::Outcome;
use crate::trace::{Span, SpanId, Tracer};
use crate::wire;

/// The reference grid, run at every workload seed: the INRIA grid over
/// `campaign_seeds(2008, 16)`. It holds the two cells known to
/// livelock, (aggressive, 9927) and (aggressive, 33684), so every run
/// shows whether they still do.
pub const REFERENCE: (u64, usize) = (2008, 16);
/// Campaign repetitions per policy drawn from the workload seed: 4
/// policies × 1 seed = 4 cells. A cell's work varies by a factor of
/// up to 40 from seed to seed (coefficient of variation 0.44 over 200
/// seeds), so the workload seed only adds to a fixed grid. With 2
/// seeded campaign seeds next to the 16 fixed ones, an iteration's
/// scheduler events spread 0.067 (interquartile range over median)
/// across workload seeds 1–10, and its `wall_s` 0.051–0.084.
pub const REPS: usize = 1;
/// The paper's flow length.
pub const FLOW: Duration = Duration::from_secs(120);
/// Simulated time between progress reports from a cell.
const STEP: Duration = Duration::from_secs(1);
/// Wall budget of one cell, end to end. A healthy cell takes ~0.1 s.
const CELL_BUDGET: WallDuration = WallDuration::from_secs(10);
/// CPU budget between two progress reports. A healthy simulated second
/// takes about a millisecond, and the slowest seen took 12 ms.
const STALL_BUDGET: WallDuration = WallDuration::from_millis(250);

/// The experiment `run_switching_policy` runs for `(policy, seed)`.
pub fn cell_config(policy: SwitchingPolicy, seed: u64, flow: Duration) -> ExperimentConfig {
    let spec = FlowSpec { label: format!("tcp-{}", policy.name()), ..FlowSpec::cbr_1mbps() };
    let mut exp = ExperimentConfig::paper(spec, PathKind::UmtsToEthernet, seed);
    exp.flow_model = FlowModel::Tcp(TcpConfig { duration: flow, ..TcpConfig::default() });
    exp.operator.rrc = policy.rrc_config();
    exp
}

/// Child side: runs one cell and reports it in the [`crate::wire`]
/// protocol, with `setup` once set up and `progress` after each step.
pub fn child(policy: SwitchingPolicy, seed: u64, traced: bool) -> ExitCode {
    let cfg = cell_config(policy, seed, FLOW);
    let mut tr = Tracer::new(traced);
    // The host is sampled here, in the process and on the core that runs
    // the cell, not in the parent waiting for it.
    let before = host::reference_s();
    let started = Instant::now();
    let run = run_job(
        &cfg,
        &mut tr,
        None,
        0,
        Some(STEP),
        |t| println!("progress {t}"),
        |s| println!("setup {s:?}"),
    );
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            println!("error {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let r = &run.result;
    let tcp = r.tcp.expect("the flow model is TCP");
    let mut out = Outcome {
        attempted: 1,
        setup_s: run.setup_s,
        steady_s: run.steady_ns as f64 / 1e9,
        steady_hops: run.steady_hops,
        report_hash: result_hash(r),
        ..Outcome::default()
    };
    out.event_cost("umts", run.steady_ns, run.steady_events);
    out.time_op(0, wall_s, out.setup_s, out.steady_s);
    out.refs.push(before);
    out.sample_host();
    out.count_metrics(&r.metrics);
    out.count("traffic.tcp_tx", tcp.transmissions as f64);
    out.count("traffic.tcp_retx", tcp.retransmits as f64);
    out.count("traffic.tcp_timeouts", tcp.timeouts as f64);
    out.count("ditg.probes_sent", r.summary.sent as f64);
    out.count("ditg.probes_received", r.summary.received as f64);
    out.count("ditg.rtts", run.rtts as f64);
    out.count("bench.copy_bytes", run.copy_bytes as f64);
    let name = format!("({}, {seed})", policy.name());
    if !run.decode_matches {
        out.fail_check(1, format!("{name}: decoder output differs from collect_result"));
    } else if tcp.delivered_segments == 0 {
        // A flow stuck in RTO backoff for the whole run: deterministic
        // and consistently decoded, but the cell measured nothing.
        out.fail(1, format!("{name}: no segment acknowledged ({} timeouts)", tcp.timeouts));
    }
    out.hwm_kb = crate::vm_hwm_kb();
    print!("{}", wire::render(&out, tr.spans()));
    ExitCode::SUCCESS
}

/// The cells of one iteration: the reference grid, then the grid over
/// `campaign_seeds(seed, REPS)`, each policy-major as `runner traffic`
/// orders them.
pub fn cells(seed: u64) -> Vec<(SwitchingPolicy, u64)> {
    let mut cells = Vec::new();
    for (base, reps) in [REFERENCE, (seed, REPS)] {
        for policy in SwitchingPolicy::ALL {
            cells.extend(campaign_seeds(base, reps).into_iter().map(|s| (policy, s)));
        }
    }
    cells
}

/// Runs every cell of [`cells`] once, one at a time.
pub fn run(seed: u64, tr: &mut Tracer, root: Option<SpanId>) -> Outcome {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let trace = if tr.on() { "1" } else { "0" };
    let t0 = Instant::now();
    let mut out = Outcome::default();
    let mut hash = Fnv1a::new();
    for (op, (policy, s)) in (1..).zip(cells(seed)) {
        let span = tr.open("bench.cell", root, op);
        let offset = tr.now_ns();
        let args = ["--cell", policy.name(), &s.to_string(), "--trace", trace];
        let (wire, why) = child::run(&exe, &args, CELL_BUDGET, STALL_BUDGET);
        tr.close(span);
        let spans = wire.spans.into_iter().map(|sp| Span { op, ..sp }).collect();
        tr.adopt(spans, offset, span);
        match (wire.out, why) {
            (Some(cell), None) => {
                hash.update(&cell.report_hash.to_le_bytes());
                out.merge(op, cell);
            }
            (_, why) => {
                out.attempted += 1;
                out.setup_s += wire.setup_s.unwrap_or(0.0);
                let why = why.unwrap_or_else(|| "no outcome reported".into());
                out.fail(1, format!("({}, {s}): {why}", policy.name()));
            }
        }
    }
    out.report_hash = hash.digest();
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::canonical;
    use umtslab::{run_switching_policy, CrosslayerConfig};

    /// Stepping the measured phase must not change what a cell computes.
    #[test]
    fn stepped_cell_matches_run_switching_policy() {
        let flow = Duration::from_secs(12);
        for policy in [SwitchingPolicy::Aggressive, SwitchingPolicy::Operator] {
            let mut cfg = CrosslayerConfig::new(policy, 2008);
            cfg.tcp.duration = flow;
            let (_, expected) = run_switching_policy(&cfg).unwrap();
            let mut tr = Tracer::new(false);
            let got = run_job(
                &cell_config(policy, 2008, flow),
                &mut tr,
                None,
                0,
                Some(STEP),
                |_| {},
                |_| {},
            )
            .unwrap();
            assert_eq!(canonical(&got.result), canonical(&expected), "{}", policy.name());
            assert!(got.decode_matches);
        }
    }
}
