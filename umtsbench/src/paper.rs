//! `paper`: the Figures 1–7 campaign, serially, at the paper's 120 s.

use std::time::Instant;

use umtslab::paper::{assemble_paper_run, campaign_seeds, paper_jobs, shape_checks};
use umtslab::{ExperimentConfig, ExperimentResult, PathKind};

use crate::job::{result_hash, run_job};
use umtslab_verify::determinism::Fnv1a;

use crate::outcome::Outcome;
use crate::trace::{SpanId, Tracer};

/// Repetitions of the four-job campaign per iteration.
pub const REPS: usize = 4;

/// Runs `paper_jobs × campaign_seeds(seed, REPS)` once.
pub fn run(seed: u64, tr: &mut Tracer, root: Option<SpanId>) -> Outcome {
    let t0 = Instant::now();
    let mut out = Outcome::default();
    let mut hash = Fnv1a::new();
    let mut op = 0u32;
    for base in campaign_seeds(seed, REPS) {
        let mut results: Vec<ExperimentResult> = Vec::with_capacity(4);
        for job in paper_jobs(base, None) {
            op += 1;
            out.attempted += 1;
            let name = format!("{} seed={}", job.label(), job.seed);
            let mut cfg = ExperimentConfig::paper(job.workload.spec(None), job.path, job.seed);
            cfg.flow_model = job.workload.flow_model(None);
            out.sample_host();
            let span = tr.open("bench.job", root, op);
            let started = Instant::now();
            let run = run_job(&cfg, tr, span, op, None, |_| {}, |_| {});
            let job_wall = started.elapsed().as_secs_f64();
            tr.close(span);
            match run {
                Ok(run) => {
                    let steady_s = run.steady_ns as f64 / 1e9;
                    out.time_op(op, job_wall, run.setup_s, steady_s);
                    out.setup_s += run.setup_s;
                    out.steady_s += steady_s;
                    out.steady_hops += run.steady_hops;
                    let path = if job.path == PathKind::UmtsToEthernet { "umts" } else { "eth" };
                    out.event_cost(path, run.steady_ns, run.steady_events);
                    if !run.decode_matches {
                        out.fail_check(
                            1,
                            format!("{name}: decoder output differs from collect_result"),
                        );
                        continue;
                    }
                    let r = &run.result;
                    out.count_metrics(&r.metrics);
                    out.count("ditg.probes_sent", r.summary.sent as f64);
                    out.count("ditg.probes_received", r.summary.received as f64);
                    out.count("ditg.rtts", run.rtts as f64);
                    out.count("bench.copy_bytes", run.copy_bytes as f64);
                    hash.update(&result_hash(r).to_le_bytes());
                    results.push(run.result);
                }
                Err(e) => out.fail(1, format!("{name}: {e}")),
            }
        }
        let Ok(four) = <[ExperimentResult; 4]>::try_from(results) else {
            continue;
        };
        let bad: Vec<String> = shape_checks(&assemble_paper_run(four))
            .into_iter()
            .filter(|c| !c.pass)
            .map(|c| format!("{} ({})", c.name, c.measured))
            .collect();
        // A missed shape criterion fails the seed's four jobs: that seed
        // does not reproduce the paper's figure. It does not make the
        // output wrong (the run is still deterministic and decodes
        // consistently), so it counts in `failed`, not against `correct`.
        if !bad.is_empty() {
            out.fail(4, format!("seed {base}: shape checks failed: {}", bad.join(", ")));
        }
    }
    out.report_hash = hash.digest();
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}
