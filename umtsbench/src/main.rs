//! The umtslab benchmark: three workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from traced ones.
//!
//! ```sh
//! cargo run --release --manifest-path umtsbench/Cargo.toml -- \
//!     --workload paper --seed 2008 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it explain the
//! run. See `NOTES.md` for why each workload exists and what each metric
//! should move.

mod child;
mod fleet;
mod host;
mod job;
mod outcome;
mod paper;
mod stats;
mod tcp;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use umtslab::umtslab_traffic::SwitchingPolicy;

use outcome::{op_medians, per_layer, Outcome, PER_LAYER};
use stats::{failed_share, median};
use trace::{SpanId, Tracer};

/// Wall budget of one iteration: a run must end within three minutes.
const ITERATION_BUDGET: Duration = Duration::from_secs(150);

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper", "tcp_switching", "fleet_idle"];

/// Runs one iteration of `workload`.
fn run_workload(workload: &str, seed: u64, tr: &mut Tracer, root: Option<SpanId>) -> Outcome {
    match workload {
        "paper" => paper::run(seed, tr, root),
        "tcp_switching" => tcp::run(seed, tr, root),
        "fleet_idle" => fleet::run(seed, tr, root),
        other => unreachable!("workload {other} was validated"),
    }
}

/// `VmHWM` of this process, in KiB (0 where `/proc` is unavailable).
pub fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: umtsbench --workload <paper|tcp_switching|fleet_idle> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 2008, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value.clone(),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `{"name": {"value": v, "unit": u}, ...}`
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Internal: one TCP cell, run in a child process by `tcp::run`.
    if let [flag, policy, seed, rest @ ..] = &argv[..] {
        if flag == "--cell" {
            let (Some(policy), Ok(seed)) = (SwitchingPolicy::parse(policy), seed.parse()) else {
                eprintln!("--cell <policy> <seed> [--trace 0|1]");
                return ExitCode::from(2);
            };
            let traced = matches!(rest, [t, v] if t == "--trace" && v == "1");
            return tcp::child(policy, seed, traced);
        }
    }
    // Internal: one iteration, run in a child process by `run`.
    let (iteration, argv) = match argv.split_first() {
        Some((flag, rest)) if flag == "--iteration" => (true, rest),
        _ => (false, &argv[..]),
    };
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if iteration {
        let mut tr = Tracer::new(args.trace);
        let root = tr.open("bench.iteration", None, 0);
        let mut out = run_workload(&args.workload, args.seed, &mut tr, root);
        tr.close(root);
        out.hwm_kb = out.hwm_kb.max(vm_hwm_kb());
        print!("{}", wire::render(&out, tr.spans()));
        return ExitCode::SUCCESS;
    }
    run(&args)
}

/// Runs iterations, each in a fresh child process so each starts from
/// the same process state and its peak memory is its own, while another
/// one still fits into `--seconds`; then reports.
fn run(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let origin = Instant::now();
    let mut spans = Tracer::with_origin(args.trace, origin);
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut traced: Vec<(Outcome, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut took: Vec<f64> = Vec::new();
    let seed = args.seed.to_string();
    // Untraced and traced iterations alternate in a traced run, so the
    // overhead compares like with like; an untraced run never traces.
    loop {
        let tracing = args.trace && untraced.len() > traced.len();
        let offset = spans.now_ns();
        let trace = if tracing { "1" } else { "0" };
        let argv = ["--iteration", "--workload", &args.workload, "--seed", &seed, "--trace", trace];
        let started = Instant::now();
        let (wire, why) = child::run(&exe, &argv, ITERATION_BUDGET, ITERATION_BUDGET);
        took.push(started.elapsed().as_secs_f64());
        let out = match (wire.out, why) {
            (Some(out), None) => out,
            (_, why) => {
                eprintln!("error: iteration failed: {}", why.unwrap_or_default());
                return ExitCode::FAILURE;
            }
        };
        println!(
            "iteration {} ({}): wall {:.4} s, setup {:.4} s, steady {:.4} s, host slowdown {:.3} ({:.3} on two threads), {} hops, {} of {} failed, peak {} KiB, fingerprint {:016x}, \
             report {:016x}",
            untraced.len() + traced.len() + 1,
            if tracing { "traced" } else { "untraced" },
            out.wall_s,
            out.setup_s,
            out.steady_s,
            out.slowdown(),
            out.parallel_slowdown(),
            out.steady_hops,
            out.failed_ops,
            out.attempted,
            out.hwm_kb,
            out.fingerprint(),
            out.report_hash,
        );
        if tracing {
            let layers = per_layer(&out, &wire.spans);
            spans.adopt(wire.spans, offset, None);
            traced.push((out, layers));
        } else {
            untraced.push(out);
        }
        // Stop once the next iteration, as long as a typical one, would
        // end after `--seconds`: runs then last about as long whatever
        // an iteration costs.
        let enough = !args.trace || !traced.is_empty();
        if enough && origin.elapsed().as_secs_f64() + median(&took) > args.seconds {
            break;
        }
    }

    let all: Vec<&Outcome> = untraced.iter().chain(traced.iter().map(|(o, _)| o)).collect();
    let first = all[0];
    let consistent = all.iter().all(|o| o.fingerprint() == first.fingerprint());
    let wrong = all.iter().any(|o| o.wrong);
    // Every iteration attempts the same operations, and they compute the
    // same outputs (the fingerprint checks that), so the run counts each
    // operation once however often it ran, and reports the failures of
    // the iteration that had the most.
    let attempted = first.attempted;
    let failed = all.iter().map(|o| o.failed_ops).max().unwrap_or(0);
    let same_ops = all.iter().all(|o| o.attempted == attempted);
    let same_failures = all.iter().all(|o| o.failures == first.failures);
    println!(
        "workload {} seed {}: {} iterations ({} traced), fingerprint {:016x}, report hash {:016x}, \
         {}",
        args.workload,
        args.seed,
        all.len(),
        traced.len(),
        first.fingerprint(),
        first.report_hash,
        if consistent { "identical in every iteration" } else { "DIFFERS between iterations" },
    );
    if !same_ops {
        println!("attempted operations DIFFER between iterations");
    }
    if !same_failures {
        println!("failed operations DIFFER between iterations");
    }
    for why in all.iter().flat_map(|o| &o.failures).collect::<std::collections::BTreeSet<_>>() {
        println!("failed: {why}");
    }
    println!(
        "failed_share {:.4} ({failed} of {attempted} operations, each run {} times)",
        failed_share(attempted, failed),
        all.len()
    );
    for (name, v) in &first.counts {
        println!("count {name} {v}");
    }

    let typical = op_medians(&untraced);
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let traced_wall = op_medians(traced.iter().map(|(o, _)| o)).wall_s;
        println!("tracing overhead: {:+.4} s of wall_s", traced_wall - typical.wall_s);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = if name == "bench.trace_overhead_s" {
                    traced_wall - typical.wall_s
                } else {
                    median(&traced.iter().map(|(_, l)| l[name]).collect::<Vec<_>>())
                };
                (name, v, unit)
            })
            .collect()
    } else {
        let rss = median(&untraced.iter().map(|o| o.hwm_kb as f64 / 1024.0).collect::<Vec<_>>());
        vec![
            ("wall_s", typical.wall_s, "s"),
            ("setup_s", typical.setup_s, "s"),
            ("steady_pkts_per_s", first.steady_hops as f64 / typical.steady_s.max(1e-9), "1/s"),
            ("peak_rss_mb", rss, "MB"),
        ]
    };
    for (name, v, unit) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.render_jsonl()))
        {
            Ok(()) => println!("spans: {} written to {}", spans.spans().len(), path.display()),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        consistent && same_ops && !wrong,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
