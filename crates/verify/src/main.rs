//! `umtslab-verify` — CI entry point for the static isolation verifier.
//!
//! ```text
//! umtslab-verify --all-scenarios [--json]   verify every canned scenario
//! umtslab-verify --scenario NAME [--json]   verify one scenario
//! umtslab-verify --determinism              run-twice campaign hash gate
//! umtslab-verify --chaos [--json]           supervised chaos campaign gate
//! umtslab-verify --chaos-determinism        run-twice chaos hash gate
//! umtslab-verify --list                     list scenario names
//! ```
//!
//! Exit status is 0 when every scenario meets its expectation (correct
//! nodes clean, seeded bugs detected with exactly the expected invariant
//! kinds) *and* every replayed witness agrees with the live simulator;
//! 1 otherwise. `--determinism` exits 0 iff two full campaign runs hash
//! identically. `--chaos` exits 0 iff the campaign recovered every drop
//! cleanly and scheduled no event into the past.

use std::process::ExitCode;

use umtslab_verify::differential::replay_witnesses;
use umtslab_verify::invariants::analyze;
use umtslab_verify::report::{render_json, render_table};
use umtslab_verify::scenarios::{self, Scenario, SCENARIO_NAMES};
use umtslab_verify::{chaos, determinism, Analysis};

struct Options {
    all: bool,
    scenario: Option<String>,
    json: bool,
    determinism: bool,
    chaos: bool,
    chaos_determinism: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        all: false,
        scenario: None,
        json: false,
        determinism: false,
        chaos: false,
        chaos_determinism: false,
        list: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all-scenarios" => opts.all = true,
            "--scenario" => {
                i += 1;
                let name = args.get(i).ok_or("--scenario requires a name")?;
                opts.scenario = Some(name.clone());
            }
            "--json" => opts.json = true,
            "--determinism" => opts.determinism = true,
            "--chaos" => opts.chaos = true,
            "--chaos-determinism" => opts.chaos_determinism = true,
            "--list" => opts.list = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if !opts.all
        && opts.scenario.is_none()
        && !opts.determinism
        && !opts.chaos
        && !opts.chaos_determinism
        && !opts.list
    {
        return Err("nothing to do: pass --all-scenarios, --scenario NAME, \
                    --determinism, --chaos, --chaos-determinism or --list"
            .to_string());
    }
    Ok(opts)
}

fn print_help() {
    println!(
        "umtslab-verify — static slice-isolation verifier\n\n\
         USAGE:\n  umtslab-verify --all-scenarios [--json]\n  \
         umtslab-verify --scenario NAME [--json]\n  \
         umtslab-verify --determinism\n  umtslab-verify --chaos [--json]\n  \
         umtslab-verify --chaos-determinism\n  umtslab-verify --list\n\n\
         Scenarios: {}",
        SCENARIO_NAMES.join(", ")
    );
}

/// Verifies one scenario end to end: analyze, check the expectation both
/// ways, replay every witness differentially. Returns the analysis plus
/// whether the scenario passed.
fn verify_scenario(mut scenario: Scenario) -> (Analysis, bool) {
    let analysis = analyze(&scenario.node);
    let kinds = analysis.kinds();
    let expectation_met = scenario.expected.iter().all(|k| kinds.contains(k))
        && kinds.iter().all(|k| scenario.expected.contains(k));
    let diff = replay_witnesses(&mut scenario.node, scenario.now, &analysis);
    if !expectation_met {
        eprintln!(
            "{}: expected invariants {:?}, analyzer reported {:?}",
            scenario.name,
            scenario.expected.iter().map(|k| k.name()).collect::<Vec<_>>(),
            kinds.iter().map(|k| k.name()).collect::<Vec<_>>()
        );
    }
    for replay in diff.replays.iter().filter(|r| !r.agrees) {
        eprintln!(
            "{}: differential mismatch: static {} vs live {} for src={} dst={}:{}",
            scenario.name,
            replay.witness.verdict.label(),
            replay.live.label(),
            replay.witness.class.src,
            replay.witness.class.dst,
            replay.witness.class.dport
        );
    }
    (analysis, expectation_met && diff.all_agree())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_help();
            return ExitCode::FAILURE;
        }
    };

    if opts.list {
        for name in SCENARIO_NAMES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }

    if opts.determinism {
        let check = determinism::check();
        println!(
            "determinism: run1={:016x} run2={:016x} -> {}",
            check.first,
            check.second,
            if check.deterministic() { "identical" } else { "DIVERGED" }
        );
        return if check.deterministic() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if opts.chaos {
        let check = chaos::run(chaos::DEFAULT_SEED);
        if opts.json {
            println!("{}", check.render_json());
        } else {
            println!("{}", check.render_line());
            for v in &check.violations {
                eprintln!("chaos violation: {v}");
            }
        }
        return if check.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if opts.chaos_determinism {
        let check = chaos::check(chaos::DEFAULT_SEED);
        println!(
            "chaos-determinism: run1={:016x} run2={:016x} -> {}",
            check.first,
            check.second,
            if check.deterministic() { "identical" } else { "DIVERGED" }
        );
        return if check.deterministic() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let names: Vec<&str> = if opts.all {
        SCENARIO_NAMES.to_vec()
    } else {
        vec![opts.scenario.as_deref().unwrap_or_default()]
    };

    let mut analyses = Vec::new();
    let mut ok = true;
    for name in names {
        let Some(scenario) = scenarios::build(name) else {
            eprintln!("error: unknown scenario '{name}' (try --list)");
            return ExitCode::FAILURE;
        };
        let expect_clean = scenario.expected.is_empty();
        let (analysis, passed) = verify_scenario(scenario);
        if !opts.json {
            println!(
                "scenario {name} ({}): {}",
                if expect_clean { "expected clean" } else { "seeded bug" },
                if passed { "pass" } else { "FAIL" }
            );
            print!("{}", render_table(&analysis));
        }
        analyses.push(analysis);
        ok &= passed;
    }
    if opts.json {
        print!("{}", render_json(&analyses));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
