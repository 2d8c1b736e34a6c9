//! The line protocol a child process reports an [`Outcome`] with.
//!
//! ```text
//! setup <s>                 once set up (optional, before the rest)
//! progress <sim s>          after each simulated step (optional)
//! outcome <attempted> <failed_ops> <wrong> <wall_s> <setup_s> <steady_s> <steady_hops> <hwm_kb> <report_hash>
//! count <name> <value>
//! cost <path> <ns> <events>
//! op <id> <wall_s> <setup_s> <steady_s>
//! ref <s>                   one timing of the host's reference computation
//! pref <s>                  one timing of the host's parallel reference
//! failure <text>
//! span <name> <start_ns> <end_ns> <parent|-> <op> <lane>
//! error <text>              the child could not produce an outcome
//! done
//! ```
//!
//! Floats are written with `{:?}`, which round-trips exactly, so counts
//! and fingerprints survive the trip unchanged.

use std::fmt::Write as _;

use crate::outcome::{intern, Outcome};
use crate::trace::Span;

/// Renders `out` and `spans` as protocol lines, ending with `done`.
pub fn render(out: &Outcome, spans: &[Span]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "outcome {} {} {} {:?} {:?} {:?} {} {} {}",
        out.attempted,
        out.failed_ops,
        u8::from(out.wrong),
        out.wall_s,
        out.setup_s,
        out.steady_s,
        out.steady_hops,
        out.hwm_kb,
        out.report_hash
    );
    for (name, v) in &out.counts {
        let _ = writeln!(s, "count {name} {v:?}");
    }
    for (path, (ns, events)) in &out.event_cost {
        let _ = writeln!(s, "cost {path} {ns} {events}");
    }
    for (op, t) in &out.ops {
        let _ = writeln!(s, "op {op} {:?} {:?} {:?}", t.wall_s, t.setup_s, t.steady_s);
    }
    for r in &out.refs {
        let _ = writeln!(s, "ref {r:?}");
    }
    for r in &out.parallel_refs {
        let _ = writeln!(s, "pref {r:?}");
    }
    for why in &out.failures {
        let _ = writeln!(s, "failure {}", why.replace('\n', " "));
    }
    for sp in spans {
        let parent = sp.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            s,
            "span {} {} {} {parent} {} {}",
            sp.name, sp.start_ns, sp.end_ns, sp.op, sp.lane
        );
    }
    s.push_str("done\n");
    s
}

/// What has been read from a child so far.
#[derive(Default)]
pub struct Wire {
    /// The outcome, once its `outcome` line arrived.
    pub out: Option<Outcome>,
    /// The child's spans, in its own time base.
    pub spans: Vec<Span>,
    /// Set-up seconds, reported ahead of the outcome.
    pub setup_s: Option<f64>,
    /// Why the child gave up, if it said.
    pub error: Option<String>,
    /// Whether the final `done` arrived.
    pub done: bool,
}

impl Wire {
    /// Takes one protocol line.
    pub fn take_line(&mut self, line: &str) -> Result<(), String> {
        let bad = || format!("malformed child output: {line:?}");
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let f: Vec<&str> = rest.split(' ').collect();
        let num = |v: &str| v.parse::<u64>().map_err(|_| bad());
        let real = |v: &str| v.parse::<f64>().map_err(|_| bad());
        match tag {
            "setup" => self.setup_s = Some(real(rest)?),
            "progress" => {
                real(rest)?;
            }
            "outcome" => {
                let [att, failed, wrong, wall, setup, steady, hops, hwm, hash] = f[..] else {
                    return Err(bad());
                };
                self.out = Some(Outcome {
                    attempted: num(att)?,
                    failed_ops: num(failed)?,
                    wrong: wrong == "1",
                    wall_s: real(wall)?,
                    setup_s: real(setup)?,
                    steady_s: real(steady)?,
                    steady_hops: num(hops)?,
                    hwm_kb: num(hwm)?,
                    report_hash: num(hash)?,
                    ..Outcome::default()
                });
            }
            "count" => {
                let [name, v] = f[..] else { return Err(bad()) };
                let (name, v) = (intern(name).ok_or_else(bad)?, real(v)?);
                self.out.as_mut().ok_or_else(bad)?.count(name, v);
            }
            "cost" => {
                let [path, ns, events] = f[..] else { return Err(bad()) };
                let (path, ns, events) = (intern(path).ok_or_else(bad)?, num(ns)?, num(events)?);
                self.out.as_mut().ok_or_else(bad)?.event_cost(path, ns, events);
            }
            "op" => {
                let [op, wall, setup, steady] = f[..] else { return Err(bad()) };
                let (op, wall, setup, steady) =
                    (num(op)?, real(wall)?, real(setup)?, real(steady)?);
                let op = u32::try_from(op).map_err(|_| bad())?;
                self.out.as_mut().ok_or_else(bad)?.time_op(op, wall, setup, steady);
            }
            "ref" => {
                let r = real(rest)?;
                self.out.as_mut().ok_or_else(bad)?.refs.push(r);
            }
            "pref" => {
                let r = real(rest)?;
                self.out.as_mut().ok_or_else(bad)?.parallel_refs.push(r);
            }
            "failure" => self.out.as_mut().ok_or_else(bad)?.failures.push(rest.to_string()),
            "span" => {
                let [name, start, end, parent, op, lane] = f[..] else { return Err(bad()) };
                self.spans.push(Span {
                    name: intern(name).ok_or_else(bad)?,
                    start_ns: num(start)?,
                    end_ns: num(end)?,
                    parent: if parent == "-" { None } else { Some(num(parent)? as usize) },
                    op: num(op)? as u32,
                    lane: num(lane)? as u32,
                });
            }
            "error" => self.error = Some(rest.to_string()),
            "done" => self.done = true,
            _ => return Err(bad()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_outcome_survives_the_trip() {
        let mut out = Outcome {
            attempted: 3,
            wall_s: 0.1 + 0.2,
            setup_s: 1e-7,
            steady_s: 2.5,
            steady_hops: 99,
            hwm_kb: 7_000,
            report_hash: u64::MAX,
            ..Outcome::default()
        };
        out.count("sim.events", 12_345.0);
        out.count("core.events_per_hop", 1.0 / 3.0);
        out.event_cost("umts", 10, 20);
        out.time_op(4, 0.3, 1e-7, 0.1 + 0.2);
        out.refs = vec![0.004, 0.1 + 0.2];
        out.parallel_refs = vec![0.01];
        out.fail(1, "(aggressive, 9927): no simulated progress".into());
        let spans = vec![
            Span { name: "core.build", start_ns: 1, end_ns: 2, parent: None, op: 4, lane: 0 },
            Span { name: "core.shard", start_ns: 3, end_ns: 9, parent: Some(0), op: 4, lane: 1 },
        ];
        let mut w = Wire::default();
        for line in format!("setup 0.004\nprogress 3\n{}", render(&out, &spans)).lines() {
            w.take_line(line).unwrap();
        }
        let got = w.out.unwrap();
        assert_eq!(got.fingerprint(), out.fingerprint());
        assert_eq!(got.counts, out.counts);
        assert_eq!(got.event_cost, out.event_cost);
        assert_eq!(got.failures, out.failures);
        assert_eq!(got.ops, out.ops);
        assert_eq!((&got.refs, &got.parallel_refs), (&out.refs, &out.parallel_refs));
        assert_eq!((got.attempted, got.failed_ops, got.wrong), (3, 1, false));
        assert_eq!((got.wall_s, got.setup_s, got.steady_s), (out.wall_s, out.setup_s, 2.5));
        assert_eq!((got.steady_hops, got.hwm_kb, got.report_hash), (99, 7_000, u64::MAX));
        assert_eq!(w.spans, spans);
        assert_eq!(w.setup_s, Some(0.004));
        assert!(w.done && w.error.is_none());
    }

    #[test]
    fn malformed_lines_are_refused() {
        let mut w = Wire::default();
        assert!(w.take_line("count sim.events 1.0").is_err(), "count before outcome");
        assert!(w.take_line("outcome 1 2").is_err());
        assert!(w.take_line("op 1 0.5 0.1 0.2").is_err(), "op before outcome");
        assert!(w.take_line("span no.such.span 1 2 - 0 0").is_err());
        assert!(w.take_line("progress x").is_err());
        assert!(w.take_line("bogus").is_err());
        w.take_line("error cannot dial").unwrap();
        assert_eq!(w.error.as_deref(), Some("cannot dial"));
    }
}
