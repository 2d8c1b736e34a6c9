//! What one iteration of a workload measured, and the per-layer names.

use std::collections::BTreeMap;

use umtslab::TestbedMetrics;
use umtslab_verify::determinism::Fnv1a;

use crate::host;
use crate::stats::{failed_share, median, tail_percentile};
use crate::trace::{self, Span};

/// One pass over a workload's operations.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (paper jobs, TCP cells, fleet member sessions).
    pub attempted: u64,
    /// Operations that failed.
    pub failed_ops: u64,
    /// What failed and why, one line per failure.
    pub failures: Vec<String>,
    /// Whether some output failed a correctness check (as opposed to an
    /// error or an overrun budget).
    pub wrong: bool,
    /// Wall seconds from the first build to the verified result.
    pub wall_s: f64,
    /// Wall seconds before measured traffic could flow, summed over jobs.
    pub setup_s: f64,
    /// Wall seconds of the measured phase, summed over completed jobs.
    pub steady_s: f64,
    /// Packet-hops delivered in the measured phase of completed jobs.
    pub steady_hops: u64,
    /// Peak resident set, in KiB: of the process that ran the
    /// iteration, or of the largest child process it started.
    pub hwm_kb: u64,
    /// Deterministic counts: the correctness fingerprint.
    pub counts: BTreeMap<&'static str, f64>,
    /// Host µs per scheduler event by path, from `(steady ns, events)`.
    pub event_cost: BTreeMap<&'static str, (u64, u64)>,
    /// FNV-1a over every completed operation's canonical report.
    pub report_hash: u64,
    /// The phase times of each completed operation, by operation id.
    pub ops: BTreeMap<u32, OpTime>,
    /// Seconds the host's reference computation took, timed between
    /// operations ([`crate::host`]).
    pub refs: Vec<f64>,
    /// Seconds the host's parallel reference took, where an operation's
    /// measured phase runs on two threads.
    pub parallel_refs: Vec<f64>,
}

/// The wall seconds one operation took, by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTime {
    /// From its build to its verified result.
    pub wall_s: f64,
    /// Before measured traffic could flow.
    pub setup_s: f64,
    /// The measured phase.
    pub steady_s: f64,
}

/// Each operation's median over `passes`, phase by phase, summed over
/// operations, with every pass's times first scaled to the nominal host
/// speed: the measured phase divided by its [`Outcome::parallel_slowdown`],
/// the rest of the operation by its [`Outcome::slowdown`].
///
/// Every pass runs the same operations on the same inputs, so an
/// operation's repetitions differ only in what the host did meanwhile.
/// Taking the median per operation, rather than of whole passes, lets
/// each short operation shrug off its own slow repetitions.
pub fn op_medians<'a>(passes: impl IntoIterator<Item = &'a Outcome>) -> OpTime {
    let mut times: BTreeMap<u32, Vec<OpTime>> = BTreeMap::new();
    for pass in passes {
        let (k, kp) = (pass.slowdown(), pass.parallel_slowdown());
        for (&op, t) in &pass.ops {
            let steady_s = t.steady_s / kp;
            let scaled = OpTime {
                wall_s: (t.wall_s - t.steady_s) / k + steady_s,
                setup_s: t.setup_s / k,
                steady_s,
            };
            times.entry(op).or_default().push(scaled);
        }
    }
    let mut sum = OpTime::default();
    for ts in times.values() {
        let of = |f: fn(&OpTime) -> f64| median(&ts.iter().map(f).collect::<Vec<_>>());
        sum.wall_s += of(|t| t.wall_s);
        sum.setup_s += of(|t| t.setup_s);
        sum.steady_s += of(|t| t.steady_s);
    }
    sum
}

impl Outcome {
    /// Records `ops` failed operations, described by `why`.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed_ops += ops;
        self.failures.push(why);
    }

    /// Records `ops` operations whose output failed a correctness check.
    pub fn fail_check(&mut self, ops: u64, why: String) {
        self.wrong = true;
        self.fail(ops, why);
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Folds a testbed counter snapshot into the layer counts.
    pub fn count_metrics(&mut self, m: &TestbedMetrics) {
        self.count("sim.events", m.events as f64);
        self.count("net.access_delivered", m.access.delivered as f64);
        self.count("net.access_dropped", (m.access.dropped_queue + m.access.dropped_loss) as f64);
        self.count("umts.uplink_served", m.uplink.served as f64);
        self.count("umts.uplink_overflow_drops", m.uplink.dropped_overflow as f64);
        self.count("umts.rlc_retx", (m.uplink.retransmissions + m.downlink.retransmissions) as f64);
        self.count("umts.rrc_transitions", m.rrc_transitions as f64);
        self.count("umts.ppp_transitions", m.ppp_transitions as f64);
        self.count("bench.hops", hops(m) as f64);
    }

    /// Adds `(steady ns, events)` to the per-event cost of `path`.
    pub fn event_cost(&mut self, path: &'static str, steady_ns: u64, events: u64) {
        let e = self.event_cost.entry(path).or_insert((0, 0));
        e.0 += steady_ns;
        e.1 += events;
    }

    /// The correctness fingerprint: FNV-1a over every count and the
    /// report hash. Equal across runs of one seed, traced or not.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (name, v) in &self.counts {
            h.update(name.as_bytes());
            h.update(&v.to_bits().to_le_bytes());
        }
        h.update(&self.report_hash.to_le_bytes());
        h.digest()
    }

    /// Times the host's reference computation once and records it.
    pub fn sample_host(&mut self) {
        self.refs.push(host::reference_s());
    }

    /// Times the host's parallel reference once and records it.
    pub fn sample_parallel_host(&mut self) {
        self.parallel_refs.push(host::parallel_reference_s());
    }

    /// How much slower than nominal the host ran during this iteration:
    /// the median reference time over the nominal one (1 if unsampled).
    pub fn slowdown(&self) -> f64 {
        if self.refs.is_empty() {
            1.0
        } else {
            median(&self.refs) / host::NOMINAL_S
        }
    }

    /// The same for two threads, which scales measured phases; the
    /// single-threaded slowdown where the parallel one was not sampled.
    pub fn parallel_slowdown(&self) -> f64 {
        if self.parallel_refs.is_empty() {
            self.slowdown()
        } else {
            median(&self.parallel_refs) / host::PARALLEL_NOMINAL_S
        }
    }

    /// Records the phase times of operation `op`.
    pub fn time_op(&mut self, op: u32, wall_s: f64, setup_s: f64, steady_s: f64) {
        self.ops.insert(op, OpTime { wall_s, setup_s, steady_s });
    }

    /// Folds in an outcome measured elsewhere (a TCP cell) as operation
    /// `op`. Wall time and the report hash stay the caller's to account.
    pub fn merge(&mut self, op: u32, other: Outcome) {
        for t in other.ops.values() {
            self.time_op(op, t.wall_s, t.setup_s, t.steady_s);
        }
        self.refs.extend(other.refs);
        self.parallel_refs.extend(other.parallel_refs);
        self.attempted += other.attempted;
        self.failed_ops += other.failed_ops;
        self.failures.extend(other.failures);
        self.wrong |= other.wrong;
        self.setup_s += other.setup_s;
        self.steady_s += other.steady_s;
        self.steady_hops += other.steady_hops;
        self.hwm_kb = self.hwm_kb.max(other.hwm_kb);
        for (name, v) in other.counts {
            self.count(name, v);
        }
        for (path, (ns, events)) in other.event_cost {
            self.event_cost(path, ns, events);
        }
    }
}

/// Packet-hops in a counter snapshot: access-link deliveries plus radio
/// uplink and downlink serves (the `fleet` bench's definition).
pub fn hops(m: &TestbedMetrics) -> u64 {
    m.access.delivered + m.uplink.served + m.downlink.served
}

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.windows", "count"),
    ("sim.window_us.p50", "us"),
    ("sim.window_us.p99", "us"),
    ("runner.pool_overhead_s", "s"),
    ("core.shard_busy_s", "s"),
    ("core.shard_imbalance", "ratio"),
    ("net.exchange_s", "s"),
    ("core.event_us.umts", "us"),
    ("core.event_us.eth", "us"),
    ("core.build_s", "s"),
    ("umts.dial_s", "s"),
    ("ditg.decode_s", "s"),
    ("core.report_s", "s"),
    ("sim.events", "count"),
    ("core.events_per_hop", "ratio"),
    ("net.access_delivered", "count"),
    ("net.access_dropped", "count"),
    ("umts.uplink_served", "count"),
    ("umts.uplink_overflow_drops", "count"),
    ("umts.rlc_retx", "count"),
    ("umts.rrc_transitions", "count"),
    ("umts.ppp_transitions", "count"),
    ("traffic.tcp_tx", "count"),
    ("traffic.tcp_retx", "count"),
    ("traffic.tcp_timeouts", "count"),
    ("ditg.probes_sent", "count"),
    ("ditg.probes_received", "count"),
    ("ditg.rtts", "count"),
    ("net.copy_bytes_per_hop", "B/hop"),
    ("bench.failed_share", "share"),
    ("bench.trace_overhead_s", "s"),
];

/// Names that are counted or traced but not printed as metrics.
const INTERNAL: &[&str] = &[
    "bench.hops",
    "bench.copy_bytes",
    "bench.iteration",
    "bench.job",
    "bench.cell",
    "core.build",
    "umts.dial",
    "core.steady",
    "core.report",
    "ditg.decode",
    "sim.drive",
    "sim.window",
    "core.shard",
];

/// The paths [`Outcome::event_cost`] is kept for.
pub const PATHS: &[&str] = &["umts", "eth"];

/// The static name equal to `name`, if it is one this benchmark uses.
pub fn intern(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .chain(INTERNAL.iter().copied())
        .chain(PATHS.iter().copied())
        .find(|&n| n == name)
}

/// The per-layer metrics of one traced iteration: timings from its
/// spans (all of them, so parent indices hold), plus its counts.
/// Metrics a workload has no layer for are 0.
pub fn per_layer(out: &Outcome, spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for (&name, &v) in &out.counts {
        if let Some(slot) = m.get_mut(name) {
            *slot = v;
        }
    }
    m.insert("bench.failed_share", failed_share(out.attempted, out.failed_ops));
    let hops = out.counts.get("bench.hops").copied().unwrap_or(0.0);
    if hops > 0.0 {
        m.insert("core.events_per_hop", m["sim.events"] / hops);
        let copied = out.counts.get("bench.copy_bytes").copied().unwrap_or(0.0);
        m.insert("net.copy_bytes_per_hop", copied / hops);
    }
    for (path, key) in [("umts", "core.event_us.umts"), ("eth", "core.event_us.eth")] {
        if let Some(&(ns, events)) = out.event_cost.get(path) {
            m.insert(key, ns as f64 / 1e3 / events.max(1) as f64);
        }
    }
    m.insert("core.build_s", trace::total_s(spans, "core.build"));
    m.insert("umts.dial_s", trace::total_s(spans, "umts.dial"));
    m.insert("ditg.decode_s", trace::total_s(spans, "ditg.decode"));
    m.insert("core.report_s", trace::total_s(spans, "core.report"));
    m.insert("net.exchange_s", trace::self_s(spans, "sim.drive"));

    // Windows: the runner call per window, shards as its children.
    let mut window_us = Vec::new();
    let mut overhead_ns = 0u64;
    let mut slowest: BTreeMap<usize, u64> = BTreeMap::new();
    let mut lane_busy: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "core.shard") {
        *lane_busy.entry(s.lane).or_insert(0) += s.dur_ns();
        if let Some(p) = s.parent {
            let w = slowest.entry(p).or_insert(0);
            *w = (*w).max(s.dur_ns());
        }
    }
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == "sim.window") {
        window_us.push(s.dur_ns() as f64 / 1e3);
        overhead_ns += s.dur_ns().saturating_sub(slowest.get(&i).copied().unwrap_or(0));
    }
    // The window count is the sample count: `sim.windows`.
    for (key, pct) in [("sim.window_us.p50", 50.0), ("sim.window_us.p99", 99.0)] {
        if let Some(v) = tail_percentile(&window_us, pct) {
            m.insert(key, v);
        }
    }
    m.insert("runner.pool_overhead_s", overhead_ns as f64 / 1e9);
    let busy: u64 = lane_busy.values().sum();
    m.insert("core.shard_busy_s", busy as f64 / 1e9);
    if !lane_busy.is_empty() && busy > 0 {
        let mean = busy as f64 / lane_busy.len() as f64;
        let max = lane_busy.values().copied().max().unwrap_or(0) as f64;
        m.insert("core.shard_imbalance", max / mean);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        lane: u32,
    ) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1, lane }
    }

    #[test]
    fn window_spans_give_pool_overhead_exchange_and_imbalance() {
        let spans = vec![
            span("sim.drive", 0, 1_000, None, 0),
            span("sim.window", 100, 400, Some(0), 0),
            span("core.shard", 120, 300, Some(1), 0),
            span("core.shard", 110, 350, Some(1), 1),
            span("sim.window", 500, 900, Some(0), 0),
            span("core.shard", 510, 800, Some(4), 0),
            span("core.shard", 520, 600, Some(4), 1),
        ];
        let out = Outcome { attempted: 4, failed_ops: 1, ..Outcome::default() };
        let m = per_layer(&out, &spans);
        // Runner wall minus the slowest shard: (300 - 240) + (400 - 290).
        assert_eq!(m["runner.pool_overhead_s"], 170e-9);
        // Drive time outside any window: 1000 - 300 - 400.
        assert_eq!(m["net.exchange_s"], 300e-9);
        // Lane 0 busy 180 + 290 = 470, lane 1 240 + 80 = 320.
        assert_eq!(m["core.shard_busy_s"], 790e-9);
        assert!((m["core.shard_imbalance"] - 470.0 / 395.0).abs() < 1e-12);
        assert_eq!(m["bench.failed_share"], 0.25);
        // Two windows are too few for a percentile with 10 beyond it.
        assert_eq!(m["sim.window_us.p99"], 0.0);
        assert_eq!(m.len(), PER_LAYER.len());
    }

    #[test]
    fn counts_become_ratios_per_hop() {
        let mut out = Outcome { attempted: 1, ..Outcome::default() };
        out.count("sim.events", 200.0);
        out.count("bench.hops", 10.0);
        out.count("bench.copy_bytes", 1_000.0);
        out.event_cost("umts", 5_000, 10);
        let m = per_layer(&out, &[]);
        assert_eq!(m["core.events_per_hop"], 20.0);
        assert_eq!(m["net.copy_bytes_per_hop"], 100.0);
        assert_eq!(m["core.event_us.umts"], 0.5);
        assert_eq!(m["core.event_us.eth"], 0.0);
    }

    #[test]
    fn op_medians_take_each_operation_and_phase_at_its_median() {
        let mut passes = vec![Outcome::default(), Outcome::default(), Outcome::default()];
        for (pass, (wall, setup, steady)) in
            passes.iter_mut().zip([(1.0, 0.2, 0.7), (9.0, 0.1, 0.5), (2.0, 0.3, 0.6)])
        {
            pass.time_op(1, wall, setup, steady);
        }
        // Op 2 completed in two passes only: the mean of the middle two.
        passes[0].time_op(2, 3.0, 0.0, 2.0);
        passes[2].time_op(2, 5.0, 0.0, 3.0);
        let t = op_medians(&passes);
        assert_eq!(t, OpTime { wall_s: 2.0 + 4.0, setup_s: 0.2, steady_s: 0.6 + 2.5 });
        assert_eq!(op_medians([]), OpTime::default());
    }

    #[test]
    fn op_medians_scale_each_pass_to_the_nominal_host() {
        let mut slow = Outcome { refs: vec![host::NOMINAL_S * 2.0; 3], ..Outcome::default() };
        slow.time_op(1, 4.0, 1.0, 2.0);
        assert_eq!(slow.slowdown(), 2.0);
        assert_eq!(op_medians([&slow]), OpTime { wall_s: 2.0, setup_s: 0.5, steady_s: 1.0 });
        let unsampled = Outcome::default();
        assert_eq!((unsampled.slowdown(), unsampled.parallel_slowdown()), (1.0, 1.0));
        // A parallel measured phase scales by the parallel slowdown.
        slow.parallel_refs = vec![host::PARALLEL_NOMINAL_S * 4.0];
        assert_eq!(op_medians([&slow]), OpTime { wall_s: 1.5, setup_s: 0.5, steady_s: 0.5 });
    }

    #[test]
    fn fingerprint_sees_counts_and_report() {
        let mut a = Outcome::default();
        a.count("sim.events", 1.0);
        let mut b = Outcome::default();
        b.count("sim.events", 1.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.report_hash = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(intern("core.shard"), Some("core.shard"));
        assert_eq!(intern("nope"), None);
    }
}
