//! The sharded testbed core: one coupled topology across N schedulers.
//!
//! [`ShardedTestbed`] partitions the nodes of one topology across N
//! [`Shard`]s. Each shard owns an independent [`Scheduler`] plus the full
//! state of its nodes (access links, traffic agents, payload pool);
//! packets that cross the internet core between two nodes — even two
//! nodes of the *same* shard — travel as [`Handoff`]s through per-shard
//! mailboxes, exchanged at conservative window boundaries
//! ([`umtslab_sim::shard::drive`]).
//!
//! ## Shard-count invariance
//!
//! Results are byte-identical for any shard count because nothing a shard
//! computes depends on what the partition looks like:
//!
//! * **randomness** is per entity, never per shard: each node's link
//!   jitter/fault draws come from a private stream seeded by the node's
//!   *global* index, and each UMTS attachment and traffic sender is
//!   seeded the same way ([`umtslab_sim::rng::job_seed`]);
//! * **packet ids** are allocated per node, so an echo reply's id is a
//!   function of the allocating node's history, not of shard layout;
//! * **cross-node traffic** always goes through the mailbox with the
//!   canonical `(at, origin, seq)` merge order — the origin *node* is the
//!   tie-break lane precisely because a node's shard assignment is not
//!   layout-invariant but its global index is;
//! * **window boundaries** sit on fixed multiples of the lookahead
//!   ([`umtslab_sim::shard::window_ends`]), so injection instants do not
//!   move when the shard count or run phasing changes. Windows in which
//!   no shard has an event or a staged handoff are skipped
//!   ([`Shard`]'s `next_due` is its next event or inbox entry); the
//!   windows that run keep their grid boundaries, and which ones run
//!   depends on the whole simulation, not on the partition
//!   ([`ShardedTestbed::windows`] is the same at every shard count).
//!
//! The conservative lookahead is `min(access link delay, core hop)`: every
//! cross-node path takes at least one access-link traversal (or the
//! operator-edge→core hop for UMTS uplinks), so a handoff produced in
//! window `k` is never due before window `k+1`.
//!
//! ## One loop, two core policies
//!
//! A shard runs the same event loop as [`crate::testbed::Testbed`]
//! (`crate::engine`, which also arms every node at the start of each
//! run call). Only its core policy differs: per-node randomness and
//! packet ids (above), routing through static tables of global owners
//! into the outbox, and an explicit operator-edge→core hop
//! ([`ShardedTestbed::CORE_HOP`]) where the testbed uses zero — which
//! would make the safe lookahead zero; a real GGSN's internet edge is not
//! co-located with the research backbone either.

use std::collections::BTreeMap;
use std::sync::Arc;

use umtslab_ditg::{FlowSpec, RecvRecord, RttRecord, SentRecord, TrafficSender};
use umtslab_net::label::Label;
use umtslab_net::link::LinkConfig;
use umtslab_net::mailbox::{Handoff, HandoffKind, Inbox, Outbox};
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::Node;
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::rng::{job_seed, SimRng};
use umtslab_sim::sched::Scheduler;
use umtslab_sim::shard::{drive, ShardScheduler};
use umtslab_sim::time::{Duration, Instant};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::UmtsAttachment;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

use crate::engine::{carve_subscriber, CorePolicy, Engine, Ev, SenderAgent, ROUTED_SRC};
use crate::testbed::{TestbedDrops, TestbedMetrics};

/// Handle to a node of a [`ShardedTestbed`] (its global index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalNodeId(pub usize);

/// Handle to a traffic agent of a [`ShardedTestbed`] (its global index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalAgentId(pub usize);

/// Seed-domain tags separating the per-entity randomness streams. Mixed
/// into the master seed before [`job_seed`] folds in the entity index.
const DOMAIN_NODE: u64 = 0x6e6f_6465; // "node"
const DOMAIN_ATTACH: u64 = 0x6174_7463; // "attc"
const DOMAIN_FLOW: u64 = 0x666c_6f77; // "flow"

/// Static routing state shared (read-only) by every shard: which global
/// node owns an address.
#[derive(Debug, Default, Clone)]
struct RouteTables {
    /// Exact `eth0` address → global node.
    eth: BTreeMap<u32, u32>,
    /// Carved per-subscriber `/24` (address bits `>> 8`) → global node.
    umts24: BTreeMap<u32, u32>,
}

impl RouteTables {
    fn lookup(&self, dst: Ipv4Address) -> Option<(u32, HandoffKind)> {
        let raw = u32::from_be_bytes(dst.0);
        if let Some(&g) = self.eth.get(&raw) {
            return Some((g, HandoffKind::Wire));
        }
        if let Some(&g) = self.umts24.get(&(raw >> 8)) {
            return Some((g, HandoffKind::Umts));
        }
        None
    }
}

/// A shard's core policy: per-node streams, table routing into the
/// outbox, and the explicit operator-edge hop.
struct Partition {
    /// This shard's index and the total shard count (the partition is
    /// `global % nshards == shard`, so `local = global / nshards`).
    shard: usize,
    nshards: usize,
    /// Per-node RNG driving that node's access-link jitter/fault draws.
    /// Seeded from the node's global index: shard-layout invariant.
    link_rng: Vec<SimRng>,
    /// Per-node packet-id allocator (ids appear in traces; a shared
    /// allocator would leak shard layout into them).
    ids: Vec<PacketIdAllocator>,
    routes: Arc<RouteTables>,
    outbox: Outbox,
}

impl CorePolicy for Partition {
    const EDGE_HOP: Duration = ShardedTestbed::CORE_HOP;

    fn link_rng(&mut self, node: usize) -> &mut SimRng {
        &mut self.link_rng[node]
    }

    fn ids(&mut self, node: usize) -> &mut PacketIdAllocator {
        &mut self.ids[node]
    }

    fn cross(&mut self, _: &mut Scheduler<Ev>, at: Instant, origin: usize, p: Packet) -> bool {
        let Some((dst, kind)) = self.routes.lookup(p.dst.addr) else {
            return false;
        };
        // Mailbox lanes are keyed by the origin's global index.
        self.outbox.push(at, (origin * self.nshards + self.shard) as u32, dst, kind, p);
        true
    }
}

/// One partition of a [`ShardedTestbed`]: a scheduler plus the complete
/// state of the nodes it owns.
pub struct Shard {
    engine: Engine<Partition>,
    inbox: Inbox,
    /// Handoffs that reached this shard after their due instant and were
    /// clamped into the present; 0 in a correct run.
    late_handoffs: u64,
}

impl Shard {
    fn new(shard: usize, nshards: usize) -> Shard {
        let policy = Partition {
            shard,
            nshards,
            link_rng: Vec::new(),
            ids: Vec::new(),
            routes: Arc::new(RouteTables::default()),
            outbox: Outbox::new(),
        };
        Shard { engine: Engine::new(policy), inbox: Inbox::new(), late_handoffs: 0 }
    }

    /// Schedules every staged handoff due before `horizon`, in canonical
    /// merge order (the scheduler's FIFO tie-break preserves it).
    fn inject_due(&mut self, horizon: Instant) {
        let (shard, nshards) = (self.engine.policy.shard, self.engine.policy.nshards);
        let now = self.engine.sched.now();
        for h in self.inbox.due_before(horizon) {
            debug_assert_eq!(h.dst as usize % nshards, shard, "misrouted handoff");
            debug_assert!(h.at >= now, "handoff due before the window it reached");
            // Release builds clamp instead of panicking; count it so the
            // gates can fail on it.
            if h.at < now {
                self.late_handoffs += 1;
            }
            let node = h.dst / nshards as u32;
            let ev = Ev::CoreDeliver { node, kind: h.kind, packet: h.packet };
            self.engine.sched.at(h.at.max(now), ev);
        }
    }
}

impl ShardScheduler for Shard {
    fn now(&self) -> Instant {
        self.engine.sched.now()
    }

    fn next_due(&mut self) -> Option<Instant> {
        self.engine.sched.peek_time().into_iter().chain(self.inbox.earliest()).min()
    }

    fn run_window(&mut self, horizon: Instant) {
        self.inject_due(horizon);
        self.engine.run_until(horizon);
    }
}

/// One coupled topology partitioned across N deterministic schedulers.
///
/// The public surface mirrors [`crate::testbed::Testbed`] with global
/// node/agent handles; [`ShardedTestbed::run_until`] drives the shards
/// serially, [`ShardedTestbed::run_until_with`] hands the per-window
/// fan-out to the caller (e.g. a worker pool) — both produce identical
/// bytes for any shard count.
pub struct ShardedTestbed {
    seed: u64,
    shards: Vec<Shard>,
    /// (shard, local index) of every global agent, in creation order.
    agent_dir: Vec<(usize, usize)>,
    routes: RouteTables,
    /// Subscribers attached per operator name (global carve order).
    operator_subscribers: BTreeMap<Label, u32>,
    /// Minimum access-link delay seen so far; part of the lookahead.
    min_access_delay: Option<Duration>,
    clock: Instant,
    /// Windows run so far, over every run call.
    windows: u64,
}

impl ShardedTestbed {
    /// One-way latency of the operator-edge→core hop taken by UMTS uplink
    /// traffic. Explicit (unlike the single-testbed core, which uses
    /// zero) so the conservative lookahead stays positive.
    pub const CORE_HOP: Duration = Duration::from_millis(6);

    /// Creates an empty sharded testbed with `nshards` partitions.
    pub fn new(nshards: usize, seed: u64) -> ShardedTestbed {
        assert!(nshards >= 1, "at least one shard");
        ShardedTestbed {
            seed,
            shards: (0..nshards).map(|s| Shard::new(s, nshards)).collect(),
            agent_dir: Vec::new(),
            routes: RouteTables::default(),
            operator_subscribers: BTreeMap::new(),
            min_access_delay: None,
            clock: Instant::ZERO,
            windows: 0,
        }
    }

    /// Current simulated time (all shards agree at window boundaries).
    pub fn now(&self) -> Instant {
        self.clock
    }

    /// The conservative lookahead: `min(access delay, core hop)`. Every
    /// cross-node path crosses at least one of the two.
    pub fn lookahead(&self) -> Duration {
        let la = self.min_access_delay.map_or(Self::CORE_HOP, |d| d.min(Self::CORE_HOP));
        assert!(la > Duration::ZERO, "zero-latency access link breaks the lookahead");
        la
    }

    fn shard_of(&self, global: usize) -> (usize, usize) {
        (global % self.shards.len(), global / self.shards.len())
    }

    /// Adds a node (global round-robin assignment to shards). Mirrors
    /// [`crate::testbed::Testbed::add_node`].
    pub fn add_node(
        &mut self,
        name: impl Into<Label>,
        eth_addr: Ipv4Address,
        subnet: Ipv4Cidr,
        gateway: Ipv4Address,
        access: LinkConfig,
    ) -> GlobalNodeId {
        assert!(access.delay > Duration::ZERO, "sharded access links need positive delay");
        let global = self.shards.iter().map(|s| s.engine.nodes.len()).sum();
        let (shard, _) = self.shard_of(global);
        let mut node = Node::new(name);
        node.configure_eth(eth_addr, subnet, gateway);
        self.min_access_delay =
            Some(self.min_access_delay.map_or(access.delay, |d| d.min(access.delay)));
        let seed = job_seed(self.seed ^ DOMAIN_NODE, global as u64);
        let engine = &mut self.shards[shard].engine;
        engine.add_node(node, access);
        engine.policy.link_rng.push(SimRng::seed_from_u64(seed));
        engine.policy.ids.push(PacketIdAllocator::new());
        self.routes.eth.insert(u32::from_be_bytes(eth_addr.0), global as u32);
        GlobalNodeId(global)
    }

    /// Installs a 3G card + operator attachment on a node, carving the
    /// subscriber's `/24` by global attach order (layout-invariant) and
    /// routing it to the node.
    pub fn attach_umts(
        &mut self,
        node: GlobalNodeId,
        mut operator: OperatorProfile,
        device: DeviceProfile,
        credentials: Option<Credentials>,
    ) {
        carve_subscriber(&mut self.operator_subscribers, &mut operator);
        let raw24 = u32::from_be_bytes(operator.pool.address().0) >> 8;
        self.routes.umts24.insert(raw24, node.0 as u32);
        let seed = job_seed(self.seed ^ DOMAIN_ATTACH, node.0 as u64);
        let att = UmtsAttachment::new(operator, device, credentials, seed, self.clock);
        self.node_mut(node).attach_umts(att);
    }

    /// Shared access to a node.
    pub fn node(&self, id: GlobalNodeId) -> &Node {
        let (shard, local) = self.shard_of(id.0);
        &self.shards[shard].engine.nodes[local]
    }

    /// Mutable access to a node (for slices, vsys, bindings).
    pub fn node_mut(&mut self, id: GlobalNodeId) -> &mut Node {
        let (shard, local) = self.shard_of(id.0);
        &mut self.shards[shard].engine.nodes[local]
    }

    /// Adds a traffic sender on `node`/`slice` toward `dst_addr`; the
    /// flow's RNG is seeded by its global agent index.
    pub fn add_sender(
        &mut self,
        node: GlobalNodeId,
        slice: SliceId,
        spec: FlowSpec,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> GlobalAgentId {
        let global_agent = self.agent_dir.len();
        let flow_id = global_agent as u32 + 1;
        let seed = job_seed(self.seed ^ DOMAIN_FLOW, global_agent as u64);
        let (shard, local) = self.shard_of(node.0);
        let sport = spec.sport;
        let agent = SenderAgent::OpenLoop(TrafficSender::new(
            spec, flow_id, ROUTED_SRC, dst_addr, start, seed,
        ));
        let idx = self.shards[shard].engine.add_sender(local, slice, sport, agent, start);
        self.agent_dir.push((shard, idx));
        GlobalAgentId(global_agent)
    }

    /// Adds a traffic receiver on `node`/`slice` listening on `port` for
    /// flow `of_sender`.
    pub fn add_receiver(
        &mut self,
        node: GlobalNodeId,
        slice: SliceId,
        port: u16,
        of_sender: GlobalAgentId,
        echo: bool,
    ) -> GlobalAgentId {
        let flow_id = of_sender.0 as u32 + 1;
        let (shard, local) = self.shard_of(node.0);
        let idx = self.shards[shard].engine.add_receiver(local, slice, port, flow_id, echo);
        self.agent_dir.push((shard, idx));
        GlobalAgentId(self.agent_dir.len() - 1)
    }

    /// The sender-side logs of an agent.
    pub fn sender_logs(&self, id: GlobalAgentId) -> (&[SentRecord], &[RttRecord]) {
        let (shard, local) = self.agent_dir[id.0];
        self.shards[shard].engine.sender_logs(local)
    }

    /// The receive log of an agent.
    pub fn receiver_records(&self, id: GlobalAgentId) -> &[RecvRecord] {
        let (shard, local) = self.agent_dir[id.0];
        self.shards[shard].engine.receiver_records(local)
    }

    /// Drop counters summed across shards (order-independent).
    pub fn drops(&self) -> TestbedDrops {
        self.metrics().drops
    }

    /// Events clamped into the present across all shards' schedulers
    /// (see `Scheduler::late_schedules`); 0 in a correct run.
    pub fn late_schedules(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.sched.late_schedules()).sum()
    }

    /// Cross-shard handoffs that reached their shard after their due
    /// instant and were clamped into the present; 0 in a correct run
    /// (the lookahead guarantees it).
    pub fn late_handoffs(&self) -> u64 {
        self.shards.iter().map(|s| s.late_handoffs).sum()
    }

    /// Windows run so far, over every run call: the grid windows in which
    /// some shard had an event or a staged handoff, plus one final window
    /// per call whose last grid window was idle. Shard-count invariant;
    /// not part of [`TestbedMetrics`].
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Snapshots every layer's counters, summed across shards.
    pub fn metrics(&self) -> TestbedMetrics {
        let mut m = TestbedMetrics::default();
        for s in &self.shards {
            s.engine.absorb_metrics(&mut m);
        }
        m
    }

    /// Runs until `horizon`, advancing the shards serially.
    pub fn run_until(&mut self, horizon: Instant) {
        self.run_until_with(horizon, |shards, end| {
            for s in shards.iter_mut() {
                s.run_window(end);
            }
        });
    }

    /// Runs for a relative span (serially).
    pub fn run_for(&mut self, span: Duration) {
        let horizon = self.clock + span;
        self.run_until(horizon);
    }

    /// Runs until `horizon`, letting the caller fan each window out over
    /// the shards (`run(shards, end)` must advance every shard to `end`;
    /// order and parallelism are free). `run` is called only for the
    /// windows in which something is due, and once more to reach the
    /// horizon if the last of them ends before it. Message exchange
    /// happens here, on the caller's thread, at every boundary.
    pub fn run_until_with(&mut self, horizon: Instant, run: impl FnMut(&mut [Shard], Instant)) {
        if horizon <= self.clock {
            return;
        }
        // Publish the route tables and arm every node once per run call,
        // before any handoff is injected (per window would re-walk every
        // node every 6 ms).
        let routes = Arc::new(self.routes.clone());
        for s in &mut self.shards {
            s.engine.policy.routes = Arc::clone(&routes);
            s.engine.arm_all();
        }
        let lookahead = self.lookahead();
        let nshards = self.shards.len();
        let ran = drive(&mut self.shards, self.clock, horizon, lookahead, run, |shards, _end| {
            // Exchange: route every staged handoff to its owning shard's
            // inbox. Collection order is irrelevant — each inbox re-sorts
            // into canonical order before injecting.
            let mut batches: Vec<Vec<Handoff>> = (0..nshards).map(|_| Vec::new()).collect();
            for s in shards.iter_mut() {
                for h in s.engine.policy.outbox.take() {
                    batches[h.dst as usize % nshards].push(h);
                }
            }
            for (s, batch) in shards.iter_mut().zip(batches) {
                if !batch.is_empty() {
                    s.inbox.accept(batch);
                }
            }
        });
        self.windows += ran;
        self.clock = horizon;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest};

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn wired_pair(nshards: usize, seed: u64) -> (ShardedTestbed, GlobalNodeId, GlobalNodeId) {
        let mut tb = ShardedTestbed::new(nshards, seed);
        let access = LinkConfig::wired(100_000_000, Duration::from_millis(6));
        let n1 = tb.add_node(
            "napoli",
            a("143.225.229.5"),
            "143.225.229.0/24".parse().unwrap(),
            a("143.225.229.1"),
            access.clone(),
        );
        let n2 = tb.add_node(
            "inria",
            a("138.96.20.10"),
            "138.96.20.0/24".parse().unwrap(),
            a("138.96.20.1"),
            access,
        );
        (tb, n1, n2)
    }

    fn wired_flow_trace(nshards: usize) -> Vec<(u32, u64)> {
        let (mut tb, n1, n2) = wired_pair(nshards, 1);
        let s_tx = tb.node_mut(n1).slices.create("tx");
        let s_rx = tb.node_mut(n2).slices.create("rx");
        let spec = FlowSpec::cbr(80_000, 100, Duration::from_secs(2));
        let dport = spec.dport;
        let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::from_millis(100));
        let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_until(Instant::from_secs(5));
        let (sent, rtts) = tb.sender_logs(tx);
        assert_eq!(sent.len(), 200, "100 pps * 2 s");
        assert_eq!(rtts.len(), 200, "every probe echoed");
        tb.receiver_records(rx).iter().map(|r| (r.seq, r.rx.total_micros())).collect()
    }

    #[test]
    fn wired_flow_end_to_end_across_shards() {
        let t1 = wired_flow_trace(1);
        assert_eq!(t1.len(), 200, "wired path loses nothing");
        for n in [2, 3] {
            assert_eq!(wired_flow_trace(n), t1, "shard count {n} must not change the trace");
        }
    }

    #[test]
    fn umts_flow_end_to_end_sharded() {
        let (mut tb, n1, n2) = wired_pair(2, 2);
        tb.attach_umts(
            n1,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        let s_umts = tb.node_mut(n1).slices.create("unina_umts");
        tb.node_mut(n1).grant_umts_access(s_umts);
        let s_rx = tb.node_mut(n2).slices.create("rx");

        tb.node_mut(n1).vsys_submit(s_umts, UmtsRequest::Start).unwrap();
        tb.run_until(Instant::from_secs(15));
        assert_eq!(tb.node(n1).umts_status().phase, UmtsPhase::Up);

        tb.node_mut(n1)
            .vsys_submit(s_umts, UmtsRequest::AddDestination(Ipv4Cidr::host(a("138.96.20.10"))))
            .unwrap();
        tb.run_for(Duration::from_millis(100));

        let start = tb.now() + Duration::from_millis(500);
        let spec = FlowSpec::cbr(64_000, 100, Duration::from_secs(3));
        let dport = spec.dport;
        let tx = tb.add_sender(n1, s_umts, spec, a("138.96.20.10"), start);
        let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_for(Duration::from_secs(10));

        let (sent, rtts) = tb.sender_logs(tx);
        let recv = tb.receiver_records(rx);
        assert_eq!(sent.len(), 240, "80 pps * 3 s");
        assert!(recv.len() > 220, "light flow mostly survives: {}", recv.len());
        assert!(!rtts.is_empty());
        let mean_rtt: u64 =
            rtts.iter().map(|r| r.rtt.total_micros()).sum::<u64>() / rtts.len() as u64;
        assert!(mean_rtt > 150_000, "umts rtt {mean_rtt}us should be >150ms");
    }

    #[test]
    fn phased_runs_match_unphased_runs() {
        // Stopping and restarting mid-simulation must not change results:
        // the window boundaries are absolute, not phase-relative.
        let run = |phased: bool| {
            let (mut tb, n1, n2) = wired_pair(2, 11);
            let s_tx = tb.node_mut(n1).slices.create("tx");
            let s_rx = tb.node_mut(n2).slices.create("rx");
            let spec = FlowSpec::poisson(150.0, 200, Duration::from_secs(2));
            let dport = spec.dport;
            let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::ZERO);
            let rx = tb.add_receiver(n2, s_rx, dport, tx, false);
            if phased {
                tb.run_until(Instant::from_millis(333));
                tb.run_until(Instant::from_millis(1_234));
                tb.run_until(Instant::from_secs(4));
            } else {
                tb.run_until(Instant::from_secs(4));
            }
            let _ = tx;
            tb.receiver_records(rx).iter().map(|r| (r.seq, r.rx)).collect::<Vec<_>>()
        };
        let a = run(false);
        assert!(!a.is_empty());
        assert_eq!(a, run(true));
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let (mut tb, n1, _n2) = wired_pair(2, 3);
        let s = tb.node_mut(n1).slices.create("tx");
        let spec = FlowSpec::cbr(8_000, 100, Duration::from_millis(200));
        let _tx = tb.add_sender(n1, s, spec, a("203.0.113.99"), Instant::ZERO);
        tb.run_until(Instant::from_secs(1));
        assert!(tb.drops().core_unroutable > 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn late_handoffs_are_clamped_and_counted_in_release() {
        use umtslab_net::packet::PacketId;
        use umtslab_net::wire::Endpoint;

        let (mut tb, _n1, n2) = wired_pair(1, 3);
        tb.run_until(Instant::from_millis(10));
        assert_eq!(tb.late_handoffs(), 0);
        let dst = Endpoint::new(a("138.96.20.10"), 9);
        let packet = Packet::udp(PacketId(1), dst, dst, Vec::new(), Instant::ZERO);
        let late = Handoff {
            at: Instant::from_millis(5),
            origin: 0,
            seq: 0,
            dst: n2.0 as u32,
            kind: HandoffKind::Wire,
            packet,
        };
        tb.shards[0].inbox.accept(vec![late]);
        tb.run_until(Instant::from_millis(20));
        assert_eq!(tb.late_handoffs(), 1, "the clamp must be counted, not silent");
    }

    #[test]
    fn metrics_are_shard_count_invariant() {
        let snapshot = |nshards: usize| {
            let (mut tb, n1, n2) = wired_pair(nshards, 5);
            let s_tx = tb.node_mut(n1).slices.create("tx");
            let s_rx = tb.node_mut(n2).slices.create("rx");
            let spec = FlowSpec::cbr(64_000, 120, Duration::from_secs(1));
            let dport = spec.dport;
            let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::ZERO);
            let _rx = tb.add_receiver(n2, s_rx, dport, tx, true);
            tb.run_until(Instant::from_secs(3));
            tb.metrics()
        };
        let m1 = snapshot(1);
        assert!(m1.access.pushed > 0);
        assert_eq!(m1, snapshot(2), "metrics must not depend on the partition");
    }
}
