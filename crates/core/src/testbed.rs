//! The testbed: nodes, access links, the internet core and the event loop.
//!
//! [`Testbed`] wires [`umtslab_planetlab::Node`]s to a simple internet
//! core through per-node access links, owns the global event scheduler,
//! and hosts the D-ITG traffic agents. It is the layer that corresponds
//! to "Private OneLab": a small set of PlanetLab nodes, one of which
//! carries a 3G card.
//!
//! Topology model: every node's `eth0` connects to the core over a
//! [`DuplexLink`] (the access + research-network path); the core forwards
//! by destination address to the owning node's access link, or — for
//! addresses assigned by an operator — into that node's UMTS downlink.
//! The event loop itself is `crate::engine`, shared with the sharded
//! core.
//!
//! [`DuplexLink`]: umtslab_net::link::DuplexLink

use std::collections::BTreeMap;

use umtslab_ditg::{FlowSpec, RecvRecord, RttRecord, SentRecord, TrafficSender};
use umtslab_net::label::Label;
use umtslab_net::link::{LinkConfig, LinkStats};
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::Node;
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::rng::SimRng;
use umtslab_sim::sched::Scheduler;
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::FaultPlan;
use umtslab_supervisor::metrics::AvailabilityMetrics;
use umtslab_supervisor::supervisor::{SessionSupervisor, SupervisorConfig};
use umtslab_traffic::{AdaptiveConfig, AdaptiveSender, TcpConfig, TcpFlow};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::UmtsAttachment;
use umtslab_umts::bearer::BearerStats;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

use crate::engine::{carve_subscriber, CorePolicy, Engine, Ev, SenderAgent, ROUTED_SRC};

/// Handle to a node in the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Handle to a traffic agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentId(pub usize);

/// Counters of packets the testbed had to discard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TestbedDrops {
    /// No node owns the destination address.
    pub core_unroutable: u64,
    /// The operator firewall refused an inbound packet.
    pub operator_firewall: u64,
    /// The node stack dropped on egress (no route / filter / queue).
    pub node_egress: u64,
    /// The UMTS downlink bearer was not connected / overflowed.
    pub umts_downlink: u64,
}

/// A point-in-time snapshot of every counter the testbed's layers expose.
///
/// This is what one experiment publishes into the runner's metrics
/// registry; see `docs/METRICS.md` for the meaning, unit and emitting
/// layer of every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TestbedMetrics {
    /// Access-link counters, summed over the forward and reverse pipes of
    /// every node's wired access link.
    pub access: LinkStats,
    /// Radio uplink bearer counters, summed over every UMTS attachment.
    pub uplink: BearerStats,
    /// Radio downlink bearer counters, summed over every UMTS attachment.
    pub downlink: BearerStats,
    /// RRC state transitions (Idle/FACH/DCH moves and grant upgrades).
    pub rrc_transitions: u64,
    /// PPP phase transitions (LCP/PAP/IPCP progress and teardowns).
    pub ppp_transitions: u64,
    /// Packets the testbed core had to discard, by cause.
    pub drops: TestbedDrops,
    /// Scheduler events processed (the simulation's cost metric).
    pub events: u64,
}

/// The whole-topology core policy: one randomness stream and one packet
/// id allocator for every node, no operator-edge latency, and packets
/// routed by address scan when their `CoreArrive` event fires.
struct Whole {
    rng: SimRng,
    ids: PacketIdAllocator,
}

impl CorePolicy for Whole {
    const EDGE_HOP: Duration = Duration::ZERO;

    fn link_rng(&mut self, _node: usize) -> &mut SimRng {
        &mut self.rng
    }

    fn ids(&mut self, _node: usize) -> &mut PacketIdAllocator {
        &mut self.ids
    }

    fn cross(&mut self, sched: &mut Scheduler<Ev>, at: Instant, _: usize, p: Packet) -> bool {
        sched.at(at, Ev::CoreArrive(p));
        true
    }
}

/// The simulated testbed.
pub struct Testbed {
    engine: Engine<Whole>,
    /// Subscribers already attached per operator name, used to carve
    /// disjoint address-pool slices. Keyed by interned label: attaching
    /// never allocates a lookup string.
    operator_subscribers: BTreeMap<Label, u32>,
}

impl Testbed {
    /// Creates an empty testbed with a master seed.
    pub fn new(seed: u64) -> Testbed {
        let policy = Whole { rng: SimRng::seed_from_u64(seed), ids: PacketIdAllocator::new() };
        Testbed { engine: Engine::new(policy), operator_subscribers: BTreeMap::new() }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.engine.sched.now()
    }

    /// Drop counters.
    pub fn drops(&self) -> TestbedDrops {
        self.engine.drops
    }

    /// Total events processed by the scheduler.
    pub fn events_processed(&self) -> u64 {
        self.engine.sched.events_processed()
    }

    /// Events the scheduler clamped because they were scheduled into the
    /// past (see `Scheduler::late_schedules`); 0 in a correct run.
    pub fn late_schedules(&self) -> u64 {
        self.engine.sched.late_schedules()
    }

    /// Snapshots every layer's counters into one [`TestbedMetrics`].
    ///
    /// Cheap (a walk over nodes and links copying plain counters), so it
    /// can be taken at any point of a run, not just at the end.
    pub fn metrics(&self) -> TestbedMetrics {
        let mut m = TestbedMetrics::default();
        self.engine.absorb_metrics(&mut m);
        m
    }

    /// Adds a node with a configured `eth0` and an access link to the
    /// internet core. The access link models the whole node↔core path
    /// (campus network + research backbone share).
    pub fn add_node(
        &mut self,
        name: impl Into<umtslab_net::Label>,
        eth_addr: Ipv4Address,
        subnet: Ipv4Cidr,
        gateway: Ipv4Address,
        access: LinkConfig,
    ) -> NodeId {
        let mut node = Node::new(name);
        node.configure_eth(eth_addr, subnet, gateway);
        NodeId(self.engine.add_node(node, access))
    }

    /// Installs a 3G card + operator attachment on a node, carving the
    /// subscriber a disjoint `/24` of the operator's pool.
    pub fn attach_umts(
        &mut self,
        node: NodeId,
        mut operator: OperatorProfile,
        device: DeviceProfile,
        credentials: Option<Credentials>,
    ) {
        carve_subscriber(&mut self.operator_subscribers, &mut operator);
        let seed = self.engine.policy.rng.next_u64();
        let att = UmtsAttachment::new(operator, device, credentials, seed, self.now());
        self.engine.nodes[node.0].attach_umts(att);
    }

    /// Installs a session supervisor (the pppd watchdog daemon) for
    /// `slice` on `node`, replacing any previous one. The supervisor's
    /// backoff jitter is seeded from the testbed's master seed.
    pub fn attach_supervisor(&mut self, node: NodeId, slice: SliceId, config: SupervisorConfig) {
        let rng = SimRng::seed_from_u64(self.engine.policy.rng.next_u64());
        self.engine.supervisors[node.0] = Some(SessionSupervisor::new(slice, config, rng));
    }

    /// Tells the supervisor on `node` to dial; it redials on its own from
    /// here on. Panics if no supervisor is attached.
    pub fn start_supervisor(&mut self, node: NodeId) {
        let now = self.now();
        let e = &mut self.engine;
        let sup = e.supervisors[node.0].as_mut().expect("supervisor attached");
        sup.start(now, &mut e.nodes[node.0]);
        e.arm_node(node.0);
    }

    /// Schedules a fault campaign against `node`'s UMTS stack; due faults
    /// are injected as the simulation crosses their instants.
    pub fn schedule_faults(&mut self, node: NodeId, plan: FaultPlan) {
        self.engine.fault_plans[node.0] = Some(plan);
        self.engine.arm_node(node.0);
    }

    /// The supervisor attached to `node`, if any.
    pub fn supervisor(&self, node: NodeId) -> Option<&SessionSupervisor> {
        self.engine.supervisors[node.0].as_ref()
    }

    /// Folds the tail interval into `node`'s supervisor metrics and
    /// returns the availability snapshot.
    pub fn availability(&mut self, node: NodeId) -> Option<AvailabilityMetrics> {
        let now = self.now();
        self.engine.supervisors[node.0].as_mut().map(|s| s.finish(now))
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.engine.nodes[id.0]
    }

    /// Mutable access to a node (for slices, vsys, bindings).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.engine.nodes[id.0]
    }

    /// All nodes in id order (read-only; used by analyzers and reports).
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.engine.nodes.iter()
    }

    /// Runs the cheap per-node isolation audit ([`Node::audit`]) across
    /// the whole testbed, prefixing findings with the node name.
    pub fn audit(&self) -> Vec<String> {
        self.engine.audit()
    }

    /// Adds a traffic sender on `node`/`slice` toward `dst_addr`. The
    /// first departure is scheduled at `start`; the node's routing fills
    /// the source address.
    pub fn add_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        spec: FlowSpec,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let flow_id = self.engine.agent_count() as u32 + 1;
        let seed = self.engine.policy.rng.next_u64();
        let sport = spec.sport;
        let agent = SenderAgent::OpenLoop(TrafficSender::new(
            spec, flow_id, ROUTED_SRC, dst_addr, start, seed,
        ));
        AgentId(self.engine.add_sender(node.0, slice, sport, agent, start))
    }

    /// Adds a closed-loop congestion-controlled (TCP-ish) sender on
    /// `node`/`slice` toward `dst_addr`. Echo replies arriving on the
    /// bound source port act as acknowledgements and reopen the window.
    pub fn add_tcp_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        config: TcpConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let sport = config.sport;
        self.add_rng_free_sender(node, slice, sport, start, |flow_id| {
            SenderAgent::Tcp(TcpFlow::new(config, flow_id, ROUTED_SRC, dst_addr, start))
        })
    }

    /// Adds a deterministic rate-adaptive (video-like) sender on
    /// `node`/`slice` toward `dst_addr`.
    pub fn add_adaptive_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        config: AdaptiveConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let sport = config.sport;
        self.add_rng_free_sender(node, slice, sport, start, |flow_id| {
            SenderAgent::Adaptive(AdaptiveSender::new(config, flow_id, ROUTED_SRC, dst_addr, start))
        })
    }

    fn add_rng_free_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        sport: u16,
        start: Instant,
        make: impl FnOnce(u32) -> SenderAgent,
    ) -> AgentId {
        let flow_id = self.engine.agent_count() as u32 + 1;
        // Keep the per-sender RNG draw even though the flow itself is
        // RNG-free, so adding one does not shift the seeds handed to any
        // open-loop senders created after it.
        let _ = self.engine.policy.rng.next_u64();
        AgentId(self.engine.add_sender(node.0, slice, sport, make(flow_id), start))
    }

    /// The congestion-control counters of a TCP sender, if `id` is one.
    pub fn tcp_stats(&self, id: AgentId) -> Option<umtslab_traffic::TcpStats> {
        self.engine.tcp_stats(id.0)
    }

    /// Summed RRC dwell times over every UMTS attachment in the testbed
    /// (the two-node experiment has at most one).
    pub fn rrc_dwell_total(&self) -> Option<umtslab_umts::RrcDwell> {
        let now = self.now();
        let nodes = self.engine.nodes.iter();
        nodes.filter_map(|n| Some(n.umts_attachment()?.rrc_dwell(now))).reduce(|mut t, d| {
            t.idle += d.idle;
            t.fach += d.fach;
            t.dch += d.dch;
            t.dch_upgraded += d.dch_upgraded;
            t.idle_promotions += d.idle_promotions;
            t.idle_promotion_latency += d.idle_promotion_latency;
            t
        })
    }

    /// Installs a trace-replay [`LinkSchedule`] on both directions of
    /// `node`'s wired access link, anchored at the current sim time.
    /// Capacity and loss then follow the schedule instead of the static
    /// [`LinkConfig`] for the rest of the run.
    ///
    /// [`LinkSchedule`]: umtslab_net::link::LinkSchedule
    /// [`LinkConfig`]: umtslab_net::link::LinkConfig
    pub fn set_access_schedule(
        &mut self,
        node: NodeId,
        schedule: std::sync::Arc<umtslab_net::link::LinkSchedule>,
    ) {
        let start = self.now();
        let link = &mut self.engine.access[node.0];
        link.forward.set_schedule(schedule.clone(), start);
        link.reverse.set_schedule(schedule, start);
    }

    /// Adds a traffic receiver on `node`/`slice` listening on `port` for
    /// flow `of_sender`.
    pub fn add_receiver(
        &mut self,
        node: NodeId,
        slice: SliceId,
        port: u16,
        of_sender: AgentId,
        echo: bool,
    ) -> AgentId {
        let flow_id = of_sender.0 as u32 + 1;
        AgentId(self.engine.add_receiver(node.0, slice, port, flow_id, echo))
    }

    /// The sender-side logs of an agent.
    pub fn sender_logs(&self, id: AgentId) -> (&[SentRecord], &[RttRecord]) {
        self.engine.sender_logs(id.0)
    }

    /// The receive log of an agent.
    pub fn receiver_records(&self, id: AgentId) -> &[RecvRecord] {
        self.engine.receiver_records(id.0)
    }

    /// Runs the simulation until `horizon` (exclusive of later events).
    pub fn run_until(&mut self, horizon: Instant) {
        self.engine.arm_all();
        self.engine.run_until(horizon);
    }

    /// Runs for a relative span.
    pub fn run_for(&mut self, span: Duration) {
        let horizon = self.now() + span;
        self.run_until(horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umtslab_planetlab::umtscmd::{UmtsPhase, UmtsRequest};

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn wired_pair(seed: u64) -> (Testbed, NodeId, NodeId) {
        let mut tb = Testbed::new(seed);
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

    #[test]
    fn wired_flow_end_to_end() {
        let (mut tb, n1, n2) = wired_pair(1);
        let s_tx = tb.node_mut(n1).slices.create("tx");
        let s_rx = tb.node_mut(n2).slices.create("rx");
        let spec = FlowSpec::cbr(80_000, 100, Duration::from_secs(2));
        let dport = spec.dport;
        let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::from_millis(100));
        let rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_until(Instant::from_secs(5));

        let (sent, rtts) = tb.sender_logs(tx);
        assert_eq!(sent.len(), 200); // 100 pps * 2 s
        let recv = tb.receiver_records(rx);
        assert_eq!(recv.len(), 200, "wired path loses nothing");
        // RTT ≈ 2 × (6 ms + 6 ms) plus serialization: between 24 and 30 ms.
        assert_eq!(rtts.len(), 200);
        let mean_rtt: u64 =
            rtts.iter().map(|r| r.rtt.total_micros()).sum::<u64>() / rtts.len() as u64;
        assert!((24_000..=32_000).contains(&mean_rtt), "mean rtt {mean_rtt}us");
        assert_eq!(tb.drops(), TestbedDrops::default());
    }

    #[test]
    fn umts_flow_end_to_end() {
        let (mut tb, n1, n2) = wired_pair(2);
        tb.attach_umts(
            n1,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        let s_umts = tb.node_mut(n1).slices.create("unina_umts");
        tb.node_mut(n1).grant_umts_access(s_umts);
        let s_rx = tb.node_mut(n2).slices.create("rx");

        // Bring the connection up.
        tb.node_mut(n1).vsys_submit(s_umts, UmtsRequest::Start).unwrap();
        tb.run_until(Instant::from_secs(15));
        assert_eq!(tb.node(n1).umts_status().phase, UmtsPhase::Up);

        // Register the receiver as a UMTS destination.
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
        assert_eq!(sent.len(), 240); // 80 pps * 3 s
        assert!(recv.len() > 220, "light flow mostly survives: {}", recv.len());
        // Every received packet came with the ppp0 source address.
        let ppp = tb.node(n1).ppp_addr().unwrap();
        // RTT includes both radio legs: must be well above the wired 24 ms.
        assert!(!rtts.is_empty());
        let mean_rtt: u64 =
            rtts.iter().map(|r| r.rtt.total_micros()).sum::<u64>() / rtts.len() as u64;
        assert!(mean_rtt > 150_000, "umts rtt {mean_rtt}us should be >150ms");
        let _ = ppp;
    }

    #[test]
    fn deterministic_given_seed() {
        let runs: Vec<Vec<(u32, u64)>> = (0..2)
            .map(|_| {
                let (mut tb, n1, n2) = wired_pair(7);
                let s_tx = tb.node_mut(n1).slices.create("tx");
                let s_rx = tb.node_mut(n2).slices.create("rx");
                let spec = FlowSpec::poisson(200.0, 300, Duration::from_secs(2));
                let dport = spec.dport;
                let tx = tb.add_sender(n1, s_tx, spec, a("138.96.20.10"), Instant::ZERO);
                let rx = tb.add_receiver(n2, s_rx, dport, tx, false);
                tb.run_until(Instant::from_secs(4));
                let _ = tx;
                tb.receiver_records(rx).iter().map(|r| (r.seq, r.rx.total_micros())).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed must reproduce identical traces");
        assert!(!runs[0].is_empty());
    }

    #[test]
    fn two_umts_nodes_on_one_operator_get_disjoint_addresses() {
        let (mut tb, n1, n2) = wired_pair(9);
        for n in [n1, n2] {
            tb.attach_umts(
                n,
                OperatorProfile::commercial_italy(),
                DeviceProfile::huawei_e620(),
                Some(Credentials::new("web", "web")),
            );
            let s = tb.node_mut(n).slices.create("umts");
            tb.node_mut(n).grant_umts_access(s);
            tb.node_mut(n).vsys_submit(s, UmtsRequest::Start).unwrap();
        }
        tb.run_until(Instant::from_secs(20));
        let a1 = tb.node(n1).ppp_addr().expect("node 1 connected");
        let a2 = tb.node(n2).ppp_addr().expect("node 2 connected");
        assert_ne!(a1, a2, "same-operator subscribers must get distinct addresses");
    }

    #[test]
    fn metrics_snapshot_aggregates_all_layers() {
        let (mut tb, n1, n2) = wired_pair(4);
        tb.attach_umts(
            n1,
            OperatorProfile::commercial_italy(),
            DeviceProfile::huawei_e620(),
            Some(Credentials::new("web", "web")),
        );
        let s_umts = tb.node_mut(n1).slices.create("umts");
        tb.node_mut(n1).grant_umts_access(s_umts);
        let s_rx = tb.node_mut(n2).slices.create("rx");
        tb.node_mut(n1).vsys_submit(s_umts, UmtsRequest::Start).unwrap();
        tb.run_until(Instant::from_secs(15));
        tb.node_mut(n1)
            .vsys_submit(s_umts, UmtsRequest::AddDestination(Ipv4Cidr::host(a("138.96.20.10"))))
            .unwrap();
        let spec = FlowSpec::cbr(64_000, 100, Duration::from_secs(2));
        let dport = spec.dport;
        let start = tb.now() + Duration::from_millis(200);
        let tx = tb.add_sender(n1, s_umts, spec, a("138.96.20.10"), start);
        let _rx = tb.add_receiver(n2, s_rx, dport, tx, true);
        tb.run_for(Duration::from_secs(6));

        let m = tb.metrics();
        assert!(m.access.pushed > 0, "wired legs carried traffic");
        assert!(m.uplink.offered > 0, "radio uplink saw the flow");
        assert!(m.uplink.served > 0);
        assert!(m.ppp_transitions >= 4, "LCP/PAP/IPCP walked the phases");
        assert!(m.rrc_transitions >= 1, "the dial promoted out of Idle");
        assert_eq!(m.events, tb.events_processed());
        assert_eq!(m.drops, tb.drops());
        // A snapshot is stable when the simulation has not advanced.
        assert_eq!(m, tb.metrics());
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let (mut tb, n1, _n2) = wired_pair(3);
        let s = tb.node_mut(n1).slices.create("tx");
        let spec = FlowSpec::cbr(8_000, 100, Duration::from_millis(200));
        let _tx = tb.add_sender(n1, s, spec, a("203.0.113.99"), Instant::ZERO);
        tb.run_until(Instant::from_secs(1));
        assert!(tb.drops().core_unroutable > 0);
    }
}
