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

use std::collections::BTreeMap;

use umtslab_ditg::{FlowSpec, TrafficReceiver, TrafficSender};
use umtslab_net::bytes::BufferPool;
use umtslab_net::label::Label;
use umtslab_net::link::{DuplexLink, LinkConfig, LinkStats, PushOutcome};
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::wire::{Ipv4Address, Ipv4Cidr};
use umtslab_planetlab::node::{EgressAction, Node, ETH0};
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::event::EventHandle;
use umtslab_sim::rng::SimRng;
use umtslab_sim::sched::Scheduler;
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::FaultPlan;
use umtslab_supervisor::metrics::AvailabilityMetrics;
use umtslab_supervisor::supervisor::{SessionSupervisor, SupervisorConfig};
use umtslab_umts::at::DeviceProfile;
use umtslab_umts::attachment::{DownlinkOutcome, UmtsAttachment};
use umtslab_umts::bearer::BearerStats;
use umtslab_umts::operator::OperatorProfile;
use umtslab_umts::ppp::Credentials;

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

enum Ev {
    /// Re-poll a node's internal machinery.
    NodeWake(usize),
    /// A packet reached the internet core from a node's access link (or an
    /// operator edge).
    CoreArrive(Packet),
    /// A packet reached a node's `eth0`.
    NodeArrive { node: usize, packet: Packet },
    /// A traffic sender's next departure.
    AgentSend(usize),
}

/// A traffic source of any flow model, behind one dispatch surface so
/// the event loop treats open-loop probes, closed-loop TCP flows and
/// rate-adaptive streams identically.
enum SenderAgent {
    /// Open-loop D-ITG probe sender (the original workload).
    OpenLoop(TrafficSender),
    /// Closed-loop congestion-controlled flow.
    Tcp(umtslab_traffic::TcpFlow),
    /// Delivered-rate adaptive (video-like) sender.
    Adaptive(umtslab_traffic::AdaptiveSender),
}

impl SenderAgent {
    fn emit(
        &mut self,
        now: Instant,
        ids: &mut PacketIdAllocator,
        pool: &mut BufferPool,
    ) -> Option<Packet> {
        match self {
            SenderAgent::OpenLoop(a) => a.emit(now, ids, pool),
            SenderAgent::Tcp(a) => a.emit(now, ids, pool),
            SenderAgent::Adaptive(a) => a.emit(now, ids, pool),
        }
    }

    fn next_departure(&self, now: Instant) -> Option<Instant> {
        match self {
            SenderAgent::OpenLoop(a) => a.next_departure(),
            SenderAgent::Tcp(a) => a.next_departure(now),
            SenderAgent::Adaptive(a) => a.next_departure(),
        }
    }

    fn on_receive(&mut self, now: Instant, packet: &Packet) {
        match self {
            SenderAgent::OpenLoop(a) => a.on_receive(now, packet),
            SenderAgent::Tcp(a) => a.on_receive(now, packet),
            SenderAgent::Adaptive(a) => a.on_receive(now, packet),
        }
    }

    fn sent(&self) -> &[umtslab_ditg::SentRecord] {
        match self {
            SenderAgent::OpenLoop(a) => a.sent(),
            SenderAgent::Tcp(a) => a.sent(),
            SenderAgent::Adaptive(a) => a.sent(),
        }
    }

    fn rtts(&self) -> &[umtslab_ditg::RttRecord] {
        match self {
            SenderAgent::OpenLoop(a) => a.rtts(),
            SenderAgent::Tcp(a) => a.rtts(),
            SenderAgent::Adaptive(a) => a.rtts(),
        }
    }

    fn start_time(&self) -> Instant {
        match self {
            SenderAgent::OpenLoop(a) => a.start_time(),
            SenderAgent::Tcp(a) => a.start_time(),
            SenderAgent::Adaptive(a) => a.start_time(),
        }
    }

    /// Whether acknowledgements can reopen this sender's transmission
    /// window (closed-loop flows need an `AgentSend` re-arm on receive).
    fn closed_loop(&self) -> bool {
        matches!(self, SenderAgent::Tcp(_))
    }
}

enum AgentSlot {
    // The sender is boxed: closed-loop flow state dwarfs a receiver slot.
    Sender { node: usize, slice: SliceId, agent: Box<SenderAgent> },
    Receiver { agent: TrafficReceiver },
}

/// The simulated testbed.
pub struct Testbed {
    sched: Scheduler<Ev>,
    nodes: Vec<Node>,
    access: Vec<DuplexLink>,
    wake_armed: Vec<Option<(Instant, EventHandle)>>,
    /// Per-node session supervisor (the watchdog daemon), if attached.
    supervisors: Vec<Option<SessionSupervisor>>,
    /// Per-node scheduled fault campaign, if any.
    fault_plans: Vec<Option<FaultPlan>>,
    agents: Vec<AgentSlot>,
    /// Receiver lookup: (node, port) → agent index. Ordered map so that
    /// any future iteration (diagnostics, sharding) is deterministic.
    rx_ports: BTreeMap<(usize, u16), usize>,
    /// Sender lookup for echo replies: (node, port) → agent index.
    tx_ports: BTreeMap<(usize, u16), usize>,
    ids: PacketIdAllocator,
    rng: SimRng,
    drops: TestbedDrops,
    /// Subscribers already attached per operator name, used to carve
    /// disjoint address-pool slices so concurrent attachments to the same
    /// operator never collide. Keyed by interned label: attaching never
    /// allocates a lookup string.
    operator_subscribers: BTreeMap<Label, u32>,
    /// Recycles retired payload allocations back to the traffic senders,
    /// so steady-state emission allocates nothing.
    pool: BufferPool,
}

impl Testbed {
    /// Creates an empty testbed with a master seed.
    pub fn new(seed: u64) -> Testbed {
        Testbed {
            sched: Scheduler::new(),
            nodes: Vec::new(),
            access: Vec::new(),
            wake_armed: Vec::new(),
            supervisors: Vec::new(),
            fault_plans: Vec::new(),
            agents: Vec::new(),
            rx_ports: BTreeMap::new(),
            tx_ports: BTreeMap::new(),
            ids: PacketIdAllocator::new(),
            rng: SimRng::seed_from_u64(seed),
            drops: TestbedDrops::default(),
            operator_subscribers: BTreeMap::new(),
            pool: BufferPool::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.sched.now()
    }

    /// Drop counters.
    pub fn drops(&self) -> TestbedDrops {
        self.drops
    }

    /// Total events processed by the scheduler.
    pub fn events_processed(&self) -> u64 {
        self.sched.events_processed()
    }

    /// Events the scheduler clamped because they were scheduled into the
    /// past (see `Scheduler::late_schedules`); 0 in a correct run.
    pub fn late_schedules(&self) -> u64 {
        self.sched.late_schedules()
    }

    /// Snapshots every layer's counters into one [`TestbedMetrics`].
    ///
    /// Cheap (a walk over nodes and links copying plain counters), so it
    /// can be taken at any point of a run, not just at the end.
    pub fn metrics(&self) -> TestbedMetrics {
        let mut m = TestbedMetrics::default();
        for link in &self.access {
            m.access.absorb(link.forward.stats());
            m.access.absorb(link.reverse.stats());
        }
        for node in &self.nodes {
            if let Some(att) = node.umts_attachment() {
                m.uplink.absorb(att.uplink_stats());
                m.downlink.absorb(att.downlink_stats());
                m.rrc_transitions += att.rrc_transitions();
                m.ppp_transitions += att.ppp_transitions();
            }
        }
        m.drops = self.drops;
        m.events = self.sched.events_processed();
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
        self.nodes.push(node);
        self.access.push(DuplexLink::symmetric(access));
        self.wake_armed.push(None);
        self.supervisors.push(None);
        self.fault_plans.push(None);
        NodeId(self.nodes.len() - 1)
    }

    /// Installs a 3G card + operator attachment on a node.
    pub fn attach_umts(
        &mut self,
        node: NodeId,
        mut operator: OperatorProfile,
        device: DeviceProfile,
        credentials: Option<Credentials>,
    ) {
        // Each subscriber of the same operator gets a disjoint /24 slice
        // of the pool, as a real GGSN's per-session allocation guarantees:
        // without this, two nodes on one operator would be assigned the
        // same address and the core could not route to either.
        let index = self.operator_subscribers.entry(Label::intern(&operator.name)).or_insert(0);
        if let Some(slice) = operator.pool.subnet(24, *index) {
            operator.pool = slice;
        }
        *index += 1;
        let seed = self.rng.next_u64();
        let att = UmtsAttachment::new(operator, device, credentials, seed, self.now());
        self.nodes[node.0].attach_umts(att);
    }

    /// Installs a session supervisor (the pppd watchdog daemon) for
    /// `slice` on `node`, replacing any previous one. The supervisor's
    /// backoff jitter is seeded from the testbed's master seed.
    pub fn attach_supervisor(&mut self, node: NodeId, slice: SliceId, config: SupervisorConfig) {
        let rng = SimRng::seed_from_u64(self.rng.next_u64());
        self.supervisors[node.0] = Some(SessionSupervisor::new(slice, config, rng));
    }

    /// Tells the supervisor on `node` to dial; it redials on its own from
    /// here on. Panics if no supervisor is attached.
    pub fn start_supervisor(&mut self, node: NodeId) {
        let now = self.now();
        let sup = self.supervisors[node.0].as_mut().expect("supervisor attached");
        sup.start(now, &mut self.nodes[node.0]);
        self.arm_node(node.0);
    }

    /// Schedules a fault campaign against `node`'s UMTS stack; due faults
    /// are injected as the simulation crosses their instants.
    pub fn schedule_faults(&mut self, node: NodeId, plan: FaultPlan) {
        self.fault_plans[node.0] = Some(plan);
        self.arm_node(node.0);
    }

    /// The supervisor attached to `node`, if any.
    pub fn supervisor(&self, node: NodeId) -> Option<&SessionSupervisor> {
        self.supervisors[node.0].as_ref()
    }

    /// Folds the tail interval into `node`'s supervisor metrics and
    /// returns the availability snapshot.
    pub fn availability(&mut self, node: NodeId) -> Option<AvailabilityMetrics> {
        let now = self.now();
        self.supervisors[node.0].as_mut().map(|s| s.finish(now))
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable access to a node (for slices, vsys, bindings).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// All nodes in id order (read-only; used by analyzers and reports).
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// The ids of all nodes, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Runs the cheap per-node isolation audit ([`Node::audit`]) across
    /// the whole testbed, prefixing findings with the node name.
    pub fn audit(&self) -> Vec<String> {
        self.nodes
            .iter()
            .flat_map(|n| {
                let name = n.name;
                n.audit().into_iter().map(move |f| format!("{name}: {f}"))
            })
            .collect()
    }

    /// Adds a traffic sender on `node`/`slice` toward `dst_addr`. The
    /// first departure is scheduled at `start`.
    ///
    /// The sender's source address is left unspecified so the node's
    /// routing fills it (this is how the UMTS path acquires the `ppp0`
    /// source address).
    pub fn add_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        spec: FlowSpec,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let flow_id = self.agents.len() as u32 + 1;
        let seed = self.rng.next_u64();
        let sport = spec.sport;
        let agent =
            TrafficSender::new(spec, flow_id, Ipv4Address::UNSPECIFIED, dst_addr, start, seed);
        self.install_sender(node, slice, sport, SenderAgent::OpenLoop(agent), start)
    }

    /// Adds a closed-loop congestion-controlled (TCP-ish) sender on
    /// `node`/`slice` toward `dst_addr`. Echo replies arriving on the
    /// bound source port act as acknowledgements and reopen the window.
    pub fn add_tcp_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        config: umtslab_traffic::TcpConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let flow_id = self.agents.len() as u32 + 1;
        // Keep the per-sender RNG draw even though the flow itself is
        // RNG-free, so adding a TCP flow does not shift the seeds handed
        // to any open-loop senders created after it.
        let _ = self.rng.next_u64();
        let sport = config.sport;
        let agent = umtslab_traffic::TcpFlow::new(
            config,
            flow_id,
            Ipv4Address::UNSPECIFIED,
            dst_addr,
            start,
        );
        self.install_sender(node, slice, sport, SenderAgent::Tcp(agent), start)
    }

    /// Adds a deterministic rate-adaptive (video-like) sender on
    /// `node`/`slice` toward `dst_addr`.
    pub fn add_adaptive_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        config: umtslab_traffic::AdaptiveConfig,
        dst_addr: Ipv4Address,
        start: Instant,
    ) -> AgentId {
        let flow_id = self.agents.len() as u32 + 1;
        let _ = self.rng.next_u64(); // see add_tcp_sender
        let sport = config.sport;
        let agent = umtslab_traffic::AdaptiveSender::new(
            config,
            flow_id,
            Ipv4Address::UNSPECIFIED,
            dst_addr,
            start,
        );
        self.install_sender(node, slice, sport, SenderAgent::Adaptive(agent), start)
    }

    fn install_sender(
        &mut self,
        node: NodeId,
        slice: SliceId,
        sport: u16,
        agent: SenderAgent,
        start: Instant,
    ) -> AgentId {
        // Bind the source port so echo replies reach the sender.
        let _ = self.nodes[node.0].bind(slice, sport);
        let idx = self.agents.len();
        self.agents.push(AgentSlot::Sender { node: node.0, slice, agent: Box::new(agent) });
        self.tx_ports.insert((node.0, sport), idx);
        self.sched.at(start.max(self.now()), Ev::AgentSend(idx));
        AgentId(idx)
    }

    /// The congestion-control counters of a TCP sender, if `id` is one.
    pub fn tcp_stats(&self, id: AgentId) -> Option<umtslab_traffic::TcpStats> {
        match &self.agents[id.0] {
            AgentSlot::Sender { agent, .. } => match agent.as_ref() {
                SenderAgent::Tcp(f) => Some(f.stats()),
                _ => None,
            },
            _ => None,
        }
    }

    /// The ladder history of an adaptive sender, if `id` is one.
    pub fn adaptive_level_changes(&self, id: AgentId) -> Option<&[umtslab_traffic::LevelChange]> {
        match &self.agents[id.0] {
            AgentSlot::Sender { agent, .. } => match agent.as_ref() {
                SenderAgent::Adaptive(s) => Some(s.level_changes()),
                _ => None,
            },
            _ => None,
        }
    }

    /// Cumulative RRC dwell times of `node`'s UMTS attachment, if any.
    pub fn rrc_dwell(&self, node: NodeId) -> Option<umtslab_umts::RrcDwell> {
        let now = self.now();
        self.nodes[node.0].umts_attachment().map(|att| att.rrc_dwell(now))
    }

    /// Summed RRC dwell times over every UMTS attachment in the testbed
    /// (the two-node experiment has at most one).
    pub fn rrc_dwell_total(&self) -> Option<umtslab_umts::RrcDwell> {
        let now = self.now();
        let mut total: Option<umtslab_umts::RrcDwell> = None;
        for node in &self.nodes {
            if let Some(att) = node.umts_attachment() {
                let d = att.rrc_dwell(now);
                let t = total.get_or_insert_with(Default::default);
                t.idle += d.idle;
                t.fach += d.fach;
                t.dch += d.dch;
                t.dch_upgraded += d.dch_upgraded;
                t.idle_promotions += d.idle_promotions;
                t.idle_promotion_latency += d.idle_promotion_latency;
            }
        }
        total
    }

    /// Installs a trace-replay [`LinkSchedule`] on both directions of
    /// `node`'s wired access link, anchored at the current sim time.
    /// Capacity and loss then follow the schedule instead of the static
    /// [`LinkConfig`] until [`Testbed::clear_access_schedule`].
    ///
    /// [`LinkSchedule`]: umtslab_net::link::LinkSchedule
    /// [`LinkConfig`]: umtslab_net::link::LinkConfig
    pub fn set_access_schedule(
        &mut self,
        node: NodeId,
        schedule: std::sync::Arc<umtslab_net::link::LinkSchedule>,
    ) {
        let start = self.now();
        let link = &mut self.access[node.0];
        link.forward.set_schedule(schedule.clone(), start);
        link.reverse.set_schedule(schedule, start);
    }

    /// Removes any trace-replay schedule from `node`'s access link.
    pub fn clear_access_schedule(&mut self, node: NodeId) {
        let link = &mut self.access[node.0];
        link.forward.clear_schedule();
        link.reverse.clear_schedule();
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
        let agent = TrafficReceiver::new(flow_id, echo);
        let _ = self.nodes[node.0].bind(slice, port);
        let idx = self.agents.len();
        self.agents.push(AgentSlot::Receiver { agent });
        self.rx_ports.insert((node.0, port), idx);
        AgentId(idx)
    }

    /// The sender-side logs of an agent.
    pub fn sender_logs(
        &self,
        id: AgentId,
    ) -> (&[umtslab_ditg::SentRecord], &[umtslab_ditg::RttRecord]) {
        match &self.agents[id.0] {
            AgentSlot::Sender { agent, .. } => (agent.sent(), agent.rtts()),
            AgentSlot::Receiver { .. } => (&[], &[]),
        }
    }

    /// The flow start time of a sender.
    pub fn sender_start(&self, id: AgentId) -> Option<Instant> {
        match &self.agents[id.0] {
            AgentSlot::Sender { agent, .. } => Some(agent.start_time()),
            AgentSlot::Receiver { .. } => None,
        }
    }

    /// The receive log of an agent.
    pub fn receiver_records(&self, id: AgentId) -> &[umtslab_ditg::RecvRecord] {
        match &self.agents[id.0] {
            AgentSlot::Receiver { agent } => agent.records(),
            AgentSlot::Sender { .. } => &[],
        }
    }

    /// Runs the simulation until `horizon` (exclusive of later events).
    pub fn run_until(&mut self, horizon: Instant) {
        // In debug builds, refuse to simulate a structurally broken
        // configuration (mark collisions, stale UMTS policy state): the
        // dynamic run would silently violate the isolation the paper's
        // rule set promises. Release builds skip the walk entirely.
        #[cfg(debug_assertions)]
        {
            let findings = self.audit();
            debug_assert!(findings.is_empty(), "testbed audit failed: {findings:?}");
        }
        // Ensure every node with internal work is armed before we start.
        for i in 0..self.nodes.len() {
            self.arm_node(i);
        }
        while let Some(ev) = self.sched.next_before(horizon) {
            self.dispatch(ev);
        }
    }

    /// Runs for a relative span.
    pub fn run_for(&mut self, span: Duration) {
        let horizon = self.now() + span;
        self.run_until(horizon);
    }

    // --- internals ------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        let now = self.sched.now();
        match ev {
            Ev::NodeWake(i) => {
                self.wake_armed[i] = None;
                self.poll_node(now, i);
            }
            Ev::CoreArrive(packet) => self.route_from_core(now, packet),
            Ev::NodeArrive { node, packet } => {
                let delivery = self.nodes[node].ingress(now, ETH0, packet);
                if delivery.is_some() {
                    self.flush_deliveries(now, node);
                }
                // Ingress may have queued kernel work (ICMP replies).
                self.arm_node(node);
            }
            Ev::AgentSend(idx) => self.agent_send(now, idx),
        }
    }

    fn agent_send(&mut self, now: Instant, idx: usize) {
        let AgentSlot::Sender { node, slice, agent } = &mut self.agents[idx] else {
            return;
        };
        let node_idx = *node;
        let slice = *slice;
        let Some(packet) = agent.emit(now, &mut self.ids, &mut self.pool) else {
            // Spurious wake; re-arm if the flow continues.
            if let Some(next) = agent.next_departure(now) {
                self.sched.at(next.max(now), Ev::AgentSend(idx));
            }
            return;
        };
        if let Some(next) = agent.next_departure(now) {
            self.sched.at(next.max(now), Ev::AgentSend(idx));
        }
        self.egress(now, node_idx, slice, packet);
    }

    fn egress(&mut self, now: Instant, node_idx: usize, slice: SliceId, packet: Packet) {
        match self.nodes[node_idx].send_from_slice(now, slice, packet) {
            EgressAction::Wire { iface: _, packet } => {
                let pipe = &mut self.access[node_idx].forward;
                match pipe.push(now, packet, &mut self.rng) {
                    PushOutcome::Scheduled(deliveries) => {
                        for (at, p) in deliveries {
                            self.sched.at(at, Ev::CoreArrive(p));
                        }
                    }
                    PushOutcome::Dropped { .. } => self.drops.node_egress += 1,
                }
            }
            EgressAction::Umts => self.arm_node(node_idx),
            EgressAction::Local => self.flush_deliveries(now, node_idx),
            EgressAction::Dropped(_) => self.drops.node_egress += 1,
        }
    }

    fn route_from_core(&mut self, now: Instant, packet: Packet) {
        let dst = packet.dst.addr;
        // Wired delivery?
        if let Some(i) = self.nodes.iter().position(|n| n.eth_addr() == dst) {
            let pipe = &mut self.access[i].reverse;
            match pipe.push(now, packet, &mut self.rng) {
                PushOutcome::Scheduled(deliveries) => {
                    for (at, p) in deliveries {
                        self.sched.at(at, Ev::NodeArrive { node: i, packet: p });
                    }
                }
                PushOutcome::Dropped { .. } => self.drops.core_unroutable += 1,
            }
            return;
        }
        // UMTS subscriber delivery?
        if let Some(i) = self.nodes.iter().position(|n| n.ppp_addr() == Some(dst)) {
            match self.nodes[i].deliver_umts_downlink(now, packet) {
                DownlinkOutcome::Queued => self.arm_node(i),
                DownlinkOutcome::BlockedByFirewall => self.drops.operator_firewall += 1,
                DownlinkOutcome::DroppedOverflow | DownlinkOutcome::NotConnected => {
                    self.drops.umts_downlink += 1;
                }
            }
            return;
        }
        self.drops.core_unroutable += 1;
    }

    fn poll_node(&mut self, now: Instant, i: usize) {
        // Fire any campaign faults that are due before the node runs, so
        // the fault lands in the same step its instant names.
        if let Some(plan) = self.fault_plans[i].as_mut() {
            for fault in plan.pop_due(now) {
                self.nodes[i].inject_umts_fault(now, fault);
                if let Some(sup) = self.supervisors[i].as_mut() {
                    sup.note_fault();
                }
            }
        }
        let out = self.nodes[i].poll(now);
        if let Some(sup) = self.supervisors[i].as_mut() {
            sup.on_events(now, &out.umts_events, &mut self.nodes[i]);
            sup.poll(now, &mut self.nodes[i]);
        }
        for p in out.to_internet {
            // The packet is at the operator's internet edge now.
            self.sched.at(now, Ev::CoreArrive(p));
        }
        for p in out.wire_tx {
            // Kernel-originated packets (ICMP replies) take the access link.
            let pipe = &mut self.access[i].forward;
            match pipe.push(now, p, &mut self.rng) {
                PushOutcome::Scheduled(deliveries) => {
                    for (at, q) in deliveries {
                        self.sched.at(at, Ev::CoreArrive(q));
                    }
                }
                PushOutcome::Dropped { .. } => self.drops.node_egress += 1,
            }
        }
        self.flush_deliveries(now, i);
        self.arm_node(i);
    }

    fn flush_deliveries(&mut self, now: Instant, node_idx: usize) {
        let deliveries = self.nodes[node_idx].take_delivered();
        for d in deliveries {
            let port = d.packet.dst.port;
            if let Some(&aidx) = self.rx_ports.get(&(node_idx, port)) {
                if let AgentSlot::Receiver { agent, .. } = &mut self.agents[aidx] {
                    let echo = agent.on_receive(d.at, &d.packet, &mut self.ids, &mut self.pool);
                    // The packet dies here: hand its payload allocation
                    // back to the emitters (no-op if still shared).
                    self.pool.reclaim(d.packet.payload);
                    if let Some(echo) = echo {
                        // The echo is emitted by the receiving slice.
                        let slice = d.slice;
                        self.egress(now, node_idx, slice, echo);
                    }
                    continue;
                }
            }
            if let Some(&aidx) = self.tx_ports.get(&(node_idx, port)) {
                if let AgentSlot::Sender { agent, .. } = &mut self.agents[aidx] {
                    agent.on_receive(d.at, &d.packet);
                    // A closed-loop sender's window may have just
                    // reopened: re-arm its send event (spurious wakes
                    // are tolerated by agent_send).
                    if agent.closed_loop() {
                        if let Some(next) = agent.next_departure(now) {
                            self.sched.at(next.max(now), Ev::AgentSend(aidx));
                        }
                    }
                }
            }
            self.pool.reclaim(d.packet.payload);
        }
    }

    fn arm_node(&mut self, i: usize) {
        let mut wake = self.nodes[i].next_wakeup();
        if let Some(sup) = self.supervisors[i].as_ref() {
            wake = match (wake, sup.next_wakeup()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        if let Some(plan) = self.fault_plans[i].as_ref() {
            wake = match (wake, plan.next_due()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        let Some(wake) = wake else {
            return;
        };
        let wake = wake.max(self.sched.now());
        if let Some((armed, handle)) = self.wake_armed[i] {
            if armed <= wake {
                return; // an earlier-or-equal wake is already scheduled
            }
            // Re-arming earlier: cancel the stale wake so duplicates never
            // accumulate (a leaked duplicate re-arms itself on every poll
            // and the population persists for the rest of the run).
            self.sched.cancel(handle);
        }
        let handle = self.sched.at(wake, Ev::NodeWake(i));
        self.wake_armed[i] = Some((wake, handle));
    }
}

/// A whole-topology [`Testbed`] is the degenerate single-shard case of the
/// sharded core: its event loop drives behind the same window interface,
/// and with no peers there is nothing to exchange at barriers.
impl umtslab_sim::ShardScheduler for Testbed {
    fn now(&self) -> Instant {
        self.sched.now()
    }

    fn run_window(&mut self, horizon: Instant) {
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
