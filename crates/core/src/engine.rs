//! The one event loop behind [`Testbed`] and [`Shard`].
//!
//! [`Engine`] owns a scheduler plus the full state of a set of nodes
//! (access links, supervisors, fault plans, agents, payload pool). A
//! [`Testbed`] drives one engine, a [`crate::shard::ShardedTestbed`] one
//! per [`Shard`]. What legitimately differs between the two sits behind
//! the crate-private [`CorePolicy`], chosen by type: where link
//! randomness and packet ids come from (one stream, or one per node), how
//! a packet crosses the core (a `CoreArrive` event routed on arrival by
//! address scan, or static tables into a cross-shard outbox), and the
//! operator-edge → core hop (zero, or
//! [`crate::shard::ShardedTestbed::CORE_HOP`]).
//!
//! Every node is armed at the start of each run call ([`Engine::arm_all`]),
//! so work queued between runs — a vsys `umts add destination` — is seen
//! at once rather than at the node's next natural wake.
//!
//! [`Testbed`]: crate::testbed::Testbed
//! [`Shard`]: crate::shard::Shard

use std::collections::BTreeMap;

use umtslab_ditg::{RecvRecord, RttRecord, SentRecord, TrafficReceiver, TrafficSender};
use umtslab_net::bytes::BufferPool;
use umtslab_net::label::Label;
use umtslab_net::link::{DuplexLink, LinkConfig, PushOutcome};
use umtslab_net::mailbox::HandoffKind;
use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::wire::Ipv4Address;
use umtslab_planetlab::node::{EgressAction, Node, ETH0};
use umtslab_planetlab::slice::SliceId;
use umtslab_sim::event::EventHandle;
use umtslab_sim::rng::SimRng;
use umtslab_sim::sched::Scheduler;
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::FaultPlan;
use umtslab_supervisor::supervisor::SessionSupervisor;
use umtslab_traffic::{AdaptiveSender, TcpFlow, TcpStats};
use umtslab_umts::attachment::DownlinkOutcome;
use umtslab_umts::operator::OperatorProfile;

use crate::testbed::{TestbedDrops, TestbedMetrics};

/// Senders leave their source address unspecified so the node's routing
/// fills it (this is how the UMTS path acquires the `ppp0` address).
pub(crate) const ROUTED_SRC: Ipv4Address = Ipv4Address::UNSPECIFIED;

/// `u32` node indices keep the two packet-carrying variants, and so every
/// queued event, at 72 bytes.
pub(crate) enum Ev {
    /// Re-poll a node's internal machinery.
    NodeWake(usize),
    /// A packet reached the internet core, to be routed on arrival.
    CoreArrive(Packet),
    /// A packet reached a node's `eth0`.
    NodeArrive { node: u32, packet: Packet },
    /// A packet already routed at the core takes its destination leg.
    CoreDeliver { node: u32, kind: HandoffKind, packet: Packet },
    /// A traffic sender's next departure.
    AgentSend(usize),
}

/// The three ways the two event loops legitimately differ.
pub(crate) trait CorePolicy {
    /// Latency of the operator-edge → core hop of UMTS uplink traffic.
    const EDGE_HOP: Duration;

    /// The stream driving `node`'s access-link jitter and loss draws.
    fn link_rng(&mut self, node: usize) -> &mut SimRng;

    /// The packet-id allocator for packets `node` originates.
    fn ids(&mut self, node: usize) -> &mut PacketIdAllocator;

    /// Hands `p`, originated by node `from`, to the core at `at`; false
    /// if no node owns its destination.
    fn cross(&mut self, sched: &mut Scheduler<Ev>, at: Instant, from: usize, p: Packet) -> bool;
}

/// A traffic source of any flow model, behind one dispatch surface so
/// the event loop treats open-loop probes, closed-loop TCP flows and
/// rate-adaptive streams identically.
pub(crate) enum SenderAgent {
    /// Open-loop D-ITG probe sender (the original workload).
    OpenLoop(TrafficSender),
    /// Closed-loop congestion-controlled flow.
    Tcp(TcpFlow),
    /// Delivered-rate adaptive (video-like) sender.
    Adaptive(AdaptiveSender),
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

    fn logs(&self) -> (&[SentRecord], &[RttRecord]) {
        match self {
            SenderAgent::OpenLoop(a) => (a.sent(), a.rtts()),
            SenderAgent::Tcp(a) => (a.sent(), a.rtts()),
            SenderAgent::Adaptive(a) => (a.sent(), a.rtts()),
        }
    }
}

enum AgentSlot {
    // The sender is boxed: closed-loop flow state dwarfs a receiver slot.
    Sender { node: usize, slice: SliceId, agent: Box<SenderAgent> },
    Receiver { agent: TrafficReceiver },
}

/// One event loop over a set of nodes; see the module docs.
pub(crate) struct Engine<P> {
    pub(crate) sched: Scheduler<Ev>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) access: Vec<DuplexLink>,
    wake_armed: Vec<Option<(Instant, EventHandle)>>,
    /// Per-node session supervisor (the watchdog daemon), if attached.
    pub(crate) supervisors: Vec<Option<SessionSupervisor>>,
    /// Per-node scheduled fault campaign, if any.
    pub(crate) fault_plans: Vec<Option<FaultPlan>>,
    agents: Vec<AgentSlot>,
    /// Receiver lookup: (node, port) → agent index. Ordered map so that
    /// any iteration (diagnostics, sharding) is deterministic.
    rx_ports: BTreeMap<(usize, u16), usize>,
    /// Sender lookup for echo replies: (node, port) → agent index.
    tx_ports: BTreeMap<(usize, u16), usize>,
    pub(crate) drops: TestbedDrops,
    /// Recycles retired payload allocations back to the traffic senders,
    /// so steady-state emission allocates nothing.
    pool: BufferPool,
    pub(crate) policy: P,
}

impl<P: CorePolicy> Engine<P> {
    pub(crate) fn new(policy: P) -> Engine<P> {
        Engine {
            sched: Scheduler::new(),
            nodes: Vec::new(),
            access: Vec::new(),
            wake_armed: Vec::new(),
            supervisors: Vec::new(),
            fault_plans: Vec::new(),
            agents: Vec::new(),
            rx_ports: BTreeMap::new(),
            tx_ports: BTreeMap::new(),
            drops: TestbedDrops::default(),
            pool: BufferPool::new(),
            policy,
        }
    }

    /// Adds a node with its access link; returns its local index.
    pub(crate) fn add_node(&mut self, node: Node, access: LinkConfig) -> usize {
        self.nodes.push(node);
        self.access.push(DuplexLink::symmetric(access));
        self.wake_armed.push(None);
        self.supervisors.push(None);
        self.fault_plans.push(None);
        self.nodes.len() - 1
    }

    /// Installs a sender whose first departure is at `start`; returns its
    /// local agent index.
    pub(crate) fn add_sender(
        &mut self,
        node: usize,
        slice: SliceId,
        sport: u16,
        agent: SenderAgent,
        start: Instant,
    ) -> usize {
        // Bind the source port so echo replies reach the sender.
        let _ = self.nodes[node].bind(slice, sport);
        let idx = self.agents.len();
        self.agents.push(AgentSlot::Sender { node, slice, agent: Box::new(agent) });
        self.tx_ports.insert((node, sport), idx);
        self.sched.at(start.max(self.sched.now()), Ev::AgentSend(idx));
        idx
    }

    /// Installs a receiver of flow `flow_id`; returns its local index.
    pub(crate) fn add_receiver(
        &mut self,
        node: usize,
        slice: SliceId,
        port: u16,
        flow_id: u32,
        echo: bool,
    ) -> usize {
        let _ = self.nodes[node].bind(slice, port);
        let idx = self.agents.len();
        self.agents.push(AgentSlot::Receiver { agent: TrafficReceiver::new(flow_id, echo) });
        self.rx_ports.insert((node, port), idx);
        idx
    }

    /// Local agents installed so far (the next agent's index).
    pub(crate) fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// The sender-side logs of an agent (empty for a receiver).
    pub(crate) fn sender_logs(&self, idx: usize) -> (&[SentRecord], &[RttRecord]) {
        match &self.agents[idx] {
            AgentSlot::Sender { agent, .. } => agent.logs(),
            AgentSlot::Receiver { .. } => (&[], &[]),
        }
    }

    pub(crate) fn tcp_stats(&self, idx: usize) -> Option<TcpStats> {
        let AgentSlot::Sender { agent, .. } = &self.agents[idx] else { return None };
        let SenderAgent::Tcp(flow) = agent.as_ref() else { return None };
        Some(flow.stats())
    }

    /// The receive log of an agent (empty for a sender).
    pub(crate) fn receiver_records(&self, idx: usize) -> &[RecvRecord] {
        match &self.agents[idx] {
            AgentSlot::Receiver { agent } => agent.records(),
            AgentSlot::Sender { .. } => &[],
        }
    }

    /// Adds this engine's link, radio, drop and event counters into `m`.
    pub(crate) fn absorb_metrics(&self, m: &mut TestbedMetrics) {
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
        let (d, own) = (&mut m.drops, &self.drops);
        d.core_unroutable += own.core_unroutable;
        d.operator_firewall += own.operator_firewall;
        d.node_egress += own.node_egress;
        d.umts_downlink += own.umts_downlink;
        m.events += self.sched.events_processed();
    }

    /// The per-node isolation audit ([`Node::audit`]), prefixed with the
    /// node name.
    pub(crate) fn audit(&self) -> Vec<String> {
        self.nodes
            .iter()
            .flat_map(|n| {
                let name = n.name;
                n.audit().into_iter().map(move |f| format!("{name}: {f}"))
            })
            .collect()
    }

    /// Starts a run call: arms every node with internal work, so anything
    /// queued since the last run (vsys requests, fault plans) is seen.
    pub(crate) fn arm_all(&mut self) {
        // In debug builds, refuse to simulate a structurally broken
        // configuration (mark collisions, stale UMTS policy state): the
        // dynamic run would silently violate the isolation the paper's
        // rule set promises. Release builds skip the walk entirely.
        #[cfg(debug_assertions)]
        {
            let findings = self.audit();
            debug_assert!(findings.is_empty(), "testbed audit failed: {findings:?}");
        }
        for i in 0..self.nodes.len() {
            self.arm_node(i);
        }
    }

    /// Dispatches every pending event strictly before `horizon`.
    pub(crate) fn run_until(&mut self, horizon: Instant) {
        while let Some(ev) = self.sched.next_before(horizon) {
            self.dispatch(ev);
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        let now = self.sched.now();
        match ev {
            Ev::NodeWake(i) => {
                self.wake_armed[i] = None;
                self.poll_node(now, i);
            }
            Ev::CoreArrive(packet) => self.route_from_core(now, packet),
            Ev::NodeArrive { node, packet } => {
                let node = node as usize;
                let delivery = self.nodes[node].ingress(now, ETH0, packet);
                if delivery.is_some() {
                    self.flush_deliveries(now, node);
                }
                // Ingress may have queued kernel work (ICMP replies).
                self.arm_node(node);
            }
            Ev::CoreDeliver { node, kind, packet } => {
                self.core_deliver(now, node as usize, kind, packet);
            }
            Ev::AgentSend(idx) => self.agent_send(now, idx),
        }
    }

    fn agent_send(&mut self, now: Instant, idx: usize) {
        let AgentSlot::Sender { node, slice, agent } = &mut self.agents[idx] else {
            return;
        };
        let (node, slice) = (*node, *slice);
        let packet = agent.emit(now, self.policy.ids(node), &mut self.pool);
        // Re-arm if the flow continues (a spurious wake emits nothing).
        if let Some(next) = agent.next_departure(now) {
            self.sched.at(next.max(now), Ev::AgentSend(idx));
        }
        if let Some(packet) = packet {
            self.egress(now, node, slice, packet);
        }
    }

    fn egress(&mut self, now: Instant, node: usize, slice: SliceId, packet: Packet) {
        match self.nodes[node].send_from_slice(now, slice, packet) {
            EgressAction::Wire { iface: _, packet } => self.push_forward(now, node, packet),
            EgressAction::Umts => self.arm_node(node),
            EgressAction::Local => self.flush_deliveries(now, node),
            EgressAction::Dropped(_) => self.drops.node_egress += 1,
        }
    }

    /// Sends `packet` up `node`'s access link toward the core.
    #[inline(always)] // per-packet legs: keep them inlined into the dispatch loop
    fn push_forward(&mut self, now: Instant, node: usize, packet: Packet) {
        match self.access[node].forward.push(now, packet, self.policy.link_rng(node)) {
            PushOutcome::Scheduled(deliveries) => {
                for (at, p) in deliveries {
                    self.cross(at, node, p);
                }
            }
            PushOutcome::Dropped { .. } => self.drops.node_egress += 1,
        }
    }

    fn cross(&mut self, at: Instant, origin: usize, packet: Packet) {
        if !self.policy.cross(&mut self.sched, at, origin, packet) {
            self.drops.core_unroutable += 1;
        }
    }

    /// Routes a packet that arrived at the core by scanning for the node
    /// owning its destination: a wired `eth0`, else a UMTS subscriber.
    fn route_from_core(&mut self, now: Instant, packet: Packet) {
        let dst = packet.dst.addr;
        let wired = self.nodes.iter().position(|n| n.eth_addr() == dst);
        let hit = wired.map(|i| (i, HandoffKind::Wire)).or_else(|| {
            let umts = self.nodes.iter().position(|n| n.ppp_addr() == Some(dst));
            umts.map(|i| (i, HandoffKind::Umts))
        });
        match hit {
            Some((node, kind)) => self.core_deliver(now, node, kind, packet),
            None => self.drops.core_unroutable += 1,
        }
    }

    /// Sends a packet at the core down its destination leg into `node`.
    #[inline(always)] // see push_forward
    fn core_deliver(&mut self, now: Instant, node: usize, kind: HandoffKind, packet: Packet) {
        match kind {
            HandoffKind::Wire => {
                let pipe = &mut self.access[node].reverse;
                match pipe.push(now, packet, self.policy.link_rng(node)) {
                    PushOutcome::Scheduled(deliveries) => {
                        for (at, p) in deliveries {
                            let node = node as u32;
                            self.sched.at(at, Ev::NodeArrive { node, packet: p });
                        }
                    }
                    PushOutcome::Dropped { .. } => self.drops.core_unroutable += 1,
                }
            }
            HandoffKind::Umts => match self.nodes[node].deliver_umts_downlink(now, packet) {
                DownlinkOutcome::Queued => self.arm_node(node),
                DownlinkOutcome::BlockedByFirewall => self.drops.operator_firewall += 1,
                DownlinkOutcome::DroppedOverflow | DownlinkOutcome::NotConnected => {
                    self.drops.umts_downlink += 1;
                }
            },
        }
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
            self.cross(now + P::EDGE_HOP, i, p);
        }
        for p in out.wire_tx {
            // Kernel-originated packets (ICMP replies) take the access link.
            self.push_forward(now, i, p);
        }
        self.flush_deliveries(now, i);
        self.arm_node(i);
    }

    fn flush_deliveries(&mut self, now: Instant, node: usize) {
        for d in self.nodes[node].take_delivered() {
            let port = d.packet.dst.port;
            if let Some(&aidx) = self.rx_ports.get(&(node, port)) {
                if let AgentSlot::Receiver { agent } = &mut self.agents[aidx] {
                    let ids = self.policy.ids(node);
                    let echo = agent.on_receive(d.at, &d.packet, ids, &mut self.pool);
                    // The packet dies here: hand its payload allocation
                    // back to the emitters (no-op if still shared).
                    self.pool.reclaim(d.packet.payload);
                    if let Some(echo) = echo {
                        // The echo is emitted by the receiving slice.
                        self.egress(now, node, d.slice, echo);
                    }
                    continue;
                }
            }
            if let Some(&aidx) = self.tx_ports.get(&(node, port)) {
                if let AgentSlot::Sender { agent, .. } = &mut self.agents[aidx] {
                    agent.on_receive(d.at, &d.packet);
                    // A closed-loop sender's window may have just
                    // reopened: re-arm its send event (spurious wakes
                    // are tolerated by agent_send).
                    if matches!(**agent, SenderAgent::Tcp(_)) {
                        if let Some(next) = agent.next_departure(now) {
                            self.sched.at(next.max(now), Ev::AgentSend(aidx));
                        }
                    }
                }
            }
            self.pool.reclaim(d.packet.payload);
        }
    }

    /// Schedules `i`'s next wake: the earliest of the node's own timers,
    /// its supervisor's and its fault plan's.
    pub(crate) fn arm_node(&mut self, i: usize) {
        let mut wake = self.nodes[i].next_wakeup();
        let sup = self.supervisors[i].as_ref().and_then(SessionSupervisor::next_wakeup);
        let due = self.fault_plans[i].as_ref().and_then(FaultPlan::next_due);
        for other in [sup, due].into_iter().flatten() {
            wake = Some(wake.map_or(other, |w| w.min(other)));
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

/// Carves the next subscriber's `/24` out of `operator`'s pool, counting
/// subscribers per operator name in `subscribers`.
///
/// Each subscriber of the same operator gets a disjoint slice, as a real
/// GGSN's per-session allocation guarantees: without this, two nodes on
/// one operator would be assigned the same address and the core could
/// not route to either.
pub(crate) fn carve_subscriber(
    subscribers: &mut BTreeMap<Label, u32>,
    operator: &mut OperatorProfile,
) {
    let index = subscribers.entry(Label::intern(&operator.name)).or_insert(0);
    if let Some(slice) = operator.pool.subnet(24, *index) {
        operator.pool = slice;
    }
    *index += 1;
}
