//! Event-driven synchronous round engine.
//!
//! The engine implements the paper's system model:
//!
//! * execution proceeds in numbered rounds, but the rounds are *emergent*:
//!   the engine drains a deterministic event queue ([`crate::sched`]) of
//!   per-message delivery events and per-node round-timeout timers, and a
//!   node executes round `r` when its round-`r` timer fires;
//! * a message sent in round `r` is delivered at the start of round `r+1`
//!   (if it survives faults, links and the deadline);
//! * a receiver can *detect absence*: when its timer fires, its inbox
//!   simply lacks an entry from the silent sender, and [`RoundCtx::from`]
//!   returns `None` — absence detection is a timeout, not an oracle;
//! * the source of every delivered message is authentic ([`RoundCtx`]
//!   stamps the true sender; processes cannot forge the `src` field —
//!   matching the paper's "oral messages" assumption (c)).
//!
//! Virtual time is quantised: round `r` occupies `[r*(deadline+1),
//! (r+1)*(deadline+1))`, so a sampled latency within the deadline lands the
//! message before the receiver's next timer and a latency beyond it misses
//! the round entirely (read as absent — the late message is discarded at
//! the boundary, never delivered stale). Delivery events sort before
//! timers at equal time, so an arrival *exactly at* the timeout boundary
//! is present, not absent.
//!
//! Process logic is a closure (see [`RoundEngine::run`] and
//! [`RoundEngine::run_with`]). A run reports through its [`Outcome`] alone:
//! every message ends in exactly one of its per-cause counters.

use crate::fault::{FaultPlan, FaultSchedule};
use crate::id::NodeId;
use crate::latency::LatencyModel;
use crate::linkfault::{LinkFaultKind, LinkFaultPlan};
use crate::rng::SimRng;
use crate::sched::{EventClass, EventQueue, SimTime};
use crate::topology::Topology;

/// Protocol-supplied mutator applied to messages hit by
/// [`LinkFaultKind::Corrupt`]. Returning `Some` delivers the garbled
/// payload; returning `None` drops the message (absence — the engine's
/// default when no corruptor is installed, matching the oral-message axiom
/// that detectably damaged messages read as absent).
pub type Corruptor<M> = Box<dyn FnMut(&M, &mut SimRng) -> Option<M>>;

/// Stream label for the dedicated link-chaos RNG fork: chaos draws must not
/// perturb the engine's main stream (latency, omission), so existing seeded
/// runs stay bit-identical when no link faults are configured.
const LINK_CHAOS_STREAM: u64 = 0x4C49_4E4B;

/// Payload of a scheduled engine event: either a message delivery at the
/// receiver or a per-node round timer.
enum EngineEvent<M> {
    /// A message arriving at `dst`. `counted` records whether the engine
    /// already booked the delivery in [`Outcome::delivered`] at send time —
    /// true for on-time messages, false for reorder-held copies, which are
    /// booked when they actually land (when the receiver first sees them).
    Deliver {
        dst: NodeId,
        src: NodeId,
        payload: M,
        counted: bool,
    },
    /// Node `node`'s round-`round` timeout fires: whatever has not arrived
    /// by now is absent for this round.
    Timer { node: usize, round: usize },
}

/// Per-node, per-round context handed to process logic.
#[derive(Debug)]
pub struct RoundCtx<'a, M> {
    me: NodeId,
    round: usize,
    n: usize,
    inbox: &'a [(NodeId, M)],
    peers: &'a [NodeId],
    outbox: Vec<(NodeId, M)>,
}

impl<'a, M: Clone> RoundCtx<'a, M> {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current round number (0-based).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Total number of nodes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ids of this node's direct neighbours, ascending. Borrowed from the
    /// engine — this is called in the per-round hot path, so it must not
    /// allocate.
    pub fn peers(&self) -> &[NodeId] {
        self.peers
    }

    /// Messages delivered at the start of this round, as `(src, payload)`
    /// sorted by source id (stable for determinism). Multiple messages from
    /// the same source are all present.
    pub fn inbox(&self) -> &[(NodeId, M)] {
        self.inbox
    }

    /// First message from `src` this round, if any. `None` means the
    /// message is *detectably absent* (paper assumption (b)).
    pub fn from(&self, src: NodeId) -> Option<&M> {
        self.inbox.iter().find(|(s, _)| *s == src).map(|(_, m)| m)
    }

    /// Whether no message from `src` arrived this round.
    pub fn absent(&self, src: NodeId) -> bool {
        self.from(src).is_none()
    }

    /// Queues a message to `to` (delivered next round if a link exists).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Queues `msg` to every direct neighbour.
    pub fn broadcast(&mut self, msg: M) {
        for &p in self.peers {
            self.outbox.push((p, msg.clone()));
        }
    }
}

/// Perf counters for the arena-backed EIG engine (`degradable::engine`).
///
/// Protocol adapters that fold their receive trees through the shared
/// arena engine attach these counters to [`Outcome::eig`] so experiment
/// reports can surface memoization effectiveness alongside the network
/// counters.
///
/// Equality deliberately **ignores the wall-time fields**
/// (`fill_nanos`, `resolve_nanos`): two runs that performed identical
/// work compare equal even though their timings differ, which keeps
/// harness reports and `Outcome` comparisons bit-stable across machines
/// and worker counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct EigPerf {
    /// EIG nodes allocated in the shared arena (one per label σ, shared
    /// by all receivers).
    pub arena_nodes: u64,
    /// VOTE applications actually computed during bottom-up resolution.
    pub votes_evaluated: u64,
    /// VOTE applications answered from a memoized uniform-subtree
    /// summary instead of being recomputed per receiver.
    pub votes_memo_hit: u64,
    /// Tree slots materialized from relay envelopes (first writes only;
    /// duplicates are folded idempotently and not counted).
    pub messages_materialized: u64,
    /// Subtrees the early-stopping optimization cut at their frontier:
    /// nodes whose certified-fault-set condition held and whose children
    /// were therefore neither filled nor relayed. Zero when early
    /// stopping is off.
    pub subtrees_pruned: u64,
    /// Relay messages that early stopping avoided sending (one per
    /// receiver per skipped relay envelope). Zero when early stopping is
    /// off.
    pub messages_saved: u64,
    /// Wall time of the breadth-first fill phase, in nanoseconds.
    /// Ignored by `==`.
    pub fill_nanos: u64,
    /// Wall time of the bottom-up resolution phase, in nanoseconds.
    /// Ignored by `==`.
    pub resolve_nanos: u64,
}

impl PartialEq for EigPerf {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a counter to EigPerf without
        // deciding whether it participates in equality is a compile
        // error here (and in `scrub_timing` below).
        let EigPerf {
            arena_nodes,
            votes_evaluated,
            votes_memo_hit,
            messages_materialized,
            subtrees_pruned,
            messages_saved,
            fill_nanos: _,
            resolve_nanos: _,
        } = *self;
        let EigPerf {
            arena_nodes: o_arena_nodes,
            votes_evaluated: o_votes_evaluated,
            votes_memo_hit: o_votes_memo_hit,
            messages_materialized: o_messages_materialized,
            subtrees_pruned: o_subtrees_pruned,
            messages_saved: o_messages_saved,
            fill_nanos: _,
            resolve_nanos: _,
        } = *other;
        arena_nodes == o_arena_nodes
            && votes_evaluated == o_votes_evaluated
            && votes_memo_hit == o_votes_memo_hit
            && messages_materialized == o_messages_materialized
            && subtrees_pruned == o_subtrees_pruned
            && messages_saved == o_messages_saved
    }
}

impl Eq for EigPerf {}

impl obs::ScrubTiming for EigPerf {
    fn scrub_timing(&mut self) {
        let EigPerf {
            arena_nodes: _,
            votes_evaluated: _,
            votes_memo_hit: _,
            messages_materialized: _,
            subtrees_pruned: _,
            messages_saved: _,
            fill_nanos,
            resolve_nanos,
        } = self;
        *fill_nanos = 0;
        *resolve_nanos = 0;
    }
}

impl obs::ScrubTiming for Outcome {
    fn scrub_timing(&mut self) {
        obs::scrub_timing(&mut self.eig);
    }
}

impl EigPerf {
    /// Deterministic counters only (everything `==` compares), in a
    /// stable order: arena nodes, votes evaluated, votes memo-hit,
    /// messages materialized, subtrees pruned, messages saved. Handy for
    /// reports that must stay bit-identical across worker counts.
    pub fn deterministic_counters(&self) -> [u64; 6] {
        [
            self.arena_nodes,
            self.votes_evaluated,
            self.votes_memo_hit,
            self.messages_materialized,
            self.subtrees_pruned,
            self.messages_saved,
        ]
    }

    /// Folds the deterministic counters into an observability registry
    /// under the canonical `eig.*` names — the compat shim that lets
    /// report schema v4 re-express `EigPerf` as registry counters.
    pub fn fold_into(&self, registry: &mut obs::Registry) {
        registry.add("eig.arena_nodes", self.arena_nodes);
        registry.add("eig.votes_evaluated", self.votes_evaluated);
        registry.add("eig.votes_memo_hit", self.votes_memo_hit);
        registry.add("eig.messages_materialized", self.messages_materialized);
        registry.add("eig.subtrees_pruned", self.subtrees_pruned);
        registry.add("eig.messages_saved", self.messages_saved);
    }

    /// Accumulate another run's counters into this one (timings add
    /// too, so aggregated wall times stay meaningful).
    pub fn absorb(&mut self, other: &EigPerf) {
        self.arena_nodes += other.arena_nodes;
        self.votes_evaluated += other.votes_evaluated;
        self.votes_memo_hit += other.votes_memo_hit;
        self.messages_materialized += other.messages_materialized;
        self.subtrees_pruned += other.subtrees_pruned;
        self.messages_saved += other.messages_saved;
        self.fill_nanos += other.fill_nanos;
        self.resolve_nanos += other.resolve_nanos;
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Rounds executed.
    pub rounds_run: usize,
    /// Messages handed to the engine by processes.
    pub sent: usize,
    /// Messages delivered before the deadline.
    pub delivered: usize,
    /// Messages dropped by crash faults.
    pub dropped_crash: usize,
    /// Messages dropped by omission faults.
    pub dropped_omission: usize,
    /// Messages that arrived after the deadline (absent to the receiver).
    pub late: usize,
    /// Messages discarded for lack of a topology link.
    pub no_link: usize,
    /// Messages dropped by a link cut.
    pub dropped_link_cut: usize,
    /// Messages lost to probabilistic link loss.
    pub dropped_link_loss: usize,
    /// Extra copies injected by link duplication.
    pub duplicated: usize,
    /// Messages delayed at least one extra round by link reordering.
    pub reordered: usize,
    /// Messages garbled in flight but still delivered (corruptor produced a
    /// mutated payload).
    pub corrupted: usize,
    /// Messages garbled in flight and discarded (no corruptor, or the
    /// corruptor mapped them to absence).
    pub dropped_corrupt: usize,
    /// Arena-backed EIG evaluation counters, populated by protocol
    /// adapters that resolve their receive trees through the shared
    /// engine (zeroed for runs that never fold an EIG tree). Wall-time
    /// fields do not participate in `Outcome` equality.
    pub eig: EigPerf,
}

impl Outcome {
    /// Total chaos-layer injections (cuts, losses, duplicates, reorders and
    /// corruptions) — the per-trial injected-fault count experiments report.
    pub fn link_fault_injections(&self) -> usize {
        self.dropped_link_cut
            + self.dropped_link_loss
            + self.duplicated
            + self.reordered
            + self.corrupted
            + self.dropped_corrupt
    }
}

/// The synchronous round engine.
///
/// ```
/// use simnet::prelude::*;
///
/// let mut engine = RoundEngine::<u32>::new(Topology::complete(3), 1);
/// let outcome = engine.run(1, |ctx| {
///     ctx.broadcast(ctx.me().index() as u32);
/// });
/// assert_eq!(outcome.sent, 6); // 3 nodes x 2 peers
/// ```
pub struct RoundEngine<M> {
    topo: Topology,
    rng: SimRng,
    faults: FaultPlan,
    schedule: Option<FaultSchedule>,
    link_faults: LinkFaultPlan,
    corruptor: Option<Corruptor<M>>,
    latency: LatencyModel,
    deadline: u64,
    _marker: std::marker::PhantomData<M>,
}

impl<M> std::fmt::Debug for RoundEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundEngine")
            .field("topo", &self.topo)
            .field("faults", &self.faults)
            .field("schedule", &self.schedule)
            .field("link_faults", &self.link_faults)
            .field("corruptor", &self.corruptor.as_ref().map(|_| "<fn>"))
            .field("latency", &self.latency)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl<M: Clone> RoundEngine<M> {
    /// Creates an engine over `topo` with the given seed, no faults, zero
    /// latency and an infinite deadline.
    pub fn new(topo: Topology, seed: u64) -> Self {
        RoundEngine {
            topo,
            rng: SimRng::seed(seed),
            faults: FaultPlan::healthy(),
            schedule: None,
            link_faults: LinkFaultPlan::healthy(),
            corruptor: None,
            latency: LatencyModel::Zero,
            deadline: u64::MAX,
            _marker: std::marker::PhantomData,
        }
    }

    /// Sets the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets a time-varying fault schedule (overrides the static plan).
    #[must_use]
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the link-fault (chaos) plan. Link faults apply after node
    /// faults and the topology check, drawing randomness from a dedicated
    /// fork of the engine seed so runs without link faults are unaffected.
    #[must_use]
    pub fn with_link_faults(mut self, link_faults: LinkFaultPlan) -> Self {
        self.link_faults = link_faults;
        self
    }

    /// Installs the corruption mutator used by [`LinkFaultKind::Corrupt`].
    /// Without one, corrupted messages are dropped (read as absent).
    #[must_use]
    pub fn with_corruptor(
        mut self,
        corruptor: impl FnMut(&M, &mut SimRng) -> Option<M> + 'static,
    ) -> Self {
        self.corruptor = Some(Box::new(corruptor));
        self
    }

    /// Sets the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the round deadline: messages with sampled latency strictly
    /// greater than `deadline` are late (absent to the receiver).
    #[must_use]
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = deadline;
        self
    }

    /// The topology this engine runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The link-fault plan.
    pub fn link_faults(&self) -> &LinkFaultPlan {
        &self.link_faults
    }

    /// Runs `rounds` rounds where every node executes the same closure.
    pub fn run(&mut self, rounds: usize, mut step: impl FnMut(&mut RoundCtx<'_, M>)) -> Outcome {
        self.run_with(rounds, |_, ctx| step(ctx))
    }

    /// Core loop: `step(i, ctx)` is invoked for node `i` each round.
    pub fn run_with(
        &mut self,
        rounds: usize,
        mut step: impl FnMut(usize, &mut RoundCtx<'_, M>),
    ) -> Outcome {
        let n = self.topo.node_count();
        let mut outcome = Outcome::default();
        let peers: Vec<Vec<NodeId>> = (0..n)
            .map(|i| self.topo.graph().neighbors(NodeId::new(i)).collect())
            .collect();
        // Chaos draws come from a dedicated fork: configurations without
        // link faults replay the exact pre-chaos main stream (latency,
        // omission), keeping historical seeded runs bit-identical.
        let mut link_rng = self.rng.fork(LINK_CHAOS_STREAM);
        // Round r occupies virtual time [r*quantum, (r+1)*quantum): any
        // within-deadline latency lands on or before the receiver's next
        // timer boundary.
        let quantum: SimTime = SimTime::from(self.deadline).saturating_add(1);
        let mut queue: EventQueue<EngineEvent<M>> = EventQueue::new();
        // Rounds are emergent from timers: every node gets one timeout per
        // round, scheduled in (round, node) order so equal-time timers pop
        // in ascending node id.
        for round in 0..rounds {
            for node in 0..n {
                queue.schedule(
                    round as SimTime * quantum,
                    EventClass::Timer,
                    EngineEvent::Timer { node, round },
                );
            }
        }
        // Per-node receive buffers for the round in progress: on-time
        // arrivals first, reorder-held arrivals appended, then a stable
        // sort by source — the paper-visible inbox order.
        let mut on_time: Vec<Vec<(NodeId, M)>> = vec![Vec::new(); n];
        let mut held: Vec<Vec<(NodeId, M)>> = vec![Vec::new(); n];

        for round in 0..rounds {
            let boundary = round as SimTime * quantum;
            let active: FaultPlan = match &self.schedule {
                Some(s) => s.active(round),
                None => self.faults.clone(),
            };
            // Drain every event at this round's boundary. Deliveries pop
            // before timers (a message arriving exactly at the timeout is
            // present), timers pop in node-id order, and each fired timer
            // may schedule future deliveries (strictly later boundaries).
            while queue.peek_time() == Some(boundary) {
                let event = queue.pop().expect("peeked event exists");
                let timer = match event.payload {
                    EngineEvent::Deliver {
                        dst,
                        src,
                        payload,
                        counted,
                    } => {
                        if counted {
                            // Booked at send time; just land it.
                            on_time[dst.index()].push((src, payload));
                        } else {
                            // Reorder-held copy: booked on arrival.
                            outcome.delivered += 1;
                            held[dst.index()].push((src, payload));
                        }
                        continue;
                    }
                    EngineEvent::Timer { node, round: r } => {
                        debug_assert_eq!(r, round, "timer fired outside its round");
                        node
                    }
                };
                let i = timer;
                let me = NodeId::new(i);
                // Absence detection: whatever is not in the buffers when
                // this timer fires is absent for round `round`.
                let mut inbox = std::mem::take(&mut on_time[i]);
                inbox.append(&mut held[i]);
                // Sort inbox by source for determinism.
                inbox.sort_by_key(|(s, _)| *s);
                let mut ctx = RoundCtx {
                    me,
                    round,
                    n,
                    inbox: &inbox,
                    peers: &peers[i],
                    outbox: Vec::new(),
                };
                step(i, &mut ctx);
                let outbox = ctx.outbox;
                for (dst, msg) in outbox {
                    outcome.sent += 1;
                    if active.crashed(me, round) {
                        outcome.dropped_crash += 1;
                        continue;
                    }
                    let om = active.omission_p(me);
                    if om > 0.0 && self.rng.chance(om) {
                        outcome.dropped_omission += 1;
                        continue;
                    }
                    if !self.topo.graph().has_edge(me, dst) {
                        outcome.no_link += 1;
                        continue;
                    }
                    // Link chaos: each configured kind on this directed
                    // edge acts in insertion order, drawing only from the
                    // dedicated chaos stream.
                    let mut payload = msg;
                    let mut duplicate = false;
                    let mut extra_rounds = 0usize;
                    let mut killed = false;
                    for kind in self.link_faults.kinds(me, dst).to_vec() {
                        match kind {
                            LinkFaultKind::Cut { from_round } => {
                                if round >= from_round {
                                    outcome.dropped_link_cut += 1;
                                    killed = true;
                                    break;
                                }
                            }
                            LinkFaultKind::Drop { p } => {
                                if p > 0.0 && link_rng.chance(p) {
                                    outcome.dropped_link_loss += 1;
                                    killed = true;
                                    break;
                                }
                            }
                            LinkFaultKind::Corrupt { p } => {
                                if p > 0.0 && link_rng.chance(p) {
                                    let garbled = self
                                        .corruptor
                                        .as_mut()
                                        .and_then(|c| c(&payload, &mut link_rng));
                                    match garbled {
                                        Some(g) => {
                                            payload = g;
                                            outcome.corrupted += 1;
                                        }
                                        None => {
                                            outcome.dropped_corrupt += 1;
                                            killed = true;
                                            break;
                                        }
                                    }
                                }
                            }
                            LinkFaultKind::Duplicate { p } => {
                                if p > 0.0 && !duplicate && link_rng.chance(p) {
                                    duplicate = true;
                                    outcome.duplicated += 1;
                                }
                            }
                            LinkFaultKind::Reorder { window } => {
                                if window > 0 && extra_rounds == 0 {
                                    let d = link_rng.below(window as u64 + 1) as usize;
                                    if d > 0 {
                                        extra_rounds = d;
                                        outcome.reordered += 1;
                                    }
                                }
                            }
                        }
                    }
                    if killed {
                        continue;
                    }
                    let latency = self.latency.sample(&mut self.rng) + active.extra_delay(me);
                    if latency > self.deadline {
                        outcome.late += 1;
                        continue;
                    }
                    let copies = if duplicate { 2 } else { 1 };
                    for _ in 0..copies {
                        if extra_rounds > 0 {
                            // Delivery shifts from round+1 to
                            // round+1+extra_rounds; events scheduled past
                            // the final timer are never popped — messages
                            // still in flight when the run ends are lost.
                            queue.schedule(
                                (round + 1 + extra_rounds) as SimTime * quantum,
                                EventClass::Deliver,
                                EngineEvent::Deliver {
                                    dst,
                                    src: me,
                                    payload: payload.clone(),
                                    counted: false,
                                },
                            );
                            continue;
                        }
                        outcome.delivered += 1;
                        queue.schedule(
                            (round + 1) as SimTime * quantum,
                            EventClass::Deliver,
                            EngineEvent::Deliver {
                                dst,
                                src: me,
                                payload: payload.clone(),
                                counted: true,
                            },
                        );
                    }
                }
            }
            outcome.rounds_run += 1;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn broadcast_delivers_next_round() {
        let mut engine = RoundEngine::<u64>::new(Topology::complete(3), 1);
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 3];
        engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 {
                ctx.broadcast(10 + i as u64);
            } else {
                seen[i] = ctx.inbox().iter().map(|(_, m)| *m).collect();
            }
        });
        assert_eq!(seen[0], vec![11, 12]);
        assert_eq!(seen[1], vec![10, 12]);
        assert_eq!(seen[2], vec![10, 11]);
    }

    #[test]
    fn crash_fault_silences_sender() {
        let faults = FaultPlan::healthy().with(n(0), FaultKind::Crash { from_round: 0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(3), 1).with_faults(faults);
        let mut got_from_zero = false;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 {
                ctx.broadcast(1);
            } else if i != 0 && !ctx.absent(n(0)) {
                got_from_zero = true;
            }
        });
        assert!(!got_from_zero, "crashed node must be absent");
        assert_eq!(outcome.dropped_crash, 2);
    }

    #[test]
    fn absence_is_detectable() {
        let mut engine = RoundEngine::<u8>::new(Topology::complete(3), 1);
        let mut absent_seen = false;
        engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i != 1 {
                ctx.broadcast(7); // node 1 stays silent
            }
            if ctx.round() == 1 && i == 0 {
                absent_seen = ctx.absent(n(1)) && !ctx.absent(n(2));
            }
        });
        assert!(absent_seen);
    }

    #[test]
    fn messages_to_non_neighbors_are_discarded() {
        let mut engine = RoundEngine::<u8>::new(Topology::path(3), 1);
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(2), 5); // no 0-2 edge in a path
                ctx.send(n(1), 5);
            }
        });
        assert_eq!(outcome.no_link, 1);
        assert_eq!(outcome.delivered, 1);
    }

    #[test]
    fn deadline_makes_slow_messages_absent() {
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 3)
            .with_latency(LatencyModel::Fixed(10))
            .with_deadline(5);
        let mut delivered_any = false;
        let outcome = engine.run_with(2, |_, ctx| {
            if ctx.round() == 0 {
                ctx.broadcast(1);
            } else if !ctx.inbox().is_empty() {
                delivered_any = true;
            }
        });
        assert!(!delivered_any);
        assert_eq!(outcome.late, 2);
    }

    #[test]
    fn delay_fault_pushes_past_deadline() {
        let faults = FaultPlan::healthy().with(n(0), FaultKind::Delay { extra: 100 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 3)
            .with_faults(faults)
            .with_deadline(50);
        let outcome = engine.run_with(2, |_, ctx| {
            if ctx.round() == 0 {
                ctx.broadcast(1);
            }
        });
        assert_eq!(outcome.late, 1); // node 0's message
        assert_eq!(outcome.delivered, 1); // node 1's message
    }

    #[test]
    fn fault_schedule_bursts_and_recovers() {
        use crate::fault::FaultSchedule;
        // Node 0 crashes only during rounds 1..3.
        let schedule = FaultSchedule::healthy()
            .then_from(
                1,
                FaultPlan::healthy().with(n(0), FaultKind::Crash { from_round: 0 }),
            )
            .then_from(3, FaultPlan::healthy());
        let mut engine =
            RoundEngine::<u8>::new(Topology::complete(2), 1).with_fault_schedule(schedule);
        let mut heard_from_zero = [false; 5];
        engine.run_with(5, |i, ctx| {
            ctx.broadcast(1);
            if i == 1 && ctx.round() > 0 {
                heard_from_zero[ctx.round()] = !ctx.absent(n(0));
            }
        });
        // round r inbox reflects sends of round r-1: silent in 1..3.
        assert!(heard_from_zero[1]); // sent in round 0 (healthy)
        assert!(!heard_from_zero[2]); // sent in round 1 (crashed)
        assert!(!heard_from_zero[3]); // sent in round 2 (crashed)
        assert!(heard_from_zero[4]); // sent in round 3 (recovered)
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let faults = FaultPlan::healthy().with(n(1), FaultKind::Omission { p: 0.5 });
        let run = |seed: u64| {
            let mut engine =
                RoundEngine::<u8>::new(Topology::complete(4), seed).with_faults(faults.clone());
            engine.run_with(3, |_, ctx| {
                ctx.broadcast(0);
            })
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).dropped_omission, 0); // at least one drop at p=0.5 over 9 msgs (seed-checked)
    }

    #[test]
    fn link_cut_drops_from_its_round() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Cut { from_round: 1 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(plan);
        let mut heard = [false; 3];
        let outcome = engine.run_with(3, |i, ctx| {
            ctx.broadcast(1);
            if i == 1 && ctx.round() > 0 {
                heard[ctx.round()] = !ctx.absent(n(0));
            }
        });
        assert!(heard[1], "round-0 send predates the cut");
        assert!(!heard[2], "round-1 send hits the cut");
        assert_eq!(outcome.dropped_link_cut, 2); // rounds 1 and 2
    }

    #[test]
    fn link_drop_is_one_directional() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Drop { p: 1.0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(plan);
        let mut one_heard = false;
        let mut zero_heard = false;
        let outcome = engine.run_with(2, |i, ctx| {
            ctx.broadcast(1);
            if ctx.round() == 1 {
                if i == 1 {
                    one_heard = !ctx.absent(n(0));
                } else {
                    zero_heard = !ctx.absent(n(1));
                }
            }
        });
        assert!(!one_heard, "0->1 is fully lossy");
        assert!(zero_heard, "1->0 is healthy");
        assert_eq!(outcome.dropped_link_loss, 2);
    }

    #[test]
    fn link_duplicate_delivers_two_copies() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Duplicate { p: 1.0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(plan);
        let mut copies = 0;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(1), 7);
            }
            if ctx.round() == 1 && i == 1 {
                copies = ctx.inbox().iter().filter(|(s, _)| *s == n(0)).count();
            }
        });
        assert_eq!(copies, 2);
        assert_eq!(outcome.duplicated, 1);
        assert_eq!(outcome.delivered, 2);
        assert_eq!(outcome.sent, 1);
    }

    #[test]
    fn link_reorder_delays_delivery_by_window_rounds() {
        // window = 1 forces delay in {0, 1}; run enough messages that both
        // on-time and delayed deliveries occur, and assert every message
        // arrives exactly once, in round +1 or +2.
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Reorder { window: 1 });
        let mut engine = RoundEngine::<u64>::new(Topology::complete(2), 5).with_link_faults(plan);
        let mut arrivals: Vec<(usize, u64)> = Vec::new(); // (arrival round, tag)
        let outcome = engine.run_with(8, |i, ctx| {
            if i == 0 && ctx.round() < 5 {
                ctx.send(n(1), ctx.round() as u64);
            }
            if i == 1 {
                for (_, tag) in ctx.inbox() {
                    arrivals.push((ctx.round(), *tag));
                }
            }
        });
        assert_eq!(arrivals.len(), 5, "every message arrives exactly once");
        for (arrived, tag) in &arrivals {
            let sent = *tag as usize;
            assert!(
                *arrived == sent + 1 || *arrived == sent + 2,
                "tag {tag} sent r{sent} arrived r{arrived}"
            );
        }
        assert!(outcome.reordered > 0, "seed-checked: some delay drawn");
        assert_eq!(outcome.delivered, 5);
    }

    #[test]
    fn corrupt_without_corruptor_reads_as_absence() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Corrupt { p: 1.0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(plan);
        let mut heard = false;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(1), 7);
            }
            if ctx.round() == 1 && i == 1 {
                heard = !ctx.absent(n(0));
            }
        });
        assert!(!heard, "corruption without a corruptor is absence");
        assert_eq!(outcome.dropped_corrupt, 1);
        assert_eq!(outcome.corrupted, 0);
    }

    #[test]
    fn corruptor_mutates_payload_in_flight() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Corrupt { p: 1.0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1)
            .with_link_faults(plan)
            .with_corruptor(|m: &u8, _rng: &mut SimRng| Some(m ^ 0xFF));
        let mut got = None;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(1), 7);
            }
            if ctx.round() == 1 && i == 1 {
                got = ctx.from(n(0)).copied();
            }
        });
        assert_eq!(got, Some(7 ^ 0xFF));
        assert_eq!(outcome.corrupted, 1);
        assert_eq!(outcome.dropped_corrupt, 0);
    }

    #[test]
    fn chaos_draws_leave_main_stream_untouched() {
        // A run with link faults on an *unused* edge direction must produce
        // the same omission/latency decisions as a run without any plan:
        // chaos randomness comes only from the dedicated fork.
        let faults = FaultPlan::healthy().with(n(1), FaultKind::Omission { p: 0.5 });
        let run = |plan: LinkFaultPlan| {
            let mut engine = RoundEngine::<u8>::new(Topology::complete(4), 9)
                .with_faults(faults.clone())
                .with_link_faults(plan);
            engine.run_with(3, |_, ctx| {
                ctx.broadcast(0);
            })
        };
        let clean = run(LinkFaultPlan::healthy());
        let chaotic =
            run(LinkFaultPlan::healthy().with(n(2), n(3), LinkFaultKind::Duplicate { p: 1.0 }));
        assert_eq!(clean.dropped_omission, chaotic.dropped_omission);
        assert!(chaotic.duplicated > 0);
    }

    #[test]
    fn scheduled_crash_then_link_cut_does_not_double_count() {
        // Satellite: a node that crashes mid-run and *later* also has its
        // links cut. Every undelivered message must be attributed to
        // exactly one cause (crash wins, being checked first), and the
        // node-fault count ignores link faults entirely.
        use crate::fault::FaultSchedule;
        let schedule = FaultSchedule::healthy().then_from(
            1,
            FaultPlan::healthy().with(n(0), FaultKind::Crash { from_round: 0 }),
        );
        let plan = LinkFaultPlan::healthy()
            .with(n(0), n(1), LinkFaultKind::Cut { from_round: 2 })
            .with(n(1), n(0), LinkFaultKind::Cut { from_round: 2 });
        assert_eq!(schedule.peak_fault_count(), 1, "link cuts add no faults");
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1)
            .with_fault_schedule(schedule)
            .with_link_faults(plan);
        let outcome = engine.run_with(4, |_, ctx| {
            ctx.broadcast(1);
        });
        // Node 0 sends 4 messages: round 0 delivered, rounds 1-3 crash.
        // Node 1 sends 4: rounds 0-1 delivered, rounds 2-3 link-cut.
        assert_eq!(outcome.dropped_crash, 3);
        assert_eq!(outcome.dropped_link_cut, 2);
        assert_eq!(outcome.delivered, 3);
        assert_eq!(
            outcome.dropped_crash + outcome.dropped_link_cut + outcome.delivered,
            outcome.sent,
            "each message has exactly one disposition"
        );
    }

    #[test]
    fn mid_run_fault_activation_with_cuts_recovers() {
        // FaultSchedule burst + link cut overlapping, then both clear
        // (the cut stays; the crash clears) — deliveries resume only on
        // the uncut direction.
        use crate::fault::FaultSchedule;
        let schedule = FaultSchedule::healthy()
            .then_from(
                1,
                FaultPlan::healthy().with(n(1), FaultKind::Crash { from_round: 0 }),
            )
            .then_from(2, FaultPlan::healthy());
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Cut { from_round: 1 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1)
            .with_fault_schedule(schedule)
            .with_link_faults(plan);
        let mut zero_heard_in = Vec::new();
        engine.run_with(4, |i, ctx| {
            ctx.broadcast(1);
            if i == 0 && ctx.round() > 0 && !ctx.absent(n(1)) {
                zero_heard_in.push(ctx.round());
            }
        });
        // 1->0 is never cut: only node 1's round-1 crash silences it.
        assert_eq!(zero_heard_in, vec![1, 3]);
    }

    #[test]
    fn eig_perf_scrub_timing_zeroes_only_wall_fields() {
        let mut perf = EigPerf {
            arena_nodes: 1,
            votes_evaluated: 2,
            votes_memo_hit: 3,
            messages_materialized: 4,
            subtrees_pruned: 7,
            messages_saved: 8,
            fill_nanos: 5,
            resolve_nanos: 6,
        };
        obs::scrub_timing(&mut perf);
        assert_eq!(perf.deterministic_counters(), [1, 2, 3, 4, 7, 8]);
        assert_eq!((perf.fill_nanos, perf.resolve_nanos), (0, 0));
        let mut reg = obs::Registry::new();
        perf.fold_into(&mut reg);
        assert_eq!(reg.counter("eig.votes_evaluated"), 2);
    }

    #[test]
    fn closure_run_variant() {
        let mut engine = RoundEngine::<u32>::new(Topology::complete(3), 1);
        let outcome = engine.run(1, |ctx| ctx.broadcast(1));
        assert_eq!(outcome.sent, 6);
        assert_eq!(outcome.rounds_run, 1);
    }
}
