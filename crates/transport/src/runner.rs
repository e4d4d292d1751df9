//! Scenario drivers: one BYZ instance, any backend.
//!
//! The driver loop is identical everywhere — poll the transport, feed the
//! event to the node's [`NodeStateMachine`], perform the returned actions
//! — but the concurrency shape differs: [`run_sim`] multiplexes all `n`
//! endpoints on the calling thread (the shared event queue dictates the
//! order, so the sweep pattern is irrelevant), while the channel and TCP
//! meshes behind [`run_kind`] give every node its own OS thread running
//! [`drive_mesh`] and let real scheduling happen. Every backend returns a
//! [`TransportRun`] carrying decisions, the per-node EIG views (the
//! reference fold's input, for re-deriving decisions through
//! `EigView::resolve`), and merged traffic stats — the differential
//! suite's raw material.
//!
//! Three entry points: [`run_sim`] (the simulator, with optional §6
//! skew), [`run_kind`] (any backend by [`TransportKind`]) and
//! [`drive_mesh`] (one already-joined mesh endpoint).

use crate::mesh::{channel_mesh, tcp_mesh, MeshConfig, MeshTransport};
use crate::sim::{RelaxedTiming, SimWorld};
use crate::{LinkChaos, PollOutcome, Transport, TransportKind, TransportStats};
use degradable::{
    AgreementValue, ByzInstance, ByzMsg, EigView, NodeAction, NodeStateMachine, Strategy, Val,
};
use obs::{Obs, SpanRecord, TraceCtx};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

/// Backend-independent run knobs (all off by default).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Arm every machine with certified-fault-set early stopping
    /// against the strategy key set (DESIGN.md §5h): relays below
    /// prunable paths are skipped and the saving is reported in the
    /// run's prune counters.
    pub early_stop: bool,
    /// Record a per-node [`LoggedEvent`] trace — the raw material for
    /// replaying a threaded mesh run through `SpecChecker` one node at
    /// a time.
    pub record_events: bool,
    /// Stamp every outgoing envelope with a causal [`TraceCtx`] and
    /// record `trace.*` spans (send, deliver, close, decide) per node.
    /// Spans carry a monotone per-node logical clock, so the merged
    /// trace is deterministic across backends, worker counts, and
    /// reruns in the logical dimension.
    pub trace: bool,
}

impl RunOptions {
    /// Options with early stopping armed.
    pub fn early_stop() -> Self {
        RunOptions {
            early_stop: true,
            ..RunOptions::default()
        }
    }

    /// Options with causal tracing armed.
    pub fn traced() -> Self {
        RunOptions {
            trace: true,
            ..RunOptions::default()
        }
    }
}

/// Per-node causal trace recorder behind [`RunOptions::trace`].
///
/// Every protocol-visible event on the node gets a point span —
/// `trace.send` (with the stamped context and destination),
/// `trace.deliver` (with the carried context, if the backend delivered
/// one), `trace.close` (round barrier) and `trace.decide` — whose
/// `logical` field is a monotone per-node event counter. Wall time is
/// deliberately zero: these are point events in logical time, and the
/// causal chain (`TraceCtx::is_parent_of`) plus the per-node clock is
/// what the critical-path reconstruction consumes.
#[derive(Debug)]
pub struct NodeTracer {
    obs: Obs,
    instance: u64,
    node: NodeId,
    clock: u64,
}

impl NodeTracer {
    /// A tracer for `node`, recording under agreement instance id
    /// `instance`. Every span carries a `node` attribute, so merged
    /// multi-node traces stay attributable.
    pub fn new(instance: u64, node: NodeId) -> Self {
        NodeTracer {
            obs: Obs::enabled(),
            instance,
            node,
            clock: 0,
        }
    }

    /// A tracer retaining at most `capacity` spans (see
    /// [`Obs::enabled_bounded`]); drops stay detectable through the
    /// `obs.dropped_spans` counter.
    pub fn bounded(instance: u64, node: NodeId, capacity: usize) -> Self {
        NodeTracer {
            obs: Obs::enabled_bounded(capacity),
            instance,
            node,
            clock: 0,
        }
    }

    /// The context this node stamps on an outgoing envelope.
    pub fn ctx_for(&self, msg: &ByzMsg<u64>) -> TraceCtx {
        TraceCtx::new(
            self.instance,
            msg.path
                .as_slice()
                .iter()
                .map(|id| id.index() as u64)
                .collect(),
        )
    }

    fn record(&mut self, name: &'static str, mut args: Vec<(String, u64)>) {
        self.clock += 1;
        args.push(("node".to_string(), self.node.index() as u64));
        self.obs.record_span(SpanRecord {
            name: name.to_string(),
            args,
            logical: self.clock,
            wall_nanos: 0,
        });
    }

    fn record_send(&mut self, to: NodeId, ctx: &TraceCtx) {
        let mut args = ctx.span_args();
        args.push(("to".to_string(), to.index() as u64));
        self.record("trace.send", args);
        self.obs.add("trace.sends", 1);
    }

    fn record_deliver(&mut self, src: NodeId, ctx: Option<TraceCtx>) {
        let mut args = match &ctx {
            Some(ctx) => ctx.span_args(),
            None => Vec::new(),
        };
        args.push(("src".to_string(), src.index() as u64));
        self.record("trace.deliver", args);
        self.obs.add("trace.delivers", 1);
        if ctx.is_none() {
            // Either the sender ran untraced or the wire trace section
            // was malformed and degraded — both are worth counting.
            self.obs.add("trace.delivers_untraced", 1);
        }
    }

    fn record_close(&mut self, round: usize) {
        self.record("trace.close", vec![("round".to_string(), round as u64)]);
    }

    fn record_decide(&mut self, value: &Val) {
        let args = match value {
            AgreementValue::Value(v) => vec![
                ("instance".to_string(), self.instance),
                ("value".to_string(), *v),
            ],
            AgreementValue::Default => vec![
                ("instance".to_string(), self.instance),
                ("is_default".to_string(), 1),
            ],
        };
        self.record("trace.decide", args);
        self.obs.add("trace.decides", 1);
    }

    /// Consumes the tracer, yielding the recorded spans and counters.
    pub fn into_obs(self) -> Obs {
        self.obs
    }
}

/// One entry of a node's event log: exactly what the machine saw and
/// what it emitted, in machine order. Sends are recorded as the machine
/// handed them to the transport — *before* any chaos disposition — so a
/// spec replay judges the node, not the network.
#[derive(Debug, Clone)]
pub enum LoggedEvent {
    /// An envelope was delivered to the machine.
    Deliver {
        /// Transport-authenticated source.
        src: NodeId,
        /// The envelope.
        msg: ByzMsg<u64>,
    },
    /// A round timeout closed on the machine.
    Close {
        /// The closed round.
        round: usize,
        /// Every send the close emitted, pre-chaos.
        sends: Vec<(NodeId, ByzMsg<u64>)>,
        /// The decision, if this close made one.
        decided: Option<Val>,
    },
}

/// What one node produced over one run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// The node.
    pub node: NodeId,
    /// Its decision (`None` for the sender, which never decides).
    pub decision: Option<Val>,
    /// Its EIG receive view — the exact fold input.
    pub view: EigView<u64>,
    /// Traffic attributed to its endpoint.
    pub stats: TransportStats,
    /// Set when the endpoint's run degenerated into a clean error — every
    /// peer permanently gone after the reconnect budget (mesh backends
    /// only; always `None` on the simulator).
    pub failure: Option<String>,
    /// The node's event log (empty unless
    /// [`RunOptions::record_events`]).
    pub events: Vec<LoggedEvent>,
    /// Subtrees this node declined to relay below (zero unless
    /// [`RunOptions::early_stop`]).
    pub subtrees_pruned: u64,
    /// Sends this node skipped via early stopping (zero unless armed).
    pub messages_saved: u64,
    /// The node's trace recorder output (disabled unless
    /// [`RunOptions::trace`]).
    pub obs: Obs,
}

/// The outcome of one scenario on one backend.
#[derive(Debug, Clone)]
pub struct TransportRun {
    /// Which backend produced it.
    pub kind: TransportKind,
    /// Every receiver's decision (the sender never decides).
    pub decisions: BTreeMap<NodeId, Val>,
    /// Every node's EIG view, for reference re-derivation.
    pub views: BTreeMap<NodeId, EigView<u64>>,
    /// Run-total traffic statistics.
    pub stats: TransportStats,
    /// Run-total subtrees pruned by early stopping.
    pub subtrees_pruned: u64,
    /// Run-total sends skipped by early stopping.
    pub messages_saved: u64,
    /// Per-node event logs (empty unless [`RunOptions::record_events`]).
    pub node_events: BTreeMap<NodeId, Vec<LoggedEvent>>,
    /// All nodes' trace recorders merged in node order (disabled unless
    /// [`RunOptions::trace`]); the deterministic input for critical-path
    /// reconstruction and the SLO layer.
    pub obs: Obs,
}

impl TransportRun {
    fn assemble(kind: TransportKind, outcomes: Vec<NodeOutcome>) -> Self {
        let mut decisions = BTreeMap::new();
        let mut views = BTreeMap::new();
        let mut stats = TransportStats::default();
        let mut subtrees_pruned = 0;
        let mut messages_saved = 0;
        let mut node_events = BTreeMap::new();
        let mut obs = if outcomes.iter().any(|o| o.obs.is_enabled()) {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        for o in outcomes {
            if let Some(d) = o.decision {
                decisions.insert(o.node, d);
            }
            views.insert(o.node, o.view);
            stats.merge(&o.stats);
            subtrees_pruned += o.subtrees_pruned;
            messages_saved += o.messages_saved;
            obs.merge(&o.obs);
            if !o.events.is_empty() {
                node_events.insert(o.node, o.events);
            }
        }
        TransportRun {
            kind,
            decisions,
            views,
            stats,
            subtrees_pruned,
            messages_saved,
            node_events,
            obs,
        }
    }
}

fn machines_for(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    options: RunOptions,
) -> Vec<NodeStateMachine<u64>> {
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    NodeId::all(instance.n())
        .map(|me| {
            let machine =
                NodeStateMachine::new(instance, me, sender_value, strategies.get(&me).cloned());
            if options.early_stop {
                machine.with_early_stop(&faulty)
            } else {
                machine
            }
        })
        .collect()
}

/// Feeds `event`-produced actions back into the transport; returns the
/// decision if the machine made one. With a log attached, records the
/// delivery or the full close (round, pre-chaos sends, decision). With a
/// tracer attached, stamps every send with its causal context and
/// records the node's `trace.*` spans.
fn perform<T: Transport>(
    transport: &mut T,
    machine: &mut NodeStateMachine<u64>,
    event: degradable::NodeEvent<u64>,
    mut log: Option<&mut Vec<LoggedEvent>>,
    mut tracer: Option<&mut NodeTracer>,
) -> Option<Val> {
    let closing_round = match &event {
        degradable::NodeEvent::Timeout { round } => {
            if let Some(t) = tracer.as_deref_mut() {
                t.record_close(*round);
            }
            Some(*round)
        }
        degradable::NodeEvent::Deliver { src, msg } => {
            if let Some(t) = tracer.as_deref_mut() {
                // `last_trace` is the context of the delivery `poll`
                // just surfaced — exactly this event.
                t.record_deliver(*src, transport.last_trace());
            }
            if let Some(log) = log.as_deref_mut() {
                log.push(LoggedEvent::Deliver {
                    src: *src,
                    msg: msg.clone(),
                });
            }
            None
        }
    };
    let mut decision = None;
    let mut sends = Vec::new();
    for action in machine.on_event(event) {
        match action {
            NodeAction::Send { to, msg } => {
                if log.is_some() && closing_round.is_some() {
                    sends.push((to, msg.clone()));
                }
                match tracer.as_deref_mut() {
                    Some(t) => {
                        let ctx = t.ctx_for(&msg);
                        t.record_send(to, &ctx);
                        transport.send_traced(to, msg, Some(ctx));
                    }
                    None => transport.send(to, msg),
                }
            }
            NodeAction::Decide { value } => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.record_decide(&value);
                }
                decision = Some(value);
            }
        }
    }
    if let (Some(round), Some(log)) = (closing_round, log) {
        log.push(LoggedEvent::Close {
            round,
            sends,
            decided: decision,
        });
    }
    decision
}

/// Runs the scenario on the deterministic simulator backend.
///
/// `relaxed` injects §6 clock skew (see [`RelaxedTiming::when_degraded`]);
/// `None` keeps absence detection exact. The result is bit-identical for
/// identical inputs, regardless of how the internal sweep is scheduled.
pub fn run_sim(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    relaxed: Option<RelaxedTiming>,
    options: RunOptions,
) -> TransportRun {
    let n = instance.n();
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    let mut endpoints = SimWorld::endpoints(n, instance.depth(), chaos, relaxed, faulty);
    let mut machines = machines_for(instance, sender_value, strategies, options);
    let mut decisions: Vec<Option<Val>> = vec![None; n];
    let mut logs: Vec<Vec<LoggedEvent>> = vec![Vec::new(); n];
    let mut tracers: Vec<Option<NodeTracer>> = (0..n)
        .map(|i| options.trace.then(|| NodeTracer::new(0, NodeId::new(i))))
        .collect();
    loop {
        let mut all_closed = true;
        let mut progressed = false;
        for i in 0..n {
            loop {
                match endpoints[i].poll() {
                    PollOutcome::Event(event) => {
                        progressed = true;
                        all_closed = false;
                        if machines[i].is_done() {
                            // Defensive: the world never schedules past the
                            // final timer, so this is unreachable — but a
                            // stray event must not feed a finished machine.
                            continue;
                        }
                        let log = options.record_events.then_some(&mut logs[i]);
                        if let Some(d) = perform(
                            &mut endpoints[i],
                            &mut machines[i],
                            event,
                            log,
                            tracers[i].as_mut(),
                        ) {
                            decisions[i] = Some(d);
                        }
                    }
                    PollOutcome::Pending => {
                        all_closed = false;
                        break;
                    }
                    PollOutcome::Closed => break,
                }
            }
        }
        if all_closed {
            break;
        }
        assert!(progressed, "sim driver stalled with events pending");
    }
    let outcomes = machines
        .iter()
        .zip(&endpoints)
        .zip(std::mem::take(&mut logs))
        .zip(std::mem::take(&mut tracers))
        .enumerate()
        .map(|(i, (((m, t), events), tracer))| NodeOutcome {
            node: NodeId::new(i),
            decision: decisions[i],
            view: m.view().clone(),
            stats: t.stats(),
            failure: None,
            events,
            subtrees_pruned: m.subtrees_pruned(),
            messages_saved: m.messages_saved(),
            obs: tracer.map_or_else(Obs::disabled, NodeTracer::into_obs),
        })
        .collect();
    TransportRun::assemble(TransportKind::Sim, outcomes)
}

/// Knobs for [`drive_mesh`] — one mesh endpoint's driver loop, as used
/// per node by the channel and TCP backends of [`run_kind`] and
/// standalone by `dagree serve`.
#[derive(Debug, Clone, Default)]
pub struct MeshDriveOptions {
    /// Record a per-node [`LoggedEvent`] log.
    pub record_events: bool,
    /// Stamp sends with a [`TraceCtx`] and record `trace.*` spans.
    pub trace: bool,
    /// Agreement instance id stamped into contexts (0 outside batches).
    pub instance: u64,
    /// Append a JSONL registry snapshot to this file at every round
    /// close — the `dagree serve --metrics-out` live-metrics hook. Each
    /// line is `{"node":i,"round":r,"registry":{...}}`. Write failures
    /// disable the sink with a stderr warning, never kill the run:
    /// metrics are observability, not protocol.
    pub metrics_out: Option<PathBuf>,
}

/// Drives one mesh endpoint to completion on the current thread — the
/// loop `dagree serve` runs after [`crate::tcp_join`] hands it a joined
/// endpoint, and the per-node body of the channel and TCP backends of
/// [`run_kind`].
pub fn drive_mesh(
    mut transport: MeshTransport,
    mut machine: NodeStateMachine<u64>,
    options: &MeshDriveOptions,
) -> NodeOutcome {
    let me = transport.me();
    let mut decision = None;
    let mut events = Vec::new();
    let mut tracer = options.trace.then(|| NodeTracer::new(options.instance, me));
    let mut sink = options.metrics_out.as_ref().and_then(|path| {
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("metrics-out: cannot open {}: {e}", path.display());
                None
            }
        }
    });
    loop {
        match transport.poll() {
            PollOutcome::Event(event) => {
                let closed_round = match &event {
                    degradable::NodeEvent::Timeout { round } => Some(*round),
                    degradable::NodeEvent::Deliver { .. } => None,
                };
                let log = options.record_events.then_some(&mut events);
                if let Some(d) = perform(&mut transport, &mut machine, event, log, tracer.as_mut())
                {
                    decision = Some(d);
                }
                if let (Some(round), Some(f)) = (closed_round, sink.as_mut()) {
                    if let Err(e) = write_metrics_line(f, me, round, tracer.as_ref(), &transport) {
                        eprintln!("metrics-out: write failed, disabling: {e}");
                        sink = None;
                    }
                }
            }
            PollOutcome::Pending => thread::sleep(Duration::from_micros(100)),
            PollOutcome::Closed => break,
        }
    }
    NodeOutcome {
        node: me,
        decision,
        view: machine.view().clone(),
        stats: transport.stats(),
        failure: transport.failure().map(str::to_owned),
        events,
        subtrees_pruned: machine.subtrees_pruned(),
        messages_saved: machine.messages_saved(),
        obs: tracer.map_or_else(Obs::disabled, NodeTracer::into_obs),
    }
}

/// One live-metrics JSONL line: the node's trace registry (when tracing)
/// plus transport traffic counters, stamped with node and round.
fn write_metrics_line(
    f: &mut std::fs::File,
    me: NodeId,
    round: usize,
    tracer: Option<&NodeTracer>,
    transport: &MeshTransport,
) -> io::Result<()> {
    let mut registry = tracer.map_or_else(obs::Registry::new, |t| t.obs.registry().clone());
    let stats = transport.stats();
    registry.set_counter("net.sent", stats.sent);
    registry.set_counter("net.delivered", stats.delivered);
    registry.set_counter("net.dropped", stats.dropped());
    registry.set_counter("net.false_timeouts", stats.false_timeouts);
    let line = obs::JsonValue::Object(vec![
        ("node".into(), (me.index() as u64).into()),
        ("round".into(), (round as u64).into()),
        ("registry".into(), registry.to_json()),
    ]);
    writeln!(f, "{}", line.to_json_string())
}

fn run_mesh(
    kind: TransportKind,
    mesh: Vec<MeshTransport>,
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    options: RunOptions,
) -> TransportRun {
    let machines = machines_for(instance, sender_value, strategies, options);
    let drive = MeshDriveOptions {
        record_events: options.record_events,
        trace: options.trace,
        ..MeshDriveOptions::default()
    };
    let handles: Vec<_> = mesh
        .into_iter()
        .zip(machines)
        .map(|(t, m)| {
            let drive = drive.clone();
            thread::spawn(move || drive_mesh(t, m, &drive))
        })
        .collect();
    let outcomes = handles
        .into_iter()
        .map(|h| h.join().expect("mesh node thread panicked"))
        .collect();
    TransportRun::assemble(kind, outcomes)
}

/// Runs the scenario on the backend selected by `kind` — the harness/CLI
/// entry point. The simulator runs with exact absence detection (use
/// [`run_sim`] for §6 skew); the channel and TCP meshes run one OS thread
/// per node. Only the TCP backend can actually fail (socket setup).
pub fn run_kind(
    kind: TransportKind,
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    config: MeshConfig,
    options: RunOptions,
) -> io::Result<TransportRun> {
    let mesh = match kind {
        TransportKind::Sim => {
            return Ok(run_sim(
                instance,
                sender_value,
                strategies,
                chaos,
                None,
                options,
            ))
        }
        TransportKind::Channel => channel_mesh(instance.n(), instance.depth(), &chaos, config),
        TransportKind::Tcp => tcp_mesh(instance.n(), instance.depth(), &chaos, config)?,
    };
    Ok(run_mesh(
        kind,
        mesh,
        instance,
        sender_value,
        strategies,
        options,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use degradable::{run_protocol, Params};

    fn instance(n: usize, m: usize, u: usize) -> ByzInstance {
        ByzInstance::new(n, Params::new(m, u).unwrap(), NodeId::new(0)).unwrap()
    }

    #[test]
    fn sim_healthy_matches_run_protocol() {
        let inst = instance(5, 1, 2);
        let strategies = BTreeMap::new();
        let oracle = run_protocol(&inst, &Val::Value(42), &strategies, 7);
        let run = run_sim(
            &inst,
            Val::Value(42),
            &strategies,
            LinkChaos::healthy(),
            None,
            RunOptions::default(),
        );
        assert_eq!(run.decisions, oracle.decisions);
        for d in run.decisions.values() {
            assert_eq!(*d, Val::Value(42));
        }
        assert!(
            !run.decisions.contains_key(&NodeId::new(0)),
            "sender never decides"
        );
        assert_eq!(run.stats.delivered, run.stats.sent);
    }

    #[test]
    fn sim_with_liars_matches_run_protocol() {
        let inst = instance(7, 2, 2);
        let strategies: BTreeMap<_, _> = [
            (NodeId::new(3), Strategy::ConstantLie(Val::Value(9))),
            (NodeId::new(5), Strategy::Silent),
        ]
        .into_iter()
        .collect();
        let oracle = run_protocol(&inst, &Val::Value(1), &strategies, 7);
        let run = run_sim(
            &inst,
            Val::Value(1),
            &strategies,
            LinkChaos::healthy(),
            None,
            RunOptions::default(),
        );
        assert_eq!(run.decisions, oracle.decisions);
    }

    #[test]
    fn channel_matches_sim_healthy() {
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(NodeId::new(4), Strategy::ConstantLie(Val::Value(3)))]
            .into_iter()
            .collect();
        let sim = run_sim(
            &inst,
            Val::Value(8),
            &strategies,
            LinkChaos::healthy(),
            None,
            RunOptions::default(),
        );
        let chan = run_kind(
            TransportKind::Channel,
            &inst,
            Val::Value(8),
            &strategies,
            LinkChaos::healthy(),
            MeshConfig::default(),
            RunOptions::default(),
        )
        .expect("channel mesh");
        assert_eq!(chan.decisions, sim.decisions);
        assert_eq!(chan.views, sim.views);
        assert_eq!(chan.stats.chaos_signature(), sim.stats.chaos_signature());
    }

    #[test]
    fn early_stop_saves_real_messages_on_every_backend() {
        // Fault-free BYZ(1,2): early stopping must leave decisions
        // untouched while genuinely shrinking the wire traffic, on the
        // simulator and on both threaded mesh backends.
        let inst = instance(5, 1, 2);
        let strategies = BTreeMap::new();
        let baseline = run_sim(
            &inst,
            Val::Value(42),
            &strategies,
            LinkChaos::healthy(),
            None,
            RunOptions::default(),
        );
        let runs = [
            run_sim(
                &inst,
                Val::Value(42),
                &strategies,
                LinkChaos::healthy(),
                None,
                RunOptions::early_stop(),
            ),
            run_kind(
                TransportKind::Channel,
                &inst,
                Val::Value(42),
                &strategies,
                LinkChaos::healthy(),
                MeshConfig::default(),
                RunOptions::early_stop(),
            )
            .expect("channel mesh"),
            run_kind(
                TransportKind::Tcp,
                &inst,
                Val::Value(42),
                &strategies,
                LinkChaos::healthy(),
                MeshConfig::default(),
                RunOptions::early_stop(),
            )
            .unwrap(),
        ];
        for run in &runs {
            assert_eq!(run.decisions, baseline.decisions, "{:?}", run.kind);
            assert!(run.messages_saved > 0, "{:?} saved nothing", run.kind);
            assert!(run.subtrees_pruned > 0, "{:?} pruned nothing", run.kind);
            assert_eq!(
                run.stats.sent + run.messages_saved,
                baseline.stats.sent,
                "{:?}: every skipped send is accounted for",
                run.kind
            );
        }
    }

    #[test]
    fn early_stop_with_liars_matches_the_full_run() {
        // Non-empty certified fault sets: pruning fires only on paths
        // that already exhaust the set, and decisions always match the
        // full protocol. With two relay faults at depth 3 no
        // relay-eligible path can exhaust the set, so nothing prunes; a
        // faulty *sender* makes every level-2 path `[s, x]` prunable.
        let inst = instance(7, 2, 2);
        let two_liars: BTreeMap<_, _> = [
            (NodeId::new(3), Strategy::ConstantLie(Val::Value(9))),
            (NodeId::new(5), Strategy::Silent),
        ]
        .into_iter()
        .collect();
        let lying_sender: BTreeMap<_, _> = [(NodeId::new(0), Strategy::ConstantLie(Val::Value(9)))]
            .into_iter()
            .collect();
        for (strategies, prunes) in [(two_liars, false), (lying_sender, true)] {
            let oracle = run_protocol(&inst, &Val::Value(1), &strategies, 7);
            let run = run_sim(
                &inst,
                Val::Value(1),
                &strategies,
                LinkChaos::healthy(),
                None,
                RunOptions::early_stop(),
            );
            assert_eq!(run.decisions, oracle.decisions, "{strategies:?}");
            assert_eq!(
                run.messages_saved > 0,
                prunes,
                "pruning opportunity under {strategies:?}"
            );
        }
    }

    #[test]
    fn recorded_events_cover_every_round_close() {
        let inst = instance(4, 1, 1);
        let run = run_sim(
            &inst,
            Val::Value(3),
            &BTreeMap::new(),
            LinkChaos::healthy(),
            None,
            RunOptions {
                record_events: true,
                ..RunOptions::default()
            },
        );
        assert_eq!(run.node_events.len(), 4);
        for (node, events) in &run.node_events {
            let closes: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    LoggedEvent::Close { round, .. } => Some(*round),
                    LoggedEvent::Deliver { .. } => None,
                })
                .collect();
            assert_eq!(closes, vec![0, 1, 2], "node {node}");
        }
    }

    #[test]
    fn traced_sim_run_records_a_complete_deterministic_chain() {
        let inst = instance(4, 1, 1);
        let run = |_| {
            run_sim(
                &inst,
                Val::Value(9),
                &BTreeMap::new(),
                LinkChaos::healthy(),
                None,
                RunOptions::traced(),
            )
        };
        let a = run(());
        let b = run(());
        assert!(a.obs.is_enabled());
        // Bit-stable: same scenario, same trace, logical dimension and all.
        assert_eq!(a.obs, b.obs);
        let reg = a.obs.registry();
        assert_eq!(reg.counter("trace.sends"), a.stats.sent);
        assert_eq!(reg.counter("trace.delivers"), a.stats.delivered);
        // Every traced delivery carried its context on this backend.
        assert_eq!(reg.counter("trace.delivers_untraced"), 0);
        assert_eq!(reg.counter("trace.decides"), 3);
        // Every delivery span parses back to a context that chains from
        // some send span's context (send happens-before deliver).
        let sends: Vec<TraceCtx> = a
            .obs
            .spans()
            .iter()
            .filter(|s| s.name == "trace.send")
            .filter_map(|s| TraceCtx::from_span_args(&s.args))
            .collect();
        let delivers: Vec<TraceCtx> = a
            .obs
            .spans()
            .iter()
            .filter(|s| s.name == "trace.deliver")
            .filter_map(|s| TraceCtx::from_span_args(&s.args))
            .collect();
        assert_eq!(delivers.len() as u64, a.stats.delivered);
        for d in &delivers {
            assert!(
                sends.contains(d),
                "delivered context {d} was never stamped on a send"
            );
        }
    }

    #[test]
    fn traced_runs_decide_identically_on_every_backend() {
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(NodeId::new(2), Strategy::ConstantLie(Val::Value(6)))]
            .into_iter()
            .collect();
        let baseline = run_sim(
            &inst,
            Val::Value(4),
            &strategies,
            LinkChaos::healthy(),
            None,
            RunOptions::default(),
        );
        for kind in TransportKind::ALL {
            let run = run_kind(
                kind,
                &inst,
                Val::Value(4),
                &strategies,
                LinkChaos::healthy(),
                MeshConfig::default(),
                RunOptions::traced(),
            )
            .unwrap();
            assert_eq!(run.decisions, baseline.decisions, "{kind}");
            let reg = run.obs.registry();
            assert_eq!(reg.counter("trace.sends"), run.stats.sent, "{kind}");
            assert_eq!(reg.counter("trace.delivers"), run.stats.delivered, "{kind}");
            // Meshes carry the context through frames (channel:
            // in-memory, TCP: the 0x03 wire tag); nothing arrives
            // untraced on a healthy network.
            assert_eq!(reg.counter("trace.delivers_untraced"), 0, "{kind}");
        }
    }

    #[test]
    fn tcp_matches_sim_healthy() {
        let inst = instance(4, 1, 1);
        let strategies = BTreeMap::new();
        let sim = run_sim(
            &inst,
            Val::Value(77),
            &strategies,
            LinkChaos::healthy(),
            None,
            RunOptions::default(),
        );
        let tcp = run_kind(
            TransportKind::Tcp,
            &inst,
            Val::Value(77),
            &strategies,
            LinkChaos::healthy(),
            MeshConfig::default(),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(tcp.decisions, sim.decisions);
        assert_eq!(tcp.views, sim.views);
    }
}
