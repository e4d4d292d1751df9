//! The differential transport gate: one protocol, three networks, one
//! answer.
//!
//! * **Deterministic plans** (healthy links, cuts, `p = 1.0` faults)
//!   produce the *same* fault pattern under the message-keyed chaos layer
//!   as under the pre-refactor engine's stream-based layer, so those runs
//!   are compared decision-for-decision against the synchronous
//!   `run_protocol` oracle.
//! * **Probabilistic plans** are keyed differently from the engine's
//!   sequential stream (same distribution, different draws), so the gate
//!   there is mutual: sim, channel, and loopback-TCP runs must decide
//!   bit-identically, and every decision must re-derive through the
//!   reference `EigView::resolve` fold from the run's own views.
//! * **§6 relaxed detection**: when `f > m`, fault-free nodes may falsely
//!   time each other out ([`transport::RelaxedTiming`]); the paper's claim
//!   — degraded agreement survives — is checked via `check_degradable` on
//!   the skewed runs.
//!
//! Shapes cover every node count the paper's small-system analysis uses,
//! N ∈ {4..9}, at maximal-ish `(m, u)` for each.

use degradable::{
    check_degradable, run_protocol_with, ByzInstance, Params, RunRecord, Strategy, Val, VoteRule,
};
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId};
use std::collections::BTreeMap;
use transport::{
    run_kind, run_sim, LinkChaos, MeshConfig, RelaxedTiming, RunOptions, TransportKind,
    TransportRun,
};

/// `(m, u)` per node count: each is a valid BYZ shape (`n >= 2m + u + 1`).
const SHAPES: [(usize, usize, usize); 6] = [
    (4, 1, 1),
    (5, 1, 2),
    (6, 1, 3),
    (7, 2, 2),
    (8, 2, 3),
    (9, 2, 4),
];

fn instance(n: usize, m: usize, u: usize) -> ByzInstance {
    ByzInstance::new(n, Params::new(m, u).unwrap(), NodeId::new(0)).unwrap()
}

/// `f = m` Byzantine receivers at the top node ids: one liar, then one
/// silent node for m >= 2.
fn strategies_for(n: usize, m: usize) -> BTreeMap<NodeId, Strategy<u64>> {
    let mut s = BTreeMap::new();
    s.insert(NodeId::new(n - 1), Strategy::ConstantLie(Val::Value(9)));
    if m >= 2 {
        s.insert(NodeId::new(n - 2), Strategy::Silent);
    }
    s
}

/// A deterministic cut: the edge 1 -> 2 dies from round 1 on, both
/// directions (so relays between two fault-free nodes go absent).
fn cut_plan() -> LinkFaultPlan {
    LinkFaultPlan::healthy().with_symmetric(
        NodeId::new(1),
        NodeId::new(2),
        LinkFaultKind::Cut { from_round: 1 },
    )
}

fn uniform_plan(n: usize, kind: LinkFaultKind) -> LinkFaultPlan {
    LinkFaultPlan::uniform_complete(n, &[kind])
}

/// Re-derives every decision from the run's own EIG views through the
/// paper's VOTE fold — proves the transport delivered exactly the
/// observations the decisions claim to rest on.
fn assert_decisions_rederive(run: &TransportRun, inst: &ByzInstance, label: &str) {
    let rule = VoteRule::Degradable {
        m: inst.params().m(),
    };
    for (node, decision) in &run.decisions {
        let rederived = run.views[node].resolve(inst.sender(), rule);
        assert_eq!(rederived, *decision, "{label}: {node} fold mismatch");
    }
}

#[test]
fn deterministic_plans_match_the_prerefactor_oracle() {
    for (n, m, u) in SHAPES {
        let inst = instance(n, m, u);
        let strategies = strategies_for(n, m);
        let plans = [
            ("healthy", LinkFaultPlan::healthy()),
            ("cut", cut_plan()),
            (
                "dup-all",
                uniform_plan(n, LinkFaultKind::Duplicate { p: 1.0 }),
            ),
        ];
        for (label, plan) in plans {
            let oracle = run_protocol_with(&inst, &Val::Value(42), &strategies, 7, |e| {
                e.with_link_faults(plan.clone())
            });
            let sim = run_sim(
                &inst,
                Val::Value(42),
                &strategies,
                LinkChaos::new(plan, 7),
                None,
                RunOptions::default(),
            );
            assert_eq!(
                sim.decisions, oracle.decisions,
                "n={n} {label}: event-driven sim diverged from the synchronous oracle"
            );
            assert_decisions_rederive(&sim, &inst, label);
        }
    }
}

#[test]
fn all_three_backends_decide_identically_on_every_shape_and_plan() {
    for (n, m, u) in SHAPES {
        let inst = instance(n, m, u);
        let strategies = strategies_for(n, m);
        let plans = [
            ("healthy", LinkFaultPlan::healthy()),
            ("cut", cut_plan()),
            ("drop", uniform_plan(n, LinkFaultKind::Drop { p: 0.35 })),
            ("dup", uniform_plan(n, LinkFaultKind::Duplicate { p: 0.5 })),
            (
                "reorder",
                uniform_plan(n, LinkFaultKind::Reorder { window: 2 }),
            ),
        ];
        for (label, plan) in plans {
            let chaos = LinkChaos::new(plan, 0xD1CE + n as u64);
            let sim = run_sim(
                &inst,
                Val::Value(42),
                &strategies,
                chaos.clone(),
                None,
                RunOptions::default(),
            );
            let chan = run_kind(
                TransportKind::Channel,
                &inst,
                Val::Value(42),
                &strategies,
                chaos.clone(),
                MeshConfig::default(),
                RunOptions::default(),
            )
            .expect("channel mesh");
            let tcp = run_kind(
                TransportKind::Tcp,
                &inst,
                Val::Value(42),
                &strategies,
                chaos,
                MeshConfig::default(),
                RunOptions::default(),
            )
            .expect("loopback mesh");
            for other in [&chan, &tcp] {
                assert_eq!(
                    other.decisions, sim.decisions,
                    "n={n} {label}: {} decisions diverged from sim",
                    other.kind
                );
                assert_eq!(
                    other.views, sim.views,
                    "n={n} {label}: {} views diverged from sim",
                    other.kind
                );
                assert_eq!(
                    other.stats.chaos_signature(),
                    sim.stats.chaos_signature(),
                    "n={n} {label}: {} injected a different fault pattern",
                    other.kind
                );
            }
            assert_decisions_rederive(&sim, &inst, label);
        }
    }
}

#[test]
fn sim_reruns_are_bit_identical() {
    let inst = instance(7, 2, 2);
    let strategies = strategies_for(7, 2);
    let plan = uniform_plan(7, LinkFaultKind::Drop { p: 0.4 });
    let a = run_sim(
        &inst,
        Val::Value(5),
        &strategies,
        LinkChaos::new(plan.clone(), 3),
        None,
        RunOptions::default(),
    );
    let b = run_sim(
        &inst,
        Val::Value(5),
        &strategies,
        LinkChaos::new(plan, 3),
        None,
        RunOptions::default(),
    );
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.views, b.views);
    assert_eq!(a.stats, b.stats);
}

/// Builds the condition-checker's record from a transport run.
fn record_of(
    run: &TransportRun,
    inst: &ByzInstance,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
) -> RunRecord<u64> {
    RunRecord {
        params: inst.params(),
        n: inst.n(),
        sender: inst.sender(),
        sender_value: Val::Value(42),
        faulty: strategies.keys().copied().collect(),
        decisions: run.decisions.clone(),
    }
}

#[test]
fn relaxed_detection_only_activates_beyond_m_faults() {
    // §6: correct absence detection is required only while f <= m; the
    // constructor refuses to inject skew below that threshold.
    assert!(RelaxedTiming::when_degraded(1, 1, 0.5, 3, 7).is_none());
    assert!(RelaxedTiming::when_degraded(0, 2, 0.5, 3, 7).is_none());
    assert!(RelaxedTiming::when_degraded(2, 1, 0.5, 3, 7).is_some());
}

#[test]
fn false_timeouts_beyond_m_still_satisfy_the_degraded_conditions() {
    // BYZ(1,2) at n = 5 with f = 2 > m: relaxed detection makes
    // fault-free nodes falsely time each other out, and the paper's §6
    // claim is that degraded agreement (D.3/D.4) survives exactly this.
    let inst = instance(5, 1, 2);
    let strategies: BTreeMap<_, _> = [
        (NodeId::new(3), Strategy::ConstantLie(Val::Value(9))),
        (NodeId::new(4), Strategy::Silent),
    ]
    .into_iter()
    .collect();
    let mut saw_false_timeout = false;
    for seed in 0..8u64 {
        let relaxed =
            RelaxedTiming::when_degraded(strategies.len(), 1, 0.6, 2, seed).expect("f = 2 > m = 1");
        let run = run_sim(
            &inst,
            Val::Value(42),
            &strategies,
            LinkChaos::healthy(),
            Some(relaxed),
            RunOptions::default(),
        );
        saw_false_timeout |= run.stats.false_timeouts > 0;
        let verdict = check_degradable(&record_of(&run, &inst, &strategies));
        assert!(
            verdict.is_satisfied(),
            "seed {seed}: {verdict:?} with {} false timeouts",
            run.stats.false_timeouts
        );
    }
    assert!(
        saw_false_timeout,
        "skew_p = 0.6 over 8 seeds must falsely time out at least one fault-free pair"
    );
}

#[test]
fn zero_skew_relaxed_timing_matches_exact_detection() {
    // The boundary edge case, end to end: skew_p = 0 puts every arrival
    // exactly on its round boundary, where the deliver-before-timer
    // tie-break must read it as present — so a "relaxed" run with no
    // actual skew is observationally identical to exact detection.
    let inst = instance(5, 1, 2);
    let strategies: BTreeMap<_, _> = [
        (NodeId::new(3), Strategy::ConstantLie(Val::Value(9))),
        (NodeId::new(4), Strategy::ConstantLie(Val::Value(8))),
    ]
    .into_iter()
    .collect();
    let relaxed = RelaxedTiming::when_degraded(2, 1, 0.0, 3, 11).expect("f > m");
    let skewless = run_sim(
        &inst,
        Val::Value(42),
        &strategies,
        LinkChaos::healthy(),
        Some(relaxed),
        RunOptions::default(),
    );
    let exact = run_sim(
        &inst,
        Val::Value(42),
        &strategies,
        LinkChaos::healthy(),
        None,
        RunOptions::default(),
    );
    assert_eq!(skewless.decisions, exact.decisions);
    assert_eq!(skewless.views, exact.views);
    assert_eq!(skewless.stats.false_timeouts, 0);
}

#[test]
fn malformed_trace_frames_over_live_tcp_degrade_to_untraced_deliveries() {
    // The causal trace section of a `0x03` wire frame is observability
    // metadata, not protocol state: whatever an adversary (or a cut cable)
    // does to it, the enclosing envelope must still be delivered — as an
    // *untraced* message — and the connection must survive to carry later
    // traffic. The codec tests prove this at the byte level; this test
    // proves it end to end, through a real listener, the id handshake, and
    // the mesh reader thread.
    use degradable::{ByzMsg, NodeEvent, Path};
    use obs::TraceCtx;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};
    use transport::frame::{self, Frame};
    use transport::{tcp_join, PollOutcome, Transport};

    // Reserve a loopback port for node 0's listener, then release it for
    // tcp_join to rebind.
    let addr0 = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    // Node 0 dials no one (lowest index), so peer 1's address is never
    // used — any placeholder works.
    let addr1 = "127.0.0.1:1".parse().unwrap();
    let config = MeshConfig {
        // Generous: the test collects deliveries by hand and must not race
        // a deadline-driven round advance.
        round_timeout: Duration::from_secs(30),
        ..MeshConfig::default()
    };
    let joiner = std::thread::spawn(move || {
        tcp_join(
            NodeId::new(0),
            &[addr0, addr1],
            1,
            LinkChaos::healthy(),
            config,
        )
    });
    // The test plays node 1 on a raw socket, so it can put arbitrary bytes
    // on the wire after the 4-byte id handshake.
    let mut wire = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr0) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => panic!("node 0 never listened: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    };
    wire.write_all(&1u32.to_le_bytes()).unwrap();
    let mut node0 = joiner.join().unwrap().expect("tcp_join failed");

    let ctx = TraceCtx::new(3, vec![1]);
    let traced = Frame::Envelope {
        src: NodeId::new(1),
        msg: ByzMsg {
            path: Path::root(NodeId::new(1)),
            value: Val::Value(5),
        },
        trace: Some(ctx.clone()),
    };
    // The frame body (after the u32 length prefix); its trace section for
    // a length-1 path is instance:u64 hop:u32 len:u32 id:u64 = 24 bytes.
    let good = frame::encode(&traced)[4..].to_vec();
    let split = good.len() - (8 + 4 + 4 + 8);
    let reframe = |body: &[u8]| {
        let mut w = (body.len() as u32).to_le_bytes().to_vec();
        w.extend_from_slice(body);
        w
    };
    let mut bloated = good[..split].to_vec();
    bloated.extend_from_slice(&7u64.to_le_bytes());
    bloated.extend_from_slice(&1u32.to_le_bytes());
    bloated.extend_from_slice(&u32::MAX.to_le_bytes());
    let malformed = [
        good[..split].to_vec(),      // trace section missing entirely
        good[..split + 10].to_vec(), // truncated mid-section
        bloated,                     // absurd path-length claim
    ];
    for body in &malformed {
        wire.write_all(&reframe(body)).unwrap();
    }
    // A well-formed traced frame *after* the corrupt ones: its context
    // arriving intact proves the connection and the codec state survived.
    wire.write_all(&reframe(&good)).unwrap();

    assert_eq!(
        node0.poll(),
        PollOutcome::Event(NodeEvent::Timeout { round: 0 })
    );
    let mut traces = Vec::new();
    let start = Instant::now();
    while traces.len() < 4 {
        match node0.poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                assert_eq!(src, NodeId::new(1));
                assert_eq!(msg.value, Val::Value(5));
                traces.push(node0.last_trace());
            }
            PollOutcome::Pending => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("expected deliveries only, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "only {} of 4 frames arrived",
            traces.len()
        );
    }
    assert_eq!(traces, vec![None, None, None, Some(ctx)]);
    assert!(
        node0.failure().is_none(),
        "corrupt traces must not kill links"
    );
    assert!(node0.gone_peers().is_empty());
    assert_eq!(node0.stats().delivered, 4);
}

#[test]
fn false_timeouts_are_counted_between_fault_free_pairs_only() {
    // Skew every envelope: the counter must still exclude pairs with a
    // faulty endpoint — §6's relaxation is about *fault-free* nodes
    // mistaking each other for faulty.
    let inst = instance(5, 1, 2);
    let strategies: BTreeMap<_, _> = [
        (NodeId::new(3), Strategy::ConstantLie(Val::Value(9))),
        (NodeId::new(4), Strategy::ConstantLie(Val::Value(8))),
    ]
    .into_iter()
    .collect();
    let relaxed = RelaxedTiming::when_degraded(2, 1, 1.0, 1, 0).expect("f > m");
    let run = run_sim(
        &inst,
        Val::Value(42),
        &strategies,
        LinkChaos::healthy(),
        Some(relaxed),
        RunOptions::default(),
    );
    assert!(run.stats.false_timeouts > 0);
    // Fault-free senders are 0, 1, 2; fault-free receivers 1, 2 (the
    // sender 0 receives relays too). Every directed fault-free pair can
    // false-timeout at most once per (round, path), and the total must
    // stay below the all-pairs bound that would include faulty endpoints.
    assert!(
        run.stats.false_timeouts < run.stats.delivered,
        "false timeouts ({}) cannot dominate deliveries ({})",
        run.stats.false_timeouts,
        run.stats.delivered
    );
}
