//! Mid-protocol failures and time-varying fault schedules.
//!
//! The paper's fault model counts a node as faulty for the whole
//! execution; a node that *crashes part-way through* the protocol is a
//! special case of Byzantine behaviour (it behaved correctly, then went
//! silent). These tests drive that case through the engine's
//! [`FaultSchedule`]: the process logic is honest, the engine kills its
//! messages from a chosen round on, and the agreement conditions must
//! still hold with the crashed node counted in `f`.

use degradable::{check_degradable, run_protocol_with, ByzInstance, Params, Val};
use simnet::{
    FaultKind, FaultPlan, FaultSchedule, LinkFaultKind, LinkFaultPlan, NodeId, RoundEngine,
    Topology,
};
use std::collections::{BTreeMap, BTreeSet};

fn crash_from(node: usize, round: usize) -> FaultPlan {
    FaultPlan::healthy().with(NodeId::new(node), FaultKind::Crash { from_round: round })
}

#[test]
fn mid_protocol_crash_within_m_keeps_full_agreement() {
    // BYZ(2,2) on 7 nodes runs depth+1 = 4 engine rounds; node 5 is honest
    // in round 0..2 and silent from round 2 (its level-3 relays vanish).
    let inst = ByzInstance::new(7, Params::new(2, 2).unwrap(), NodeId::new(0)).unwrap();
    let schedule = FaultSchedule::healthy().then_from(2, crash_from(5, 0));
    let run = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 1, |e| {
        e.with_fault_schedule(schedule)
    });
    let faulty: BTreeSet<NodeId> = [NodeId::new(5)].into_iter().collect();
    let record = run.record(&inst, Val::Value(7), faulty);
    let verdict = check_degradable(&record);
    assert!(verdict.is_satisfied(), "{verdict:?}");
    // f = 1 <= m = 2: D.1 demands everyone decides 7.
    for (r, v) in record.fault_free_decisions() {
        assert_eq!(v, Val::Value(7), "receiver {r}");
    }
}

#[test]
fn staggered_crashes_within_u_stay_degraded() {
    // 1/2-degradable on 5 nodes: node 3 crashes from round 1, node 4 from
    // round 2 — two mid-protocol failures, f = 2 = u.
    let inst = ByzInstance::new(5, Params::new(1, 2).unwrap(), NodeId::new(0)).unwrap();
    let schedule = FaultSchedule::healthy()
        .then_from(1, crash_from(3, 0))
        .then_from(2, {
            FaultPlan::healthy()
                .with(NodeId::new(3), FaultKind::Crash { from_round: 0 })
                .with(NodeId::new(4), FaultKind::Crash { from_round: 0 })
        });
    let run = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 1, |e| {
        e.with_fault_schedule(schedule)
    });
    let faulty: BTreeSet<NodeId> = [NodeId::new(3), NodeId::new(4)].into_iter().collect();
    let record = run.record(&inst, Val::Value(7), faulty);
    let verdict = check_degradable(&record);
    assert!(verdict.is_satisfied(), "{verdict:?}");
}

#[test]
fn crashed_sender_mid_broadcast_is_condition_d2_or_d4() {
    // The sender emits its round-0 messages and dies... or dies first: with
    // crash from round 0 nothing is ever sent — every receiver decides V_d
    // identically (D.2 with f = 1 <= m).
    let inst = ByzInstance::new(5, Params::new(1, 2).unwrap(), NodeId::new(0)).unwrap();
    let schedule = FaultSchedule::constant(crash_from(0, 0));
    let run = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 1, |e| {
        e.with_fault_schedule(schedule)
    });
    let faulty: BTreeSet<NodeId> = [NodeId::new(0)].into_iter().collect();
    let record = run.record(&inst, Val::Value(7), faulty);
    let verdict = check_degradable(&record);
    assert!(verdict.is_satisfied(), "{verdict:?}");
    for (_, v) in record.fault_free_decisions() {
        assert_eq!(v, Val::Default);
    }
}

#[test]
fn recovery_after_burst_is_clean_for_fresh_instances() {
    // A burst that ends before a later instance starts must not affect it:
    // fresh protocol run after the burst window is fault-free.
    let inst = ByzInstance::new(5, Params::new(1, 2).unwrap(), NodeId::new(0)).unwrap();
    // Burst covers rounds 0..2 of *this* run — then heals.
    let schedule = FaultSchedule::healthy()
        .then_from(0, crash_from(2, 0))
        .then_from(2, FaultPlan::healthy());
    let run = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 1, |e| {
        e.with_fault_schedule(schedule)
    });
    // Node 2's early silence makes it "faulty" for this run.
    let faulty: BTreeSet<NodeId> = [NodeId::new(2)].into_iter().collect();
    let record = run.record(&inst, Val::Value(7), faulty);
    assert!(check_degradable(&record).is_satisfied());

    // A brand-new run with a healthy schedule: all clean, full agreement.
    let run = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 1, |e| e);
    let record = run.record(&inst, Val::Value(7), BTreeSet::new());
    for (_, v) in record.fault_free_decisions() {
        assert_eq!(v, Val::Value(7));
    }
}

#[test]
fn drop_causes_are_attributed_distinctly_in_the_trace() {
    // Node 1 crashes from round 1 AND the 2->3 link is cut from round 1:
    // the outcome must attribute every lost message to exactly one cause —
    // node fault (dropped_crash) or link fault (dropped_link_cut), never
    // both — and receivers must see exactly those messages as absent.
    let schedule = FaultSchedule::healthy().then_from(1, crash_from(1, 0));
    let links = LinkFaultPlan::healthy().with(
        NodeId::new(2),
        NodeId::new(3),
        LinkFaultKind::Cut { from_round: 1 },
    );
    let mut engine = RoundEngine::<u64>::new(Topology::complete(5), 3)
        .with_fault_schedule(schedule)
        .with_link_faults(links);
    // (receive round, src, dst) for every expected-but-absent message.
    let mut absences = BTreeSet::new();
    let outcome = engine.run(3, |ctx| {
        if ctx.round() > 0 {
            for &src in ctx.peers() {
                if ctx.absent(src) {
                    absences.insert((ctx.round(), src.index(), ctx.me().index()));
                }
            }
        }
        ctx.broadcast(ctx.me().index() as u64);
    });

    // Node 1's sends in rounds 1 and 2 (4 peers each) die at the crash;
    // the cut edge kills 2->3 in rounds 1 and 2. A crashed sender's
    // messages never reach the link layer, so none is counted twice.
    assert_eq!(outcome.dropped_crash, 8);
    assert_eq!(outcome.dropped_link_cut, 2);
    assert_eq!(
        outcome.sent,
        outcome.delivered + outcome.dropped_crash + outcome.dropped_link_cut,
        "each message has exactly one disposition"
    );
    // Round-1 sends are read in round 2 (round-2 sends land after the
    // run ends): only the crashed node's and the cut edge's are missing.
    let expected: BTreeSet<_> = [(2, 1, 0), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 3)]
        .into_iter()
        .collect();
    assert_eq!(absences, expected);
}

#[test]
fn mid_run_link_isolation_acts_like_a_late_crash() {
    // BYZ(1,2) runs m+1 = 2 sending rounds; from round 1 every link
    // touching node 4 is cut, so it hears the sender's broadcast but its
    // relays vanish — exactly like a mid-protocol crash. Counting node 4
    // in `f` (f = 1 <= m), the conditions must still hold for the rest.
    let inst = ByzInstance::new(5, Params::new(1, 2).unwrap(), NodeId::new(0)).unwrap();
    let others: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let links = LinkFaultPlan::healthy().cut_between(&[NodeId::new(4)], &others, 1);
    let run = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 1, |e| {
        e.with_link_faults(links)
    });
    let faulty: BTreeSet<NodeId> = [NodeId::new(4)].into_iter().collect();
    let record = run.record(&inst, Val::Value(7), faulty);
    let verdict = check_degradable(&record);
    assert!(verdict.is_satisfied(), "{verdict:?}");
    assert!(run.net.dropped_link_cut > 0);
    for (r, v) in record.fault_free_decisions() {
        assert_eq!(v, Val::Value(7), "receiver {r}");
    }
}
