//! Differential suite for the arena-backed batch service.
//!
//! The batch service multiplexes K agreement instances over one engine
//! run and resolves each through the shared memoized arena. These tests
//! pin down the identities that make that an *optimization* rather than
//! a semantic change:
//!
//! 1. **Batch ≡ solo ≡ reference.** Under healthy links, every
//!    instance's decisions are bit-identical to two independent runs of
//!    that instance alone:
//!    - a one-at-a-time [`degradable::run_protocol`] run. `run_protocol`
//!      is itself a one-instance batch sharing the same fill and arena
//!      VOTE, so this arm proves only that instances in one batch do
//!      not interfere with each other;
//!    - [`degradable::reference_eval`], the recursive per-receiver
//!      oracle, fed by the same strategies through `Strategy::claim`.
//!      It shares no relay or VOTE code with the batch, so this arm is
//!      what proves the batch's decisions right.
//!
//!    Under deterministic chaos plans (cuts, `p = 1.0` duplication) the
//!    batch ≡ solo arm still holds. (Probabilistic chaos draws the
//!    shared link RNG in a different interleaving for batch vs solo, so
//!    identity there is asserted via oracle 2 instead.)
//! 2. **Arena ≡ view fold.** Under arbitrary random chaos, the batch's
//!    arena decisions equal an independent recursive
//!    [`degradable::EigView`] resolve over the *same* recorded
//!    observations ([`degradable::run_batch_traced`]).
//! 3. **Worker-count and rerun invariance.** Decisions and deterministic
//!    counters are identical for 1/2/8 resolve workers and across
//!    repeated runs with the same seed.

use degradable::{
    reference_eval, run_batch, run_batch_observed, run_batch_reference, run_batch_traced,
    run_batch_with, run_protocol, BatchInstance, ByzInstance, Params, Path, Strategy, Val,
    VoteRule,
};
use obs::Obs;
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId, SimRng};
use std::collections::{BTreeMap, BTreeSet};

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn chaos_plan(nodes: usize, seed: u64) -> LinkFaultPlan {
    let mut rng = SimRng::derive(seed, 77);
    let mut plan = LinkFaultPlan::healthy();
    for a in 0..nodes {
        for b in 0..nodes {
            if a == b {
                continue;
            }
            if rng.chance(0.3) {
                plan = plan.with(n(a), n(b), LinkFaultKind::Drop { p: 0.2 });
            }
            if rng.chance(0.3) {
                plan = plan.with(n(a), n(b), LinkFaultKind::Duplicate { p: 0.3 });
            }
            if rng.chance(0.3) {
                plan = plan.with(n(a), n(b), LinkFaultKind::Reorder { window: 2 });
            }
            if rng.chance(0.2) {
                plan = plan.with(n(a), n(b), LinkFaultKind::Corrupt { p: 0.15 });
            }
        }
    }
    plan
}

fn strategies(seed: u64, nodes: usize, faults: usize) -> BTreeMap<NodeId, Strategy<u64>> {
    let mut rng = SimRng::derive(seed, 999);
    let mut out = BTreeMap::new();
    while out.len() < faults {
        let who = n(rng.below(nodes as u64) as usize);
        let strat = match rng.below(4) {
            0 => Strategy::Silent,
            1 => Strategy::ConstantLie(Val::Value(rng.below(9))),
            2 => Strategy::TwoFaced {
                even: Val::Value(1),
                odd: Val::Value(2),
            },
            _ => Strategy::RandomLie {
                domain: vec![Val::Default, Val::Value(3), Val::Value(4)],
                seed,
            },
        };
        out.insert(who, strat);
    }
    out
}

fn mixed_instances(nodes: usize, k: usize) -> Vec<BatchInstance<u64>> {
    (0..k)
        .map(|i| BatchInstance {
            sender: n(i % nodes),
            value: Val::Value(1000 + i as u64),
        })
        .collect()
}

#[test]
fn healthy_batch_matches_solo_runs_across_shapes() {
    for (nodes, m, u, k) in [(4, 1, 1, 3), (5, 1, 2, 6), (7, 2, 2, 4)] {
        let params = Params::new(m, u).unwrap();
        for seed in 0..4u64 {
            let strategies = strategies(seed, nodes, m);
            let instances = mixed_instances(nodes, k);
            let batch = run_batch(params, nodes, &instances, &strategies, seed);
            assert_eq!(batch.spoofs_rejected, 0);
            for (i, inst) in instances.iter().enumerate() {
                let single = ByzInstance::new(nodes, params, inst.sender).unwrap();
                let solo = run_protocol(&single, &inst.value, &strategies, seed);
                assert_eq!(
                    batch.decisions[i], solo.decisions,
                    "n={nodes} m={m} u={u} k={k} seed={seed} instance {i}"
                );
                let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
                let mut fabricate = |path: &Path, r: NodeId, truthful: &Val| {
                    strategies[&path.last()].claim(path, r, truthful)
                };
                let oracle = reference_eval(
                    nodes,
                    inst.sender,
                    single.depth(),
                    single.rule(),
                    &inst.value,
                    &faulty,
                    &mut fabricate,
                );
                assert_eq!(
                    batch.decisions[i], oracle.decisions,
                    "reference_eval: n={nodes} m={m} u={u} k={k} seed={seed} instance {i}"
                );
            }
        }
    }
}

#[test]
fn cut_plans_affect_batch_and_solo_identically() {
    let params = Params::new(1, 2).unwrap();
    let plan = LinkFaultPlan::healthy()
        .with_symmetric(n(0), n(2), LinkFaultKind::Cut { from_round: 1 })
        .with(n(3), n(1), LinkFaultKind::Cut { from_round: 0 })
        .with(n(4), n(2), LinkFaultKind::Cut { from_round: 2 });
    let strategies = strategies(5, 5, 1);
    let instances = mixed_instances(5, 5);
    let batch = run_batch_with(params, 5, &instances, &strategies, 5, {
        let plan = plan.clone();
        |e| e.with_link_faults(plan)
    });
    assert!(batch.net.dropped_link_cut > 0);
    for (i, inst) in instances.iter().enumerate() {
        let single = ByzInstance::new(5, params, inst.sender).unwrap();
        let solo = degradable::run_protocol_with(&single, &inst.value, &strategies, 5, {
            let plan = plan.clone();
            |e| e.with_link_faults(plan)
        });
        assert_eq!(batch.decisions[i], solo.decisions, "instance {i}");
    }
}

#[test]
fn chaotic_arena_decisions_match_independent_view_folds() {
    // Oracle 2: whatever the chaos did to the observations, the arena's
    // memoized bottom-up resolve must agree with a from-scratch
    // recursive EigView resolve of the exact same recorded claims.
    let params = Params::new(1, 2).unwrap();
    let rule = VoteRule::Degradable { m: 1 };
    for seed in 0..6u64 {
        let plan = chaos_plan(5, seed);
        let strategies = strategies(seed, 5, 1);
        let instances = mixed_instances(5, 4);
        let (batch, views) = run_batch_traced(
            params,
            5,
            &instances,
            &strategies,
            seed,
            false,
            {
                let plan = plan.clone();
                |e| e.with_link_faults(plan)
            },
            &mut |_| {},
        );
        assert!(batch.net.link_fault_injections() > 0, "seed {seed}");
        for (k, inst) in instances.iter().enumerate() {
            for (r, view) in &views[k] {
                assert_eq!(
                    batch.decisions[k][r],
                    view.resolve(inst.sender, rule),
                    "seed {seed} instance {k} receiver {r}"
                );
            }
        }
    }
}

#[test]
fn chaos_free_batch_matches_legacy_reference_executor() {
    let params = Params::new(2, 3).unwrap();
    for seed in 0..4u64 {
        let strategies = strategies(seed, 8, 2);
        let instances = mixed_instances(8, 3);
        let arena = run_batch(params, 8, &instances, &strategies, seed);
        let legacy = run_batch_reference(params, 8, &instances, &strategies, seed);
        assert_eq!(arena.decisions, legacy.decisions, "seed {seed}");
        assert_eq!(arena.net.sent, legacy.net.sent, "seed {seed}");
    }
}

#[test]
fn chaotic_batch_is_invariant_across_workers_and_reruns() {
    let params = Params::new(1, 2).unwrap();
    let plan = chaos_plan(5, 42);
    let strategies = strategies(42, 5, 1);
    let instances = mixed_instances(5, 6);
    let run_with_workers = |workers: usize| {
        let plan = plan.clone();
        run_batch_observed(
            params,
            5,
            &instances,
            &strategies,
            42,
            workers,
            false,
            |e| e.with_link_faults(plan),
            &mut Obs::disabled(),
        )
    };
    let one = run_with_workers(1);
    for workers in [2, 8] {
        let multi = run_with_workers(workers);
        assert_eq!(one.decisions, multi.decisions, "workers {workers}");
        assert_eq!(one.net.eig, multi.net.eig, "workers {workers}");
        assert_eq!(one.spoofs_rejected, multi.spoofs_rejected);
    }
    let again = run_with_workers(1);
    assert_eq!(one.decisions, again.decisions, "rerun determinism");
    assert_eq!(one.net.sent, again.net.sent);
}

#[test]
fn duplicate_everything_changes_no_decision() {
    let params = Params::new(1, 2).unwrap();
    let plan = LinkFaultPlan::uniform_complete(5, &[LinkFaultKind::Duplicate { p: 1.0 }]);
    let strategies = strategies(7, 5, 1);
    let instances = mixed_instances(5, 4);
    let clean = run_batch(params, 5, &instances, &strategies, 7);
    let doubled = run_batch_with(params, 5, &instances, &strategies, 7, |e| {
        e.with_link_faults(plan)
    });
    assert!(doubled.net.duplicated > 0);
    assert_eq!(clean.decisions, doubled.decisions);
    // First-write-wins: the duplicates never reach the stores.
    assert_eq!(clean.net.eig, doubled.net.eig);
}
