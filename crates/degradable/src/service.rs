//! Batched agreement: many concurrent BYZ instances multiplexed over one
//! message-passing execution, folded through the shared arena engine.
//!
//! A deployed system rarely runs one agreement at a time — interactive
//! consistency needs `N` instances (one per sender), a replicated log
//! pipelines slots, and the channel systems of Section 3 agree on a stream
//! of sensor readings. [`run_batch`] runs any number of instances
//! *concurrently* on the `simnet` round engine: every envelope carries an
//! instance id, all instances advance in lock-step (they share the `m+1`
//! round structure), and decisions come from one memoized bottom-up
//! arena resolution per instance ([`crate::engine`]) instead of one
//! recursive [`EigView`] fold per (receiver, instance).
//!
//! The path structure of an instance depends only on `(n, sender, depth)`,
//! never on slot values, so instances that share a sender share one
//! [`crate::engine::PathArena`] (and [`crate::engine::EigEngine`]): a
//! K-slot stream from one sender builds its arena exactly once
//! ([`BatchRun::arena_builds`] counts the builds). Each instance fills its
//! own [`crate::engine::EigStore`] — node `i`'s local view is column `i`.
//!
//! The faulty nodes' strategies apply uniformly across instances (the
//! same Byzantine node misbehaves everywhere), which matches the fault
//! model: `f` counts *nodes*, not (node, instance) pairs.
//!
//! This is the only in-process BYZ relay and arena VOTE: a single
//! execution ([`crate::protocol::run_protocol`]) is a one-instance batch.
//! Inbox validation drops envelopes whose path does not end at the
//! engine-stamped source, contains the receiver, or comes from a future
//! round — and checks that the envelope's path root is the claimed
//! instance's sender. Without that last check a Byzantine relayer can
//! *re-tag* a genuine envelope with a different instance id
//! (cross-instance spoofing); the resolution never reads foreign-rooted
//! slots, but honest nodes would still relay the spoof and amplify it.
//! Rejected spoofs are counted in [`BatchRun::spoofs_rejected`].
//!
//! Link-level chaos plans install through [`run_batch_with`] (and
//! [`crate::protocol::run_protocol_with`], its one-instance form):
//! duplicated envelopes fold idempotently (first write per (instance,
//! path, receiver) slot wins, mirroring the per-path-index dedup of
//! [`crate::sparse`]), reordered envelopes that arrive late still fold
//! as direct observations but are never relayed, and corruption reads
//! as absence (oral-message axiom).
//!
//! Integration tests assert that a batch is decision-identical to running
//! the same instances one at a time and to [`crate::reference_eval`] —
//! multiplexing is purely a transport optimization: one engine run
//! instead of `K`, with the same total message count. [`run_batch_reference`] preserves the legacy
//! per-(receiver, instance) `EigView` executor verbatim as the
//! differential oracle and the one-at-a-time fold baseline measured by
//! experiment E16 (`bench/src/bin/batch_throughput.rs`).

use crate::adversary::Strategy;
use crate::eig::{prunable_path, EigView};
use crate::engine::{EigEngine, EigStore};
use crate::params::Params;
use crate::path::Path;
use crate::value::AgreementValue;
use obs::{Obs, SpanRecord};
use simnet::{EigPerf, NodeId, RoundEngine, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// Bucket bounds for the per-instance message-count histogram
/// (`svc.instance.messages` and the regime split): powers of four from 8
/// to half a million, wide enough for E16-scale batches.
pub const SVC_MSG_BOUNDS: &[u64] = &[8, 32, 128, 512, 2048, 8192, 32768, 131_072, 524_288];

/// Bucket bounds for the per-instance logical-cost histogram
/// (`svc.instance.logical`): votes settled per instance.
pub const SVC_LOGICAL_BOUNDS: &[u64] = &[16, 64, 256, 1024, 4096, 16384, 65536, 262_144, 1_048_576];

/// Bucket bounds for the per-instance wall-latency histogram
/// (`svc.instance.wall_ns`: the instance's resolve share only — the
/// batch-shared fill is the `batch.fill` span), 1µs to 10s. The name
/// contains `wall`, so [`obs::ScrubTiming`] on the registry removes it
/// under `--no-timing` — wall latency is carried for humans, never
/// compared.
pub const SVC_WALL_BOUNDS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// One instance of a batch: who sends what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchInstance<V> {
    /// The designated sender.
    pub sender: NodeId,
    /// The sender's value.
    pub value: AgreementValue<V>,
}

/// A multiplexed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMsg<V> {
    /// Which instance this envelope belongs to.
    pub instance: u32,
    /// Relay path within that instance.
    pub path: Path,
    /// Claimed value.
    pub value: AgreementValue<V>,
}

/// Result of a batched execution.
#[derive(Debug, Clone)]
pub struct BatchRun<V: Ord> {
    /// Per instance (in input order): every receiver's decision.
    pub decisions: Vec<BTreeMap<NodeId, AgreementValue<V>>>,
    /// Network statistics of the single multiplexed engine run; `net.eig`
    /// carries the [`EigPerf`] counters aggregated across all instances.
    pub net: simnet::Outcome,
    /// Distinct arenas built — one per distinct sender, at most the
    /// instance count. A K-slot single-sender stream reports 1.
    /// [`run_batch_reference`] builds no arenas and reports 0.
    pub arena_builds: usize,
    /// Envelopes rejected because their path root was not the claimed
    /// instance's sender (cross-instance spoofing by a Byzantine relayer
    /// or a corrupting link).
    pub spoofs_rejected: u64,
}

/// One observable moment of a batched execution, as
/// [`run_batch_traced`] reports it — the raw material for replaying a
/// batch through one `SpecChecker` per instance.
#[derive(Debug, Clone)]
pub enum BatchEvent<V> {
    /// An envelope claiming `instance` was handed to `to`, folding at
    /// the close of `round`. Emitted for every inbox envelope with an
    /// in-range instance id, *before* any validation — the consumer's
    /// checker performs its own classification (a cross-instance spoof
    /// reads as malformed there too, since its path is not rooted at
    /// the claimed instance's sender).
    Deliver {
        /// The claimed instance (in input order).
        instance: usize,
        /// The receiving node.
        to: NodeId,
        /// Transport-authenticated source.
        src: NodeId,
        /// The relay path.
        path: Path,
        /// The claimed value.
        value: AgreementValue<V>,
        /// The round at whose close this envelope folds.
        round: usize,
    },
    /// Node `node` closed `round` for `instance`, emitting `sends`
    /// (pre-chaos, possibly empty — emitted for every instance × node ×
    /// round so phase tracking stays exact).
    Close {
        /// The instance (in input order).
        instance: usize,
        /// The closing node.
        node: NodeId,
        /// The closed round.
        round: usize,
        /// Every send of this instance at this close.
        sends: Vec<(NodeId, Path, AgreementValue<V>)>,
    },
}

/// Sending a fabricated (or truthful) value to one receiver; Silent
/// strategies suppress the message entirely.
fn claim_for<V: Clone + Ord + Hash>(
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    me: NodeId,
    child: &Path,
    receiver: NodeId,
    truthful: &AgreementValue<V>,
) -> Option<AgreementValue<V>> {
    match strategies.get(&me) {
        None => Some(truthful.clone()),
        Some(Strategy::Silent) => None,
        Some(s) => Some(s.claim(child, receiver, truthful)),
    }
}

fn check_batch_bounds<V>(params: Params, n: usize, instances: &[BatchInstance<V>]) {
    assert!(
        params.admits(n),
        "need at least {} nodes",
        params.min_nodes()
    );
    for inst in instances {
        assert!(
            inst.sender.index() < n,
            "sender {} out of range",
            inst.sender
        );
    }
}

/// Runs `instances` concurrently over one engine execution.
///
/// # Panics
///
/// Panics if any instance's sender is out of range, or `n` violates the
/// node bound for `params`.
pub fn run_batch<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
) -> BatchRun<V> {
    run_batch_with(params, n, instances, strategies, seed, |e| e)
}

/// Like [`run_batch`], with a hook to customize the engine (link-fault
/// plan, latency model, corruptor, tracing) before the run.
pub fn run_batch_with<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    engine_setup: impl FnOnce(RoundEngine<BatchMsg<V>>) -> RoundEngine<BatchMsg<V>>,
) -> BatchRun<V> {
    run_batch_observed(
        params,
        n,
        instances,
        strategies,
        seed,
        1,
        false,
        engine_setup,
        &mut Obs::disabled(),
    )
}

/// Rebuilds every receiver's per-instance [`EigView`] from the shared
/// stores (node `r`'s view of instance `k` is column `r` of `stores[k]`).
fn materialize_views<V: Clone + Ord>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    engines: &[EigEngine],
    engine_idx: &[usize],
    stores: &[EigStore<V>],
) -> Vec<BTreeMap<NodeId, EigView<V>>> {
    let depth = params.rounds();
    instances
        .iter()
        .enumerate()
        .map(|(k, inst)| {
            let arena = engines[engine_idx[k]].arena();
            NodeId::all(n)
                .filter(|r| *r != inst.sender)
                .map(|r| {
                    let mut view = EigView::new(n, depth, r);
                    for (id, v) in stores[k].column(r) {
                        view.record(arena.resolve_path(id), v.clone());
                    }
                    (r, view)
                })
                .collect()
        })
        .collect()
}

/// [`run_batch_with`] with conformance hooks: optional certified-fault-set
/// early stopping (armed against the strategy key set, mirroring
/// [`crate::NodeStateMachine::with_early_stop`]) and a trace callback
/// receiving one [`BatchEvent`] per delivery and per
/// instance × node × round close — everything a per-instance
/// `SpecChecker` replay needs.
///
/// Also materializes every receiver's [`EigView`] per instance from the
/// shared stores, so differential tests can re-resolve the exact same
/// observations through [`EigView::resolve`] and compare against the
/// arena fold (`tests/batch_equivalence.rs` does this under chaos
/// plans).
#[allow(clippy::too_many_arguments)]
pub fn run_batch_traced<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    early_stop: bool,
    engine_setup: impl FnOnce(RoundEngine<BatchMsg<V>>) -> RoundEngine<BatchMsg<V>>,
    trace: &mut dyn FnMut(BatchEvent<V>),
) -> (BatchRun<V>, Vec<BTreeMap<NodeId, EigView<V>>>) {
    let (run, engines, engine_idx, stores) = run_batch_core(
        params,
        n,
        instances,
        strategies,
        seed,
        1,
        early_stop,
        Some(trace),
        engine_setup,
        &mut Obs::disabled(),
    );
    let views = materialize_views(params, n, instances, &engines, &engine_idx, &stores);
    (run, views)
}

/// The observed core of the batch service: one multiplexed
/// [`RoundEngine`] run fills one [`EigStore`] per instance, then each
/// instance resolves bottom-up (with `workers` resolution threads)
/// through its sender's shared arena. With `early_stop`,
/// certified-fault-set early stopping is armed (as in
/// [`run_batch_traced`]), so the `svc.early_stop.*` counters attribute
/// actual savings instead of recording zeros.
///
/// Records a `batch.fill` span over the engine run (logical cost = slots
/// materialized across all instances), one `batch.resolve` span per
/// instance (logical cost = votes settled), and `batch.*` registry
/// counters, plus the aggregated `eig.*` counters. With a disabled
/// recorder and `early_stop` off this is exactly [`run_batch_with`].
#[allow(clippy::too_many_arguments)]
pub fn run_batch_observed<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    workers: usize,
    early_stop: bool,
    engine_setup: impl FnOnce(RoundEngine<BatchMsg<V>>) -> RoundEngine<BatchMsg<V>>,
    obs: &mut Obs,
) -> BatchRun<V> {
    run_batch_core(
        params,
        n,
        instances,
        strategies,
        seed,
        workers,
        early_stop,
        None,
        engine_setup,
        obs,
    )
    .0
}

/// The one-shot batch execution: fresh engines (one per distinct sender)
/// and fresh stores, filled and resolved by [`fill_and_resolve`].
/// Returns the run plus the engines, the instance→engine index map, and
/// the per-instance stores (so [`run_batch_traced`] can materialize
/// per-receiver views without re-executing).
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn run_batch_core<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    workers: usize,
    early_stop: bool,
    trace: Option<&mut dyn FnMut(BatchEvent<V>)>,
    engine_setup: impl FnOnce(RoundEngine<BatchMsg<V>>) -> RoundEngine<BatchMsg<V>>,
    obs: &mut Obs,
) -> (BatchRun<V>, Vec<EigEngine>, Vec<usize>, Vec<EigStore<V>>) {
    check_batch_bounds(params, n, instances);
    let depth = params.rounds();
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();

    // One arena (and engine) per *distinct sender*: the path structure
    // depends only on (n, sender, depth), so every instance sharing a
    // sender shares the interned tree.
    let mut engine_of_sender: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut engines: Vec<EigEngine> = Vec::new();
    let mut engine_idx: Vec<usize> = Vec::with_capacity(instances.len());
    for inst in instances {
        let next = engines.len();
        let e = *engine_of_sender.entry(inst.sender).or_insert(next);
        if e == next {
            let mut eng = EigEngine::new(n, inst.sender, depth).with_workers(workers);
            if early_stop {
                eng = eng.with_early_stop(&faulty);
            }
            engines.push(eng);
        }
        engine_idx.push(e);
    }
    let arena_builds = engines.len();

    // One slot table per instance, shared by all nodes: node `i`'s local
    // view of instance `k` is column `i` of `stores[k]`.
    let mut stores: Vec<EigStore<V>> = instances
        .iter()
        .enumerate()
        .map(|(k, _)| EigStore::new(engines[engine_idx[k]].arena()))
        .collect();

    let run = fill_and_resolve(
        params,
        n,
        instances,
        strategies,
        seed,
        early_stop,
        trace,
        engine_setup,
        obs,
        &engines,
        &engine_idx,
        &mut stores,
        arena_builds,
        1,
    );
    (run, engines, engine_idx, stores)
}

/// The execution shared by the one-shot batch entry points and the
/// persistent [`ServiceState`]: one multiplexed fill over the provided
/// (fresh or pooled) engines and stores, then one memoized bottom-up
/// resolve per instance. With `shard_workers > 1` the resolution is
/// sharded *by sender* across worker threads — every instance of a
/// sender resolves on the thread that owns its arena — and results are
/// folded back in instance order, so decisions, deterministic counters
/// and spans are independent of the shard count (the engine-internal
/// level fan-out of [`EigEngine::with_workers`] covers the
/// `shard_workers == 1` one-shot path instead).
#[allow(clippy::too_many_arguments)]
fn fill_and_resolve<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    early_stop: bool,
    mut trace: Option<&mut dyn FnMut(BatchEvent<V>)>,
    engine_setup: impl FnOnce(RoundEngine<BatchMsg<V>>) -> RoundEngine<BatchMsg<V>>,
    obs: &mut Obs,
    engines: &[EigEngine],
    engine_idx: &[usize],
    stores: &mut [EigStore<V>],
    arena_builds: usize,
    shard_workers: usize,
) -> BatchRun<V> {
    let depth = params.rounds();
    let rule = crate::eig::VoteRule::Degradable { m: params.m() };
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    let mut spoofs_rejected = 0u64;
    // Per-instance protocol sends, accumulated during the fill so the
    // per-instance histograms below can attribute network cost to the
    // instance that incurred it.
    let mut inst_sent: Vec<u64> = vec![0; instances.len()];

    let mut engine = engine_setup(RoundEngine::new(Topology::complete(n), seed));
    let fill_timer = obs.span(
        "batch.fill",
        vec![
            ("n", n as u64),
            ("instances", instances.len() as u64),
            ("depth", depth as u64),
        ],
    );
    let fill_start = std::time::Instant::now();
    let mut net = engine.run_with(depth + 1, |i, ctx| {
        let me = NodeId::new(i);
        let round = ctx.round();
        let mut traced_sends: Vec<Vec<(NodeId, Path, AgreementValue<V>)>> = if trace.is_some() {
            vec![Vec::new(); instances.len()]
        } else {
            Vec::new()
        };
        // 1. Record this round's deliveries (level = round).
        let mut to_relay: Vec<(u32, Path, AgreementValue<V>)> = Vec::new();
        if round >= 1 {
            for (src, msg) in ctx.inbox().to_vec() {
                let idx = msg.instance as usize;
                if idx < instances.len() {
                    if let Some(trace) = trace.as_deref_mut() {
                        trace(BatchEvent::Deliver {
                            instance: idx,
                            to: me,
                            src,
                            path: msg.path.clone(),
                            value: msg.value.clone(),
                            round,
                        });
                    }
                }
                // A path of level `< round` is an envelope the network
                // delivered late (link reordering): its relay slot has
                // passed, but the direct observation is still genuine, so
                // it folds into the store. Anything else malformed —
                // impersonated or self-referential paths, or paths from a
                // future level — is dropped (treated as absent).
                let valid = idx < instances.len()
                    && !msg.path.is_empty()
                    && msg.path.len() <= round
                    && msg.path.last() == src
                    && !msg.path.contains(me);
                if !valid {
                    continue; // malformed claim: treated as absent
                }
                // Cross-instance spoofing: the claimed instance pins the
                // path root. A mismatched root is a re-tagged envelope
                // and must read as absent *before* any recording, so a
                // spoof never consumes relay bandwidth.
                if msg.path.sender() != instances[idx].sender {
                    spoofs_rejected += 1;
                    continue;
                }
                let eng = &engines[engine_idx[idx]];
                // Only sender-rooted repetition-free labels intern; the
                // resolution never reads anything else.
                let Some(id) = eng.arena().intern(&msg.path) else {
                    continue;
                };
                let on_time = msg.path.len() == round;
                // First write wins: duplicated envelopes (link-level
                // duplication, or a late copy overtaken by chaos) are
                // discarded by the idempotent fold.
                let fresh = stores[idx].record(eng.arena(), id, me, msg.value.clone());
                if fresh && on_time && round < depth {
                    to_relay.push((msg.instance, msg.path, msg.value));
                }
            }
        }
        // 2. Send this round's messages.
        if round == 0 {
            for (idx, inst) in instances.iter().enumerate() {
                if inst.sender != me {
                    continue;
                }
                let root = Path::root(inst.sender);
                for r in NodeId::all(n) {
                    if r == me {
                        continue;
                    }
                    if let Some(v) = claim_for(strategies, me, &root, r, &inst.value) {
                        if !traced_sends.is_empty() {
                            traced_sends[idx].push((r, root.clone(), v.clone()));
                        }
                        inst_sent[idx] += 1;
                        ctx.send(
                            r,
                            BatchMsg {
                                instance: idx as u32,
                                path: root.clone(),
                                value: v,
                            },
                        );
                    }
                }
            }
        } else {
            for (instance, path, value) in to_relay {
                // Certified-fault-set early stopping, mirroring
                // `NodeStateMachine`: a path that exhausts the fault set
                // with a fault-free last relayer fills its subtree
                // uniformly, so the fan-out below it is skipped.
                if early_stop && prunable_path(&path, &faulty) {
                    continue;
                }
                let child = path.child(me);
                for r in NodeId::all(n) {
                    if child.contains(r) {
                        continue;
                    }
                    if let Some(v) = claim_for(strategies, me, &child, r, &value) {
                        if !traced_sends.is_empty() {
                            traced_sends[instance as usize].push((r, child.clone(), v.clone()));
                        }
                        inst_sent[instance as usize] += 1;
                        ctx.send(
                            r,
                            BatchMsg {
                                instance,
                                path: child.clone(),
                                value: v,
                            },
                        );
                    }
                }
            }
        }
        if let Some(trace) = trace.as_deref_mut() {
            for (idx, sends) in traced_sends.into_iter().enumerate() {
                trace(BatchEvent::Close {
                    instance: idx,
                    node: me,
                    round,
                    sends,
                });
            }
        }
    });
    let fill_nanos = fill_start.elapsed().as_nanos() as u64;
    obs.finish(fill_timer, stores.iter().map(EigStore::materialized).sum());

    // 3. Memoized bottom-up resolve, one pass per instance over its
    // sender's shared arena — inline, or sharded by sender across
    // `shard_workers` threads (results fold back in instance order, so
    // everything but wall time is shard-count-independent).
    let timing = obs.is_enabled();
    let mut resolved: Vec<Option<(crate::engine::EngineRun<V>, u64)>> =
        (0..instances.len()).map(|_| None).collect();
    if shard_workers <= 1 {
        for (k, slot) in resolved.iter_mut().enumerate() {
            let resolve_start = timing.then(std::time::Instant::now);
            let run = engines[engine_idx[k]].resolve(rule, &stores[k]);
            let wall = resolve_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            *slot = Some((run, wall));
        }
    } else {
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); shard_workers];
        for k in 0..instances.len() {
            shards[engine_idx[k] % shard_workers].push(k);
        }
        let stores_ref: &[EigStore<V>] = stores;
        std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter()
                .filter(|shard| !shard.is_empty())
                .map(|shard| {
                    s.spawn(move || {
                        shard
                            .iter()
                            .map(|&k| {
                                let resolve_start = timing.then(std::time::Instant::now);
                                let run = engines[engine_idx[k]].resolve(rule, &stores_ref[k]);
                                let wall =
                                    resolve_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
                                (k, run, wall)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (k, run, wall) in handle.join().expect("resolve shard panicked") {
                    resolved[k] = Some((run, wall));
                }
            }
        });
    }

    // The fault regime is a whole-batch property: f = |faulty| nodes run a
    // strategy, so every instance lands on the same side of the paper's
    // degradation boundary (full agreement at f ≤ m, degraded at
    // m < f ≤ u). The regime-prefixed histograms let a sweep that mixes
    // regimes across *batches* compare their latency profiles from one
    // merged registry.
    let regime = if faulty.len() <= params.m() {
        "full"
    } else {
        "degraded"
    };
    let regime_messages = format!("svc.regime.{regime}.messages");
    let regime_logical = format!("svc.regime.{regime}.logical");
    let regime_instances = format!("svc.regime.{regime}.instances");
    let mut decisions = Vec::with_capacity(instances.len());
    let mut agg = EigPerf::default();
    for (k, inst) in instances.iter().enumerate() {
        let (resolved_k, wall_k) = resolved[k].take().expect("every instance resolves");
        let logical_k = resolved_k.perf.votes_evaluated + resolved_k.perf.votes_memo_hit;
        obs.record_span(SpanRecord {
            name: "batch.resolve".to_string(),
            args: vec![
                ("instance".to_string(), k as u64),
                ("sender".to_string(), inst.sender.index() as u64),
            ],
            logical: logical_k,
            wall_nanos: wall_k,
        });

        // Attribution for instance `k`: its fill sends as message count,
        // its resolve as deterministic logical cost and wall latency
        // (resolve share only; the fill is batch-shared and reported by
        // the `batch.fill` span).
        obs.observe("svc.instance.messages", SVC_MSG_BOUNDS, inst_sent[k]);
        obs.observe("svc.instance.logical", SVC_LOGICAL_BOUNDS, logical_k);
        obs.observe("svc.instance.wall_ns", SVC_WALL_BOUNDS, wall_k);
        obs.observe(&regime_messages, SVC_MSG_BOUNDS, inst_sent[k]);
        obs.observe(&regime_logical, SVC_LOGICAL_BOUNDS, logical_k);
        obs.add(&regime_instances, 1);
        // The decision anchor of the causal chain: `trace.send` /
        // `trace.deliver` spans (transport layer) lead here.
        obs.record_span(SpanRecord {
            name: "trace.decide".to_string(),
            args: vec![
                ("instance".to_string(), k as u64),
                ("deciders".to_string(), resolved_k.decisions.len() as u64),
            ],
            logical: logical_k,
            wall_nanos: wall_k,
        });

        agg.absorb(&resolved_k.perf);
        decisions.push(resolved_k.decisions);
    }
    agg.fill_nanos = fill_nanos;
    net.eig = agg;

    obs.add("batch.instances", instances.len() as u64);
    obs.add("batch.arena_builds", arena_builds as u64);
    obs.add(
        "batch.arena_reuses",
        (instances.len() - arena_builds) as u64,
    );
    obs.add("batch.spoofs_rejected", spoofs_rejected);
    obs.add("svc.batch.sent", net.sent as u64);
    // Early-stop savings attribution: what certified-fault-set pruning
    // bought this batch, in envelopes never sent and subtrees never
    // fanned out (zero when early stopping is off or never fired).
    obs.add("svc.early_stop.messages_saved", net.eig.messages_saved);
    obs.add("svc.early_stop.subtrees_pruned", net.eig.subtrees_pruned);
    if let Some(registry) = obs.registry_mut() {
        net.eig.fold_into(registry);
    }

    BatchRun {
        decisions,
        net,
        arena_builds,
        spoofs_rejected,
    }
}

/// The legacy batch executor, preserved verbatim: one [`EigView`] per
/// (receiver, instance), each resolved recursively — the pre-arena fold.
///
/// Kept (like [`crate::reference_eval`] in the single-instance world) as
/// the differential oracle for [`run_batch`] and as the one-at-a-time
/// fold baseline that experiment E16 measures the arena batch against.
/// Reports `arena_builds = 0` and performs no envelope dedup or
/// spoof rejection: strictly on-time envelopes only, as before.
pub fn run_batch_reference<V: Clone + Ord + Hash>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
) -> BatchRun<V> {
    check_batch_bounds(params, n, instances);
    let depth = params.rounds();
    let rule = crate::eig::VoteRule::Degradable { m: params.m() };
    let mut engine: RoundEngine<BatchMsg<V>> = RoundEngine::new(Topology::complete(n), seed);

    // views[node][instance]
    let mut views: Vec<Vec<EigView<V>>> = (0..n)
        .map(|i| {
            instances
                .iter()
                .map(|_| EigView::new(n, depth, NodeId::new(i)))
                .collect()
        })
        .collect();

    let net = engine.run_with(depth + 1, |i, ctx| {
        let me = NodeId::new(i);
        let round = ctx.round();
        let mut to_relay: Vec<(u32, Path, AgreementValue<V>)> = Vec::new();
        if round >= 1 {
            for (src, msg) in ctx.inbox().to_vec() {
                let idx = msg.instance as usize;
                let valid = idx < instances.len()
                    && msg.path.len() == round
                    && msg.path.last() == src
                    && !msg.path.contains(me);
                if !valid {
                    continue;
                }
                views[i][idx].record(msg.path.clone(), msg.value.clone());
                if round < depth {
                    to_relay.push((msg.instance, msg.path, msg.value));
                }
            }
        }
        if round == 0 {
            for (idx, inst) in instances.iter().enumerate() {
                if inst.sender != me {
                    continue;
                }
                let root = Path::root(inst.sender);
                for r in NodeId::all(n) {
                    if r == me {
                        continue;
                    }
                    if let Some(v) = claim_for(strategies, me, &root, r, &inst.value) {
                        ctx.send(
                            r,
                            BatchMsg {
                                instance: idx as u32,
                                path: root.clone(),
                                value: v,
                            },
                        );
                    }
                }
            }
        } else {
            for (instance, path, value) in to_relay {
                let child = path.child(me);
                for r in NodeId::all(n) {
                    if child.contains(r) {
                        continue;
                    }
                    if let Some(v) = claim_for(strategies, me, &child, r, &value) {
                        ctx.send(
                            r,
                            BatchMsg {
                                instance,
                                path: child.clone(),
                                value: v,
                            },
                        );
                    }
                }
            }
        }
    });

    let decisions = instances
        .iter()
        .enumerate()
        .map(|(idx, inst)| {
            NodeId::all(n)
                .filter(|r| *r != inst.sender)
                .map(|r| (r, views[r.index()][idx].resolve(inst.sender, rule)))
                .collect()
        })
        .collect();
    BatchRun {
        decisions,
        net,
        arena_builds: 0,
        spoofs_rejected: 0,
    }
}

fn check_service_bounds(params: Params, n: usize) -> Result<(), ServiceError> {
    if !params.admits(n) {
        return Err(ServiceError::NodeBound {
            n,
            min_nodes: params.min_nodes(),
        });
    }
    if !(1..=64).contains(&n) {
        return Err(ServiceError::Engine(
            crate::engine::EngineError::TooManyNodes { n },
        ));
    }
    Ok(())
}

/// Bucket bounds for the queue-depth histogram (`svc.queue.depth`):
/// pending instances observed at each drain, powers of four up to the
/// 10k-in-flight scale the service bench drives.
pub const SVC_QUEUE_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1024, 4096, 16384, 65536];

/// Typed failures of the persistent agreement service. Everything a
/// caller can provoke with bad or excessive input is a value here, never
/// a panic: panics in this module are reserved for internal invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded ingestion queue is at capacity. The instance was
    /// shed and counted ([`ServiceStats::shed`], `svc.queue.shed`);
    /// callers block (retry after a drain) or drop it — the queue never
    /// grows without bound.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// An instance with this caller-assigned id is already pending.
    DuplicateInstance {
        /// The rejected id.
        id: u64,
    },
    /// The instance's sender is not a node of the `n`-node system.
    SenderOutOfRange {
        /// The rejected sender.
        sender: NodeId,
        /// System size it was checked against.
        n: usize,
    },
    /// `n` violates the node bound `n >= 2m + u + 1` of the service's
    /// parameters.
    NodeBound {
        /// The rejected system size.
        n: usize,
        /// Minimum admissible size for the parameters.
        min_nodes: usize,
    },
    /// The engine rejected the shape (e.g. `n > 64`, beyond the `u64`
    /// fault-mask ceiling).
    Engine(crate::engine::EngineError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "ingestion queue full ({capacity} instances pending)")
            }
            ServiceError::DuplicateInstance { id } => {
                write!(f, "instance id {id} is already pending")
            }
            ServiceError::SenderOutOfRange { sender, n } => {
                write!(f, "sender {sender} out of range for {n} nodes")
            }
            ServiceError::NodeBound { n, min_nodes } => {
                write!(f, "need at least {min_nodes} nodes, got {n}")
            }
            ServiceError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::engine::EngineError> for ServiceError {
    fn from(e: crate::engine::EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// Configuration of a persistent [`ServiceState`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound of the ingestion queue: [`ServiceState::ingest`] sheds
    /// with [`ServiceError::QueueFull`] once this many instances are
    /// pending.
    pub queue_capacity: usize,
    /// Resolution shards per drain: instances are resolved in parallel
    /// across this many threads, sharded by sender (each sender's
    /// instances stay on the thread that owns its arena). Decisions,
    /// deterministic counters and spans are independent of this knob;
    /// only wall time changes.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 10_000,
            workers: 1,
        }
    }
}

/// Cumulative counters of one [`ServiceState`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Instances accepted by [`ServiceState::ingest`].
    pub ingested: u64,
    /// Instances shed with [`ServiceError::QueueFull`].
    pub shed: u64,
    /// Instances decided across all drains.
    pub decided: u64,
    /// Drains executed (including empty ones).
    pub batches: u64,
    /// Arenas built — one per sender first seen, ever.
    pub arena_builds: u64,
    /// Instances served by an arena that already existed.
    pub arena_reuses: u64,
    /// Stores allocated fresh (per-sender free list was dry).
    pub store_builds: u64,
    /// Stores reused (cleared, never rebuilt) from the pool.
    pub store_reuses: u64,
}

/// One drained batch: caller-assigned ids plus the batch result
/// (decisions are index-aligned with `ids`, in ingestion order).
#[derive(Debug, Clone)]
pub struct ServiceBatch<V: Ord> {
    /// The ids of the drained instances, in ingestion order.
    pub ids: Vec<u64>,
    /// The execution result — for the same instances and seed,
    /// decision-identical to a fresh one-shot [`run_batch`].
    pub run: BatchRun<V>,
    /// Arenas built by this drain (senders first seen here).
    pub arenas_built: u64,
    /// Instances of this drain served by a pooled arena.
    pub arenas_reused: u64,
    /// Stores allocated fresh by this drain.
    pub stores_built: u64,
    /// Stores reused from the pool by this drain.
    pub stores_reused: u64,
}

/// A persistent, pipelined agreement service over the batched executor.
///
/// Where [`run_batch`] builds its arenas, decides K instances and
/// throws everything away, a `ServiceState` owns its [`PathArena`]s
/// (keyed by sender — `(n, m)` are fixed per service) and a free list
/// of [`EigStore`]s per arena, reusing both across batches: stores come
/// back **cleared, never rebuilt**, so after a warmup batch that has
/// seen every sender the arena-reuse ratio of a sustained stream is
/// 100%.
///
/// Ingestion is bounded and explicit: [`ServiceState::ingest`] queues
/// up to [`ServiceConfig::queue_capacity`] instances and sheds beyond
/// that with a counted [`ServiceError::QueueFull`] — the queue never
/// grows without bound. [`ServiceState::drain`] decides everything
/// pending in one multiplexed execution, sharding resolution by sender
/// across [`ServiceConfig::workers`] threads; for the same instances
/// and seed the decisions are bit-identical to a fresh one-shot
/// [`run_batch`], independent of the worker count.
///
/// [`PathArena`]: crate::engine::PathArena
#[derive(Debug)]
pub struct ServiceState<V> {
    params: Params,
    n: usize,
    config: ServiceConfig,
    /// Pooled engines, one per sender ever seen, append-only.
    engines: Vec<EigEngine>,
    engine_of_sender: BTreeMap<NodeId, usize>,
    /// Per-engine free lists of cleared stores.
    free_stores: Vec<Vec<EigStore<V>>>,
    pending: Vec<(u64, BatchInstance<V>)>,
    pending_ids: BTreeSet<u64>,
    stats: ServiceStats,
    /// Sheds since the last drain (reported as `svc.queue.shed` there).
    shed_unreported: u64,
}

impl<V: Clone + Ord + Hash + Send + Sync> ServiceState<V> {
    /// A fresh service for `params` over `n` nodes. The node bound and
    /// the 64-node engine ceiling are validated here, so later drains
    /// cannot fail on shape.
    pub fn new(params: Params, n: usize, config: ServiceConfig) -> Result<Self, ServiceError> {
        check_service_bounds(params, n)?;
        Ok(ServiceState {
            params,
            n,
            config,
            engines: Vec::new(),
            engine_of_sender: BTreeMap::new(),
            free_stores: Vec::new(),
            pending: Vec::new(),
            pending_ids: BTreeSet::new(),
            stats: ServiceStats::default(),
            shed_unreported: 0,
        })
    }

    /// The service parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Instances currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The configured queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.config.queue_capacity
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Queues one instance under a caller-assigned id. Fails — without
    /// queuing — on an out-of-range sender, a duplicate pending id, or
    /// a full queue (the shed is counted; retry after a drain to
    /// block-on-backpressure instead of dropping).
    pub fn ingest(&mut self, id: u64, instance: BatchInstance<V>) -> Result<(), ServiceError> {
        if instance.sender.index() >= self.n {
            return Err(ServiceError::SenderOutOfRange {
                sender: instance.sender,
                n: self.n,
            });
        }
        if self.pending_ids.contains(&id) {
            return Err(ServiceError::DuplicateInstance { id });
        }
        if self.pending.len() >= self.config.queue_capacity {
            self.stats.shed += 1;
            self.shed_unreported += 1;
            return Err(ServiceError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        self.pending_ids.insert(id);
        self.pending.push((id, instance));
        self.stats.ingested += 1;
        Ok(())
    }

    /// [`ServiceState::drain_observed`] with a disabled recorder.
    pub fn drain(
        &mut self,
        strategies: &BTreeMap<NodeId, Strategy<V>>,
        seed: u64,
    ) -> ServiceBatch<V> {
        self.drain_observed(strategies, seed, &mut Obs::disabled())
    }

    /// Decides everything pending in one multiplexed execution and
    /// empties the queue. An empty drain is a valid no-op batch.
    ///
    /// Engines and stores come from the pool (missing ones are built
    /// and retained); after the resolve every store is cleared and
    /// returned to its free list. On top of the usual `batch.*` /
    /// `svc.instance.*` evidence this records the pooling counters
    /// (`svc.pool.{arena,store}_{builds,reuses,requests}`), the sheds
    /// since the last drain (`svc.queue.shed`) and the drained depth
    /// (`svc.queue.depth`).
    pub fn drain_observed(
        &mut self,
        strategies: &BTreeMap<NodeId, Strategy<V>>,
        seed: u64,
        obs: &mut Obs,
    ) -> ServiceBatch<V> {
        let pending = std::mem::take(&mut self.pending);
        self.pending_ids.clear();
        let mut ids = Vec::with_capacity(pending.len());
        let mut instances = Vec::with_capacity(pending.len());
        for (id, inst) in pending {
            ids.push(id);
            instances.push(inst);
        }

        // Engines: pooled per sender. Per-instance attribution matches
        // `run_batch` (builds = senders first seen, reuses = the rest),
        // except that here "seen" spans the whole service lifetime.
        let depth = self.params.rounds();
        let mut engine_idx = Vec::with_capacity(instances.len());
        let mut arenas_built = 0u64;
        let mut arenas_reused = 0u64;
        for inst in &instances {
            let e = match self.engine_of_sender.get(&inst.sender) {
                Some(&e) => {
                    arenas_reused += 1;
                    e
                }
                None => {
                    // Bounds were validated at `new`/`ingest`, so arena
                    // construction cannot fail on shape here.
                    let eng = EigEngine::new(self.n, inst.sender, depth);
                    let e = self.engines.len();
                    self.engines.push(eng);
                    self.free_stores.push(Vec::new());
                    self.engine_of_sender.insert(inst.sender, e);
                    arenas_built += 1;
                    e
                }
            };
            engine_idx.push(e);
        }

        // Stores: cleared pool entries first, fresh allocations only
        // when a free list runs dry.
        let mut stores_built = 0u64;
        let mut stores_reused = 0u64;
        let mut stores: Vec<EigStore<V>> = engine_idx
            .iter()
            .map(|&e| match self.free_stores[e].pop() {
                Some(store) => {
                    stores_reused += 1;
                    store
                }
                None => {
                    stores_built += 1;
                    EigStore::new(self.engines[e].arena())
                }
            })
            .collect();

        let queue_depth = instances.len() as u64;
        let run = fill_and_resolve(
            self.params,
            self.n,
            &instances,
            strategies,
            seed,
            false,
            None,
            |e| e,
            obs,
            &self.engines,
            &engine_idx,
            &mut stores,
            arenas_built as usize,
            self.config.workers.max(1),
        );

        // Recycle: stores go back cleared, never rebuilt.
        for (k, mut store) in stores.into_iter().enumerate() {
            store.clear();
            self.free_stores[engine_idx[k]].push(store);
        }

        self.stats.arena_builds += arenas_built;
        self.stats.arena_reuses += arenas_reused;
        self.stats.store_builds += stores_built;
        self.stats.store_reuses += stores_reused;
        self.stats.decided += run.decisions.len() as u64;
        self.stats.batches += 1;

        obs.add("svc.pool.arena_builds", arenas_built);
        obs.add("svc.pool.arena_reuses", arenas_reused);
        obs.add("svc.pool.arena_requests", arenas_built + arenas_reused);
        obs.add("svc.pool.store_builds", stores_built);
        obs.add("svc.pool.store_reuses", stores_reused);
        obs.add("svc.pool.store_requests", stores_built + stores_reused);
        obs.add("svc.queue.shed", std::mem::take(&mut self.shed_unreported));
        obs.observe("svc.queue.depth", SVC_QUEUE_BOUNDS, queue_depth);

        ServiceBatch {
            ids,
            run,
            arenas_built,
            arenas_reused,
            stores_built,
            stores_reused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byz::ByzInstance;
    use crate::protocol::run_protocol;
    use crate::value::Val;
    use simnet::{LinkFaultKind, LinkFaultPlan};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn params() -> Params {
        Params::new(1, 2).unwrap()
    }

    fn lying_strategies() -> BTreeMap<NodeId, Strategy<u64>> {
        [
            (n(3), Strategy::ConstantLie(Val::Value(9))),
            (
                n(4),
                Strategy::TwoFaced {
                    even: Val::Value(1),
                    odd: Val::Value(2),
                },
            ),
        ]
        .into_iter()
        .collect()
    }

    fn mixed_instances() -> Vec<BatchInstance<u64>> {
        vec![
            BatchInstance {
                sender: n(0),
                value: Val::Value(10),
            },
            BatchInstance {
                sender: n(1),
                value: Val::Value(20),
            },
            BatchInstance {
                sender: n(4),
                value: Val::Value(30),
            },
        ]
    }

    /// The independent oracle: [`crate::reference_eval`] on the 5-node
    /// shape, with the faulty relayers' claims drawn from the same
    /// strategies through [`Strategy::claim`].
    fn reference_decisions(
        inst: &BatchInstance<u64>,
        strategies: &BTreeMap<NodeId, Strategy<u64>>,
    ) -> BTreeMap<NodeId, Val> {
        let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
        let mut fabricate = |path: &Path, r: NodeId, truthful: &Val| {
            strategies[&path.last()].claim(path, r, truthful)
        };
        crate::reference_eval(
            5,
            inst.sender,
            params().rounds(),
            crate::eig::VoteRule::Degradable { m: params().m() },
            &inst.value,
            &faulty,
            &mut fabricate,
        )
        .decisions
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let batch = run_batch(params(), 5, &instances, &strategies, 1);
        for (i, inst) in instances.iter().enumerate() {
            let single = ByzInstance::new(5, params(), inst.sender).unwrap();
            let solo = run_protocol(&single, &inst.value, &strategies, 1);
            assert_eq!(batch.decisions[i], solo.decisions, "instance {i}");
            assert_eq!(
                batch.decisions[i],
                reference_decisions(inst, &strategies),
                "instance {i} vs reference_eval"
            );
        }
        assert_eq!(batch.spoofs_rejected, 0);
    }

    #[test]
    fn batch_matches_legacy_reference_executor() {
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let arena = run_batch(params(), 5, &instances, &strategies, 7);
        let legacy = run_batch_reference(params(), 5, &instances, &strategies, 7);
        assert_eq!(arena.decisions, legacy.decisions);
        assert_eq!(arena.net.sent, legacy.net.sent);
    }

    #[test]
    fn batch_message_count_is_sum_of_singles() {
        let instances: Vec<BatchInstance<u64>> = (0..4)
            .map(|i| BatchInstance {
                sender: n(i),
                value: Val::Value(i as u64),
            })
            .collect();
        let batch = run_batch(params(), 5, &instances, &BTreeMap::new(), 1);
        let single = crate::analysis::message_complexity(5, params().rounds());
        assert_eq!(batch.net.sent as u128, 4 * single);
        // ... but only one engine run: depth+1 rounds total.
        assert_eq!(batch.net.rounds_run, params().rounds() + 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = run_batch::<u64>(params(), 5, &[], &BTreeMap::new(), 1);
        assert!(batch.decisions.is_empty());
        assert_eq!(batch.net.sent, 0);
        assert_eq!(batch.arena_builds, 0);
    }

    #[test]
    fn interactive_consistency_via_batch() {
        // One instance per sender = IC; every fault-free node's vector
        // must match the dedicated IC runner's (degradable variant).
        let values: Vec<Val> = (0..5).map(|i| Val::Value(100 + i as u64)).collect();
        let strategies: BTreeMap<NodeId, Strategy<u64>> =
            [(n(4), Strategy::ConstantLie(Val::Value(9)))]
                .into_iter()
                .collect();
        let instances: Vec<BatchInstance<u64>> = (0..5)
            .map(|i| BatchInstance {
                sender: n(i),
                value: values[i],
            })
            .collect();
        let batch = run_batch(params(), 5, &instances, &strategies, 1);
        // Distinct senders: one arena each, no reuse possible.
        assert_eq!(batch.arena_builds, 5);
        let ic = crate::ic::run_degradable_ic(params(), &values, &strategies);
        for (slot, decisions) in batch.decisions.iter().enumerate() {
            for (r, vec) in &ic.vectors {
                if *r == n(slot) {
                    continue; // senders trust themselves in the IC runner
                }
                assert_eq!(decisions[r], vec[slot], "slot {slot}, receiver {r}");
            }
        }
    }

    #[test]
    fn stream_batch_builds_one_arena_for_all_slots() {
        // K slots from one sender: the arena is built once and shared.
        let instances: Vec<BatchInstance<u64>> = (0..8)
            .map(|k| BatchInstance {
                sender: n(0),
                value: Val::Value(100 + k),
            })
            .collect();
        let strategies = lying_strategies();
        let batch = run_batch(params(), 5, &instances, &strategies, 3);
        assert_eq!(batch.arena_builds, 1);
        for (k, inst) in instances.iter().enumerate() {
            let single = ByzInstance::new(5, params(), inst.sender).unwrap();
            let solo = run_protocol(&single, &inst.value, &strategies, 3);
            assert_eq!(batch.decisions[k], solo.decisions, "slot {k}");
            assert_eq!(
                batch.decisions[k],
                reference_decisions(inst, &strategies),
                "slot {k} vs reference_eval"
            );
        }
    }

    #[test]
    fn duplicate_chaos_is_decision_invariant() {
        // Duplicating every envelope on every link must not change any
        // decision: the per-(instance, path) slot fold is first-write-wins.
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let baseline = run_batch(params(), 5, &instances, &strategies, 1);
        let plan = LinkFaultPlan::uniform_complete(5, &[LinkFaultKind::Duplicate { p: 1.0 }]);
        let chaotic = run_batch_with(params(), 5, &instances, &strategies, 1, |e| {
            e.with_link_faults(plan)
        });
        assert!(chaotic.net.duplicated > 0);
        assert_eq!(baseline.decisions, chaotic.decisions);
        assert_eq!(
            baseline.net.eig, chaotic.net.eig,
            "duplicates not materialized"
        );
    }

    #[test]
    fn cut_plan_batch_matches_sequential_runs() {
        // Deterministic link cuts affect batch and solo runs identically.
        let plan = LinkFaultPlan::healthy()
            .with_symmetric(n(1), n(2), LinkFaultKind::Cut { from_round: 1 })
            .with(n(0), n(3), LinkFaultKind::Cut { from_round: 0 });
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let batch = run_batch_with(params(), 5, &instances, &strategies, 2, {
            let plan = plan.clone();
            |e| e.with_link_faults(plan)
        });
        assert!(batch.net.dropped_link_cut > 0);
        for (i, inst) in instances.iter().enumerate() {
            let single = ByzInstance::new(5, params(), inst.sender).unwrap();
            let solo = crate::protocol::run_protocol_with(&single, &inst.value, &strategies, 2, {
                let plan = plan.clone();
                |e| e.with_link_faults(plan)
            });
            assert_eq!(batch.decisions[i], solo.decisions, "instance {i}");
        }
    }

    #[test]
    fn cross_instance_spoofs_are_rejected() {
        // A corrupting relayer re-tags genuine envelopes with the other
        // instance's id. The re-tagged envelope's path root no longer
        // matches the claimed instance's sender, so it must be rejected —
        // decision-identical to the corruption-as-absence run.
        let instances: Vec<BatchInstance<u64>> = vec![
            BatchInstance {
                sender: n(0),
                value: Val::Value(10),
            },
            BatchInstance {
                sender: n(1),
                value: Val::Value(20),
            },
        ];
        let plan = LinkFaultPlan::uniform_complete(5, &[LinkFaultKind::Corrupt { p: 0.5 }]);
        let spoofed = run_batch_with(params(), 5, &instances, &BTreeMap::new(), 9, {
            let plan = plan.clone();
            |e| {
                e.with_link_faults(plan)
                    .with_corruptor(|msg: &BatchMsg<u64>, _| {
                        Some(BatchMsg {
                            instance: (msg.instance + 1) % 2,
                            path: msg.path.clone(),
                            value: msg.value,
                        })
                    })
            }
        });
        let absent = run_batch_with(params(), 5, &instances, &BTreeMap::new(), 9, |e| {
            e.with_link_faults(plan)
                .with_corruptor(|_: &BatchMsg<u64>, _| None)
        });
        assert!(spoofed.spoofs_rejected > 0, "{:?}", spoofed.net);
        assert_eq!(spoofed.decisions, absent.decisions);
        assert_eq!(absent.spoofs_rejected, 0);
    }

    #[test]
    fn observed_batch_records_spans_and_counters() {
        let mut obs = Obs::enabled();
        let instances = mixed_instances();
        let run = run_batch_observed(
            params(),
            5,
            &instances,
            &lying_strategies(),
            1,
            2,
            false,
            |e| e,
            &mut obs,
        );
        let quiet = run_batch(params(), 5, &instances, &lying_strategies(), 1);
        assert_eq!(run.decisions, quiet.decisions, "observation is passive");
        let spans: Vec<&str> = obs.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            spans,
            [
                "batch.fill",
                "batch.resolve",
                "trace.decide",
                "batch.resolve",
                "trace.decide",
                "batch.resolve",
                "trace.decide"
            ]
        );
        let fill = &obs.spans()[0];
        assert_eq!(fill.logical, run.net.eig.messages_materialized);
        assert_eq!(
            obs.registry().counter("batch.instances"),
            instances.len() as u64
        );
        assert_eq!(obs.registry().counter("batch.arena_builds"), 3);
        assert_eq!(obs.registry().counter("batch.arena_reuses"), 0);
        assert_eq!(
            obs.registry().counter("eig.messages_materialized"),
            run.net.eig.messages_materialized
        );
    }

    #[test]
    fn observed_batch_attributes_latency_per_instance_and_regime() {
        let mut obs = Obs::enabled();
        let instances = mixed_instances();
        let run = run_batch_observed(
            params(),
            5,
            &instances,
            &lying_strategies(),
            1,
            1,
            false,
            |e| e,
            &mut obs,
        );
        let reg = obs.registry();

        // Per-instance histograms: one observation per instance; total
        // messages equal the engine's send count, and total logical cost
        // equals the summed resolve work.
        let msgs = reg.histogram("svc.instance.messages").unwrap();
        assert_eq!(msgs.count(), instances.len() as u64);
        assert_eq!(msgs.sum(), run.net.sent as u64);
        let logical = reg.histogram("svc.instance.logical").unwrap();
        assert_eq!(logical.count(), instances.len() as u64);
        assert_eq!(
            logical.sum(),
            run.net.eig.votes_evaluated + run.net.eig.votes_memo_hit
        );
        assert!(reg.histogram("svc.instance.wall_ns").is_some());

        // f = 2 liars > m = 1: the whole batch runs in the degraded
        // regime, and the full-regime series stays untouched.
        assert_eq!(
            reg.counter("svc.regime.degraded.instances"),
            instances.len() as u64
        );
        assert_eq!(reg.counter("svc.regime.full.instances"), 0);
        assert!(reg.histogram("svc.regime.full.messages").is_none());
        let degraded = reg.histogram("svc.regime.degraded.messages").unwrap();
        assert_eq!(degraded.sum(), msgs.sum());

        // A fault-free batch lands on the full side of the boundary and
        // credits its early-stop savings.
        let mut obs_full = Obs::enabled();
        let run_full = run_batch_observed(
            params(),
            5,
            &instances,
            &BTreeMap::new(),
            1,
            1,
            true,
            |e| e,
            &mut obs_full,
        );
        let reg_full = obs_full.registry();
        assert_eq!(
            reg_full.counter("svc.regime.full.instances"),
            instances.len() as u64
        );
        assert_eq!(reg_full.counter("svc.regime.degraded.instances"), 0);
        assert_eq!(
            reg_full.counter("svc.early_stop.messages_saved"),
            run_full.net.eig.messages_saved
        );
        assert_eq!(
            reg_full.counter("svc.early_stop.subtrees_pruned"),
            run_full.net.eig.subtrees_pruned
        );

        // The decide spans anchor the causal chain: one per instance, in
        // instance order, carrying the decider fan-out.
        let decides: Vec<_> = obs
            .spans()
            .iter()
            .filter(|s| s.name == "trace.decide")
            .collect();
        assert_eq!(decides.len(), instances.len());
        for (k, span) in decides.iter().enumerate() {
            assert_eq!(span.args[0], ("instance".to_string(), k as u64));
            // Every correct node that is not the sender decides.
            assert_eq!(span.args[1].0, "deciders");
            assert!(span.args[1].1 > 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sender_range_checked() {
        let instances = vec![BatchInstance {
            sender: n(9),
            value: Val::Value(1),
        }];
        run_batch(params(), 5, &instances, &BTreeMap::new(), 1);
    }

    #[test]
    fn traced_batch_is_passive_and_covers_every_close() {
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let mut delivers = 0usize;
        let mut closes = 0usize;
        let mut sent_in_trace = 0usize;
        let (run, views) = run_batch_traced(
            params(),
            5,
            &instances,
            &strategies,
            1,
            false,
            |e| e,
            &mut |ev| match ev {
                BatchEvent::Deliver { .. } => delivers += 1,
                BatchEvent::Close { sends, .. } => {
                    closes += 1;
                    sent_in_trace += sends.len();
                }
            },
        );
        let quiet = run_batch(params(), 5, &instances, &strategies, 1);
        assert_eq!(run.decisions, quiet.decisions, "tracing is passive");
        // Every instance closes at every node in every round, even when
        // it has nothing to send — the checker needs the phase ticks.
        let rounds = params().rounds() + 1;
        assert_eq!(closes, instances.len() * 5 * rounds);
        assert!(delivers > 0);
        // Traced sends are pre-chaos; with no chaos plan they are
        // exactly the engine's send count.
        assert_eq!(sent_in_trace, run.net.sent);
        assert_eq!(views.len(), instances.len());
    }

    #[test]
    fn early_stopped_batch_matches_and_saves_messages() {
        // Fault-free: every level-1 subtree prunes, and every saved
        // message is a real envelope the engine never sent.
        let instances = vec![
            BatchInstance {
                sender: n(0),
                value: Val::Value(7),
            },
            BatchInstance {
                sender: n(0),
                value: Val::Value(8),
            },
        ];
        let baseline = run_batch(params(), 5, &instances, &BTreeMap::new(), 3);
        let (early, _) = run_batch_traced(
            params(),
            5,
            &instances,
            &BTreeMap::new(),
            3,
            true,
            |e| e,
            &mut |_| {},
        );
        assert_eq!(early.decisions, baseline.decisions);
        assert!(early.net.eig.subtrees_pruned > 0);
        assert!(early.net.eig.messages_saved > 0);
        assert_eq!(
            early.net.sent + early.net.eig.messages_saved as usize,
            baseline.net.sent,
            "conservation: sent + saved == baseline sent"
        );
    }

    #[test]
    fn early_stopped_batch_with_liars_stays_decision_identical() {
        // Two relay liars at depth 2: no length-1 path can certify both
        // faults, so the gate never fires — the runs must be identical.
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let full = run_batch(params(), 5, &instances, &strategies, 3);
        let (stopped, _) = run_batch_traced(
            params(),
            5,
            &instances,
            &strategies,
            3,
            true,
            |e| e,
            &mut |_| {},
        );
        assert_eq!(stopped.decisions, full.decisions);
        assert_eq!(stopped.net.sent, full.net.sent);

        // A lying *sender* is a certified fault every path carries, so
        // a depth-3 run prunes below the first relay level even faulty.
        let p2 = Params::new(2, 2).unwrap();
        let strategies: BTreeMap<NodeId, Strategy<u64>> =
            [(n(0), Strategy::ConstantLie(Val::Value(9)))]
                .into_iter()
                .collect();
        let instances = vec![BatchInstance {
            sender: n(0),
            value: Val::Value(5),
        }];
        let full = run_batch(p2, 7, &instances, &strategies, 9);
        let (early, _) =
            run_batch_traced(p2, 7, &instances, &strategies, 9, true, |e| e, &mut |_| {});
        assert_eq!(early.decisions, full.decisions);
        assert!(early.net.eig.messages_saved > 0);
        assert!(early.net.sent < full.net.sent);
    }

    fn inst(sender: usize, value: u64) -> BatchInstance<u64> {
        BatchInstance {
            sender: n(sender),
            value: Val::Value(value),
        }
    }

    /// Restart/drain semantics: ingest, drain, re-ingest on the same
    /// `ServiceState` decides identically to a fresh one-shot
    /// `run_batch` per wave, and the whole observable output is
    /// bit-identical across worker counts 1/2/8 after timing scrub.
    #[test]
    fn service_drain_matches_one_shot_run_batch_across_workers() {
        let strategies = lying_strategies();
        let wave_a: Vec<BatchInstance<u64>> = vec![inst(0, 10), inst(1, 20), inst(0, 30)];
        let wave_b: Vec<BatchInstance<u64>> = vec![inst(4, 40), inst(1, 50)];
        let oracle_a = run_batch(params(), 5, &wave_a, &strategies, 11);
        let oracle_b = run_batch(params(), 5, &wave_b, &strategies, 12);

        let mut outputs = Vec::new();
        for workers in [1usize, 2, 8] {
            let config = ServiceConfig {
                queue_capacity: 16,
                workers,
            };
            let mut svc: ServiceState<u64> = ServiceState::new(params(), 5, config).unwrap();
            let mut obs = Obs::enabled();

            for (id, i) in wave_a.iter().enumerate() {
                svc.ingest(id as u64, i.clone()).unwrap();
            }
            let batch_a = svc.drain_observed(&strategies, 11, &mut obs);
            assert_eq!(batch_a.ids, vec![0, 1, 2]);
            assert_eq!(batch_a.run.decisions, oracle_a.decisions, "w={workers}");
            assert_eq!(batch_a.run.net.sent, oracle_a.net.sent);

            // Re-ingest on the *same* state: ids are free again, pooled
            // arenas and stores serve the second wave.
            for (id, i) in wave_b.iter().enumerate() {
                svc.ingest(id as u64, i.clone()).unwrap();
            }
            let batch_b = svc.drain_observed(&strategies, 12, &mut obs);
            assert_eq!(batch_b.run.decisions, oracle_b.decisions, "w={workers}");
            // Wave A warmed senders {0, 1}; wave B brings sender 4 (one
            // fresh arena, one fresh store — pools are per sender) and
            // serves sender 1 entirely from wave A's cleared pool.
            assert_eq!(batch_b.arenas_built, 1);
            assert_eq!(batch_b.arenas_reused, 1);
            assert_eq!(batch_b.stores_reused, 1);
            assert_eq!(batch_b.stores_built, 1);

            obs::scrub_timing(&mut obs);
            outputs.push(obs);
        }
        assert_eq!(outputs[0], outputs[1], "workers 1 vs 2");
        assert_eq!(outputs[0], outputs[2], "workers 1 vs 8");
    }

    #[test]
    fn service_queue_full_sheds_with_typed_error() {
        let config = ServiceConfig {
            queue_capacity: 2,
            workers: 1,
        };
        let mut svc: ServiceState<u64> = ServiceState::new(params(), 5, config).unwrap();
        svc.ingest(0, inst(0, 1)).unwrap();
        svc.ingest(1, inst(1, 2)).unwrap();
        assert_eq!(
            svc.ingest(2, inst(2, 3)),
            Err(ServiceError::QueueFull { capacity: 2 })
        );
        assert_eq!(svc.stats().shed, 1);
        assert_eq!(svc.pending_len(), 2);

        // Draining relieves the backpressure; the shed is reported once.
        let mut obs = Obs::enabled();
        let batch = svc.drain_observed(&BTreeMap::new(), 5, &mut obs);
        assert_eq!(batch.ids, vec![0, 1]);
        assert_eq!(obs.registry().counter("svc.queue.shed"), 1);
        svc.ingest(2, inst(2, 3)).unwrap();
        let mut obs2 = Obs::enabled();
        svc.drain_observed(&BTreeMap::new(), 6, &mut obs2);
        assert_eq!(obs2.registry().counter("svc.queue.shed"), 0);
    }

    #[test]
    fn service_rejects_duplicate_ids_until_drained() {
        let mut svc: ServiceState<u64> =
            ServiceState::new(params(), 5, ServiceConfig::default()).unwrap();
        svc.ingest(7, inst(0, 1)).unwrap();
        assert_eq!(
            svc.ingest(7, inst(1, 2)),
            Err(ServiceError::DuplicateInstance { id: 7 })
        );
        svc.drain(&BTreeMap::new(), 1);
        // The id is free again after its instance decided.
        svc.ingest(7, inst(1, 2)).unwrap();
    }

    #[test]
    fn service_shape_errors_are_typed() {
        // Node bound: BYZ(1, 2) needs n >= 5.
        assert_eq!(
            ServiceState::<u64>::new(params(), 4, ServiceConfig::default()).err(),
            Some(ServiceError::NodeBound { n: 4, min_nodes: 5 })
        );
        // Engine ceiling: the u64 fault masks stop at n = 64.
        assert!(matches!(
            ServiceState::<u64>::new(params(), 65, ServiceConfig::default()),
            Err(ServiceError::Engine(
                crate::engine::EngineError::TooManyNodes { n: 65 }
            ))
        ));
        // Sender range is checked at ingest, before anything queues.
        let mut svc: ServiceState<u64> =
            ServiceState::new(params(), 5, ServiceConfig::default()).unwrap();
        assert_eq!(
            svc.ingest(0, inst(5, 1)),
            Err(ServiceError::SenderOutOfRange { sender: n(5), n: 5 })
        );
        assert_eq!(svc.pending_len(), 0);
    }

    #[test]
    fn empty_drain_is_a_valid_noop_batch() {
        let mut svc: ServiceState<u64> =
            ServiceState::new(params(), 5, ServiceConfig::default()).unwrap();
        let batch = svc.drain(&BTreeMap::new(), 1);
        assert!(batch.ids.is_empty());
        assert!(batch.run.decisions.is_empty());
        assert_eq!(svc.stats().batches, 1);
        assert_eq!(svc.stats().decided, 0);
    }

    /// The 95%-after-warmup gate of the service bench, in miniature:
    /// one warmup drain builds every arena and store, every later drain
    /// reuses 100% of both.
    #[test]
    fn pool_reuse_is_total_after_warmup() {
        let mut svc: ServiceState<u64> =
            ServiceState::new(params(), 5, ServiceConfig::default()).unwrap();
        let strategies = lying_strategies();
        let wave = |svc: &mut ServiceState<u64>| {
            for id in 0..6u64 {
                svc.ingest(id, inst((id % 3) as usize, id)).unwrap();
            }
        };
        wave(&mut svc);
        let warmup = svc.drain(&strategies, 21);
        assert_eq!(warmup.arenas_built, 3);
        assert_eq!(warmup.stores_built, 6);
        for round in 0..3u64 {
            wave(&mut svc);
            let batch = svc.drain(&strategies, 22 + round);
            assert_eq!(batch.arenas_built, 0, "round {round}");
            assert_eq!(batch.arenas_reused, 6);
            assert_eq!(batch.stores_built, 0);
            assert_eq!(batch.stores_reused, 6);
        }
        let stats = svc.stats();
        assert_eq!(stats.arena_builds, 3);
        assert_eq!(stats.store_builds, 6);
        assert_eq!(stats.decided, 24);
    }
}
