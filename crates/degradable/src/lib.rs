//! # degradable — `m/u`-degradable Byzantine agreement
//!
//! A faithful implementation of **Nitin H. Vaidya, "Degradable Agreement in
//! the Presence of Byzantine Faults" (1993)**.
//!
//! A sender distributes a value to receivers despite arbitrary (Byzantine)
//! faults. Classic Byzantine agreement is impossible once a third of the
//! nodes are faulty; *degradable agreement* trades some of that strength
//! for graceful degradation. With parameters `m <= u`
//! ([`Params`]):
//!
//! * up to `m` faults — full Byzantine agreement (conditions D.1/D.2);
//! * up to `u` faults — fault-free receivers split into at most two
//!   classes, one of which holds the distinguished default value `V_d`
//!   (conditions D.3/D.4), and at least `m + 1` fault-free nodes still
//!   agree on one identical value.
//!
//! `2m + u + 1` nodes are necessary and sufficient (Theorems 1 & 2), and
//! network connectivity `m + u + 1` is necessary and sufficient
//! (Theorem 3).
//!
//! ## Quick start
//!
//! ```
//! use degradable::{AdversaryRun, ByzInstance, Params, Strategy, Val};
//! use simnet::NodeId;
//!
//! // 1/2-degradable agreement among 5 nodes: Byzantine agreement up to 1
//! // fault, degraded agreement up to 2.
//! let instance = ByzInstance::new(5, Params::new(1, 2)?, NodeId::new(0))?;
//!
//! // Two colluding liars (f = u = 2):
//! let scenario = AdversaryRun {
//!     instance,
//!     sender_value: Val::Value(42),
//!     strategies: [
//!         (NodeId::new(3), Strategy::ConstantLie(Val::Value(7))),
//!         (NodeId::new(4), Strategy::ConstantLie(Val::Value(7))),
//!     ]
//!     .into_iter()
//!     .collect(),
//! };
//!
//! // The degraded guarantee D.3 holds: every fault-free receiver decided
//! // either 42 or the default value.
//! assert!(scenario.verdict().is_satisfied());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`value`] | [`AgreementValue`] with the distinguished default `V_d` |
//! | [`mod@vote`] | the paper's `VOTE(α, β)` primitive, majority, `k`-of-`n` |
//! | [`params`] | [`Params`] = `(m, u)` plus the resource-bound formulas |
//! | [`path`] / [`eig`] | relay paths, per-receiver views, reference executor |
//! | [`engine`] | arena-backed iterative EIG engine (shared-prefix memoization) |
//! | [`byz`] | [`ByzInstance`] — algorithm BYZ itself |
//! | [`protocol`] | message-passing BYZ on the `simnet` round engine (a one-instance batch) |
//! | [`service`] | batched agreement: many instances multiplexed over one run |
//! | [`churn`] | crash/rejoin across epochs of the batched service |
//! | [`spec`] | executable abstract spec of BYZ + conformance checker |
//! | [`adaptive`] | online adversaries that pick lies from observed traffic |
//! | [`sparse`] | BYZ over sparse topologies via disjoint-path relays |
//! | [`baselines`] / [`sm`] | OM(m), Crusader agreement, interactive consistency, naive broadcast, signed-messages SM(m) |
//! | [`ic`] | degradable interactive consistency (the Bhandari discussion) |
//! | [`conditions`] | checkers for D.1–D.4 and the `m+1` corollary |
//! | [`adversary`] | strategy battery, exhaustive & randomized adversary search |
//! | [`lower_bound`] | the executable Figure 2 impossibility argument |
//! | [`analysis`] | closed-form tables: node bounds, trade-offs, message complexity |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod adversary;
pub mod analysis;
pub mod baselines;
pub mod byz;
pub mod certify;
pub mod churn;
pub mod conditions;
pub mod eig;
pub mod engine;
pub mod explain;
pub mod ic;
pub mod lower_bound;
pub mod node;
pub mod params;
pub mod path;
pub mod protocol;
pub mod service;
pub mod sm;
pub mod sparse;
pub mod spec;
pub mod value;
pub mod vote;

pub use adaptive::{
    adversary_by_id, adversary_name, engine_corruptor, AdaptiveAdversary, MajorityHijacker,
    SplitBrain, TrafficWithholder, ADAPTIVE_KINDS,
};
pub use adversary::{AdversaryRun, ExhaustiveSearch, HillClimbSearch, RandomizedSearch, Strategy};
pub use byz::{ByzError, ByzInstance};
pub use certify::{certify, CertificationReport};
pub use churn::{run_churn, run_churn_with, ChurnRun, EpochOutcome, EpochPlan};
pub use conditions::{
    check_byzantine, check_degradable, check_weak_byzantine, largest_fault_free_class, Condition,
    RunRecord, Satisfaction, Verdict, Violation,
};
/// The recursive per-receiver evaluator, preserved verbatim as the
/// differential oracle for the arena engine (`tests/engine_equivalence.rs`).
pub use eig::run_eig_full as reference_eval;
pub use eig::{prunable_path, run_eig, run_eig_full, EigOutcome, EigView, FoldStep, VoteRule};
pub use engine::{EigEngine, EigStore, EngineError, EngineRun, PathArena, PathId};
pub use explain::explain_receiver;
pub use ic::{check_degradable_ic, run_degradable_ic, IcOutcome, IcViolation};
pub use node::{Action as NodeAction, Event as NodeEvent, NodeStateMachine};
pub use params::{Params, ParamsError};
pub use path::{path_count, paths_of_length, Path};
pub use protocol::{run_protocol, run_protocol_full, run_protocol_with, ByzMsg, ProtocolRun};
pub use service::{
    run_batch, run_batch_observed, run_batch_reference, run_batch_traced, run_batch_with,
    BatchEvent, BatchInstance, BatchMsg, BatchRun, ServiceBatch, ServiceConfig, ServiceError,
    ServiceState, ServiceStats,
};
pub use sm::{run_sm, run_sm_honest, SmAdversary, SmRelayAction};
pub use sparse::{
    run_sparse, run_sparse_chaotic, sender_cut_topology, RelayChaos, RelayCorruption, SparseRun,
};
pub use spec::{DeliveryClass, SpecChecker, SpecInstance, SpecViolation};
pub use value::{AgreementValue, Val};
pub use vote::{k_of_n, majority, vote};
