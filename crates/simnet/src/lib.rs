//! # simnet — deterministic synchronous message-passing simulator
//!
//! `simnet` is the execution substrate for the reproduction of Vaidya's
//! *Degradable Agreement in the Presence of Byzantine Faults* (1993). The
//! paper assumes a synchronous message-passing system in which
//!
//! 1. all messages are delivered correctly,
//! 2. the **absence** of a message can be detected, and
//! 3. the source of a received message can be identified.
//!
//! This crate implements exactly that model as a deterministic, seedable,
//! round-based simulator, plus the network substrates the paper's theorems
//! quantify over:
//!
//! * [`graph`] / [`topology`] — undirected topologies (complete, ring,
//!   Harary `H_{k,n}`, grids, random) with exact **vertex connectivity**
//!   computation ([`connectivity`]) and **vertex-disjoint path** extraction
//!   (Menger), needed for the paper's Theorem 3 (connectivity `>= m+u+1`).
//! * [`engine`] — the event-driven round engine: a deterministic priority
//!   queue ([`sched`]) of per-message delivery events and per-node timeout
//!   timers. Rounds are emergent from the timers; every process sends in
//!   round `r`, messages are delivered at the start of round `r+1`, and a
//!   missing message is *detectably absent* (its delivery event did not
//!   fire before the receiver's timer), matching assumption (2). A run
//!   reports through one [`Outcome`]: a per-cause counter for every way a
//!   message can end (delivered, crash, omission, late, no link, link cut,
//!   link loss, corrupt) plus the duplicate and reorder injections.
//! * [`fault`] — fault plans: crash, omission, delay and Byzantine
//!   markers, applied by the engine independently of process logic.
//! * [`latency`] — per-message latency models and round deadlines, used to
//!   reproduce Section 6's *relaxed* absence detection (a fault-free node
//!   may falsely time out another fault-free node when more than `m` nodes
//!   are faulty).
//! * [`routing`] — point-to-point relay over vertex-disjoint paths with the
//!   *degradable delivery* acceptance rule (correct when `f <= m`,
//!   correct-or-absent when `f <= u`), the mechanism that makes agreement
//!   work on sparse topologies with connectivity `m+u+1`.
//!
//! Everything is deterministic given a seed; see [`rng::SimRng`].
//!
//! ## Example
//!
//! ```
//! use simnet::prelude::*;
//!
//! // A 5-node complete graph; every node sends its id to everyone each
//! // round and records what it saw.
//! let topo = Topology::complete(5);
//! let mut engine = RoundEngine::<u64>::new(topo, 7);
//! let outcome = engine.run(2, |ctx| {
//!     assert_eq!(ctx.peers().len(), 4); // borrowed slice, no allocation
//!     ctx.broadcast(ctx.me().index() as u64);
//! });
//! assert_eq!(outcome.rounds_run, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod engine;
pub mod fault;
pub mod graph;
pub mod id;
pub mod latency;
pub mod linkfault;
pub mod rng;
pub mod routing;
pub mod sched;
pub mod topology;

pub use connectivity::{
    local_connectivity, minimum_vertex_cut, vertex_connectivity, vertex_disjoint_paths,
};
pub use engine::{Corruptor, EigPerf, Outcome, RoundCtx, RoundEngine};
pub use fault::{FaultKind, FaultPlan, FaultSchedule};
pub use graph::Graph;
pub use id::NodeId;
pub use latency::LatencyModel;
pub use linkfault::{LinkFaultKind, LinkFaultPlan, Partition};
pub use rng::SimRng;
pub use routing::{DegradableLink, Delivery, RelayNetwork};
pub use sched::{EventClass, EventQueue, Scheduled, SimTime};
pub use topology::Topology;

/// Convenience glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::connectivity::{
        local_connectivity, minimum_vertex_cut, vertex_connectivity, vertex_disjoint_paths,
    };
    pub use crate::engine::{Corruptor, EigPerf, Outcome, RoundCtx, RoundEngine};
    pub use crate::fault::{FaultKind, FaultPlan, FaultSchedule};
    pub use crate::graph::Graph;
    pub use crate::id::NodeId;
    pub use crate::latency::LatencyModel;
    pub use crate::linkfault::{LinkFaultKind, LinkFaultPlan, Partition};
    pub use crate::rng::SimRng;
    pub use crate::routing::{DegradableLink, Delivery, RelayNetwork};
    pub use crate::sched::{EventClass, EventQueue, Scheduled, SimTime};
    pub use crate::topology::Topology;
}
