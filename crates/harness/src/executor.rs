//! The [`Executor`] abstraction: one scenario, many ways to run it.

use crate::scenario::{Scenario, ScenarioError};
use degradable::{run_protocol_with, RunRecord};
use transport::{LinkChaos, MeshConfig, TransportRun};

/// Runs a [`Scenario`] to a [`RunRecord`] for condition checking.
///
/// Implementations must be pure functions of the scenario (including its
/// `master_seed`): calling `execute` twice on the same scenario yields the
/// same record. That is what lets [`crate::SweepRunner`] parallelize
/// trials freely and lets equivalence tests compare executors
/// symbolically.
pub trait Executor {
    /// Short stable name for reports and labels.
    fn name(&self) -> &'static str;

    /// Executes the scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] when the scenario violates the executor's
    /// requirements (parameter bounds, node count, topology).
    fn execute(&self, scenario: &Scenario) -> Result<RunRecord<u64>, ScenarioError>;
}

fn require_complete(scenario: &Scenario, executor: &'static str) -> Result<(), ScenarioError> {
    if scenario.is_complete_topology() {
        Ok(())
    } else {
        Err(ScenarioError::TopologyUnsupported {
            topology: scenario.topology.name().to_string(),
            executor,
        })
    }
}

/// The `degradable::eig` reference executor: decisions computed directly
/// from the adversary's behaviour function, no message passing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceExecutor;

impl Executor for ReferenceExecutor {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn execute(&self, scenario: &Scenario) -> Result<RunRecord<u64>, ScenarioError> {
        require_complete(scenario, self.name())?;
        if scenario.has_link_chaos() {
            return Err(ScenarioError::ChaosUnsupported {
                executor: self.name(),
            });
        }
        let instance = scenario.instance()?;
        Ok(degradable::AdversaryRun {
            instance,
            sender_value: scenario.sender_value,
            strategies: scenario.strategies.clone(),
        }
        .run())
    }
}

/// The `degradable::protocol` executor: BYZ as a real message-passing
/// protocol on the `simnet` round engine (envelopes, lock-step rounds,
/// absence detection), driven by the scenario's `master_seed`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolExecutor;

impl ProtocolExecutor {
    /// Like [`Executor::execute`], but also returns the engine's network
    /// [`Outcome`](simnet::Outcome) — delivery counters plus the
    /// per-trial injected link-fault counts
    /// ([`simnet::Outcome::link_fault_injections`]) that chaos reports
    /// aggregate.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] as for [`Executor::execute`].
    pub fn execute_detailed(
        &self,
        scenario: &Scenario,
    ) -> Result<(RunRecord<u64>, simnet::Outcome), ScenarioError> {
        require_complete(scenario, Executor::name(self))?;
        let instance = scenario.instance()?;
        let plan = scenario.effective_link_plan();
        let run = run_protocol_with(
            &instance,
            &scenario.sender_value,
            &scenario.strategies,
            scenario.master_seed,
            |e| match plan {
                // No corruptor installed: the engine's default drops
                // corrupted envelopes, i.e. corruption reads as absence
                // (`V_d`), the paper's oral-message axiom.
                Some(plan) => e.with_link_faults(plan),
                None => e,
            },
        );
        let record = run.record(&instance, scenario.sender_value, scenario.faulty());
        Ok((record, run.net))
    }
}

impl Executor for ProtocolExecutor {
    fn name(&self) -> &'static str {
        "protocol"
    }

    fn execute(&self, scenario: &Scenario) -> Result<RunRecord<u64>, ScenarioError> {
        self.execute_detailed(scenario).map(|(record, _)| record)
    }
}

/// The `transport` executor: the sans-io node state machine driven over
/// the backend named by [`Scenario::transport`] — deterministic simulator,
/// in-process channel mesh, or loopback TCP mesh.
///
/// Chaos comes from the scenario's [`Scenario::effective_link_plan`],
/// keyed on message identity under `master_seed`
/// ([`transport::LinkChaos`]) so every backend injects the identical fault
/// pattern. Determinism caveat: decisions are deterministic on every
/// backend; sub-decision observables (thread interleavings, wall-clock
/// stats) are deterministic only on the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportExecutor;

impl TransportExecutor {
    /// Like [`Executor::execute`], but also returns the raw
    /// [`TransportRun`] (per-node EIG views, merged traffic stats) that
    /// differential suites compare across backends.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] as for [`Executor::execute`];
    /// [`ScenarioError::Transport`] when the TCP mesh fails to come up.
    pub fn execute_detailed(
        &self,
        scenario: &Scenario,
    ) -> Result<(RunRecord<u64>, TransportRun), ScenarioError> {
        require_complete(scenario, Executor::name(self))?;
        let instance = scenario.instance()?;
        let chaos = match scenario.effective_link_plan() {
            Some(plan) => LinkChaos::new(plan, scenario.master_seed),
            None => LinkChaos::healthy(),
        };
        let run = transport::run_kind(
            scenario.transport,
            &instance,
            scenario.sender_value,
            &scenario.strategies,
            chaos,
            MeshConfig::default(),
            transport::RunOptions::default(),
        )
        .map_err(|e| ScenarioError::Transport {
            kind: scenario.transport,
            error: e.to_string(),
        })?;
        let record = RunRecord {
            params: instance.params(),
            n: scenario.n,
            sender: scenario.sender,
            sender_value: scenario.sender_value,
            faulty: scenario.faulty(),
            decisions: run.decisions.clone(),
        };
        Ok((record, run))
    }
}

impl Executor for TransportExecutor {
    fn name(&self) -> &'static str {
        "transport"
    }

    fn execute(&self, scenario: &Scenario) -> Result<RunRecord<u64>, ScenarioError> {
        self.execute_detailed(scenario).map(|(record, _)| record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ChaosConfig;
    use degradable::adversary::Strategy;
    use degradable::{check_degradable, Val};
    use simnet::{NodeId, Topology};

    fn lying_scenario() -> Scenario {
        Scenario::new(5, 1, 2)
            .with_sender_value(Val::Value(7))
            .with_strategy(NodeId::new(3), Strategy::ConstantLie(Val::Value(9)))
            .with_strategy(
                NodeId::new(4),
                Strategy::TwoFaced {
                    even: Val::Value(1),
                    odd: Val::Value(2),
                },
            )
    }

    #[test]
    fn executors_agree_and_satisfy_conditions() {
        let scenario = lying_scenario();
        let a = ReferenceExecutor.execute(&scenario).unwrap();
        let b = ProtocolExecutor.execute(&scenario).unwrap();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.faulty, b.faulty);
        assert!(check_degradable(&a).is_satisfied());
    }

    #[test]
    fn non_complete_topology_is_rejected() {
        let scenario = lying_scenario().with_topology(Topology::ring(5));
        for executor in [&ReferenceExecutor as &dyn Executor, &ProtocolExecutor] {
            let err = executor.execute(&scenario).unwrap_err();
            assert!(
                matches!(err, ScenarioError::TopologyUnsupported { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn reference_executor_rejects_chaos() {
        let scenario = lying_scenario().with_chaos(ChaosConfig {
            drop_p: 0.1,
            ..ChaosConfig::quiet()
        });
        let err = ReferenceExecutor.execute(&scenario).unwrap_err();
        assert!(
            matches!(err, ScenarioError::ChaosUnsupported { .. }),
            "{err}"
        );
        // A quiet config is not chaos; the reference executor accepts it.
        let quiet = lying_scenario().with_chaos(ChaosConfig::quiet());
        assert!(ReferenceExecutor.execute(&quiet).is_ok());
    }

    #[test]
    fn protocol_executor_counts_injected_faults() {
        // Pure duplication chaos: decisions are invariant (the protocol's
        // idempotent fold discards duplicates) and every injection shows
        // up in the outcome counters.
        let baseline = ProtocolExecutor.execute(&lying_scenario()).unwrap();
        let chaotic = lying_scenario().with_chaos(ChaosConfig {
            duplicate_p: 1.0,
            ..ChaosConfig::quiet()
        });
        let (record, net) = ProtocolExecutor.execute_detailed(&chaotic).unwrap();
        assert_eq!(record.decisions, baseline.decisions);
        assert!(net.duplicated > 0);
        assert_eq!(net.link_fault_injections(), net.duplicated);
    }

    #[test]
    fn protocol_executor_applies_explicit_link_cuts() {
        use simnet::{LinkFaultKind, LinkFaultPlan};
        let scenario = lying_scenario().with_link_faults(LinkFaultPlan::healthy().with_symmetric(
            NodeId::new(1),
            NodeId::new(2),
            LinkFaultKind::Cut { from_round: 0 },
        ));
        let (_, net) = ProtocolExecutor.execute_detailed(&scenario).unwrap();
        assert!(net.dropped_link_cut > 0);
    }

    #[test]
    fn execution_is_deterministic_via_the_trait() {
        let scenario = lying_scenario().with_master_seed(5);
        for executor in [&ReferenceExecutor as &dyn Executor, &ProtocolExecutor] {
            let a = executor.execute(&scenario).unwrap();
            let b = executor.execute(&scenario).unwrap();
            assert_eq!(a.decisions, b.decisions, "{}", executor.name());
        }
    }

    #[test]
    fn transport_executor_matches_reference_on_every_backend() {
        let oracle = ReferenceExecutor.execute(&lying_scenario()).unwrap();
        for kind in transport::TransportKind::ALL {
            let scenario = lying_scenario().with_transport(kind);
            let record = TransportExecutor.execute(&scenario).unwrap();
            assert_eq!(record.decisions, oracle.decisions, "{kind}");
            assert_eq!(record.faulty, oracle.faulty, "{kind}");
            assert!(check_degradable(&record).is_satisfied(), "{kind}");
        }
    }

    #[test]
    fn transport_executor_applies_keyed_link_cuts() {
        use simnet::{LinkFaultKind, LinkFaultPlan};
        // Cut every edge out of the (fault-free) sender: receivers see
        // nothing from it directly or via relays rooted at round 0, so the
        // unanimous fold lands on the sender-absent default.
        let mut plan = LinkFaultPlan::healthy();
        for r in 1..5 {
            plan = plan.with(
                NodeId::new(0),
                NodeId::new(r),
                LinkFaultKind::Cut { from_round: 0 },
            );
        }
        let scenario = Scenario::new(5, 1, 2).with_link_faults(plan);
        let (record, run) = TransportExecutor.execute_detailed(&scenario).unwrap();
        assert!(run.stats.dropped_cut > 0);
        assert!(
            record.decisions.values().all(|v| *v == Val::Default),
            "{:?}",
            record.decisions
        );
    }

    #[test]
    fn transport_executor_rejects_incomplete_topology() {
        let scenario = lying_scenario().with_topology(Topology::ring(5));
        let err = TransportExecutor.execute(&scenario).unwrap_err();
        assert!(
            matches!(err, ScenarioError::TopologyUnsupported { .. }),
            "{err}"
        );
    }
}
