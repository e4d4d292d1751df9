//! Layer-split benchmark of the persistent agreement service,
//! [`degradable::ServiceState`].
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//! ```
//!
//! Each workload drives one service as a closed loop from this single
//! thread: ingest K instances (K = the workload's in-flight count, which
//! is also the queue capacity), drain, check, repeat. Inputs come from
//! `--seed` alone: senders round-robin over all n nodes and values cycle
//! through 5 from a seed-chosen starting point; the drain seeds and the
//! random liar's seed derive from it too. The simulated network delivers
//! instantly, so every latency here is processor time.
//!
//! Layers are timed from outside, around calls into public functions:
//! `ServiceState::ingest`, `ServiceState::drain_observed`,
//! `obs::chrome_trace_json` and `obs::parse_trace`. Inside a drain the
//! fill/resolve split comes from the `batch.fill` and `batch.resolve`
//! spans and the `eig.*` / `svc.pool.*` counters the service already
//! records when handed an enabled recorder.
//!
//! `--trace 0` reports the end-to-end metrics with the benchmark's own
//! tracing off. The run is split into epochs; each sets up a fresh
//! service (`setup_s`: `ServiceState::new` plus the untimed warm-up wave
//! that builds the arenas and the store pool), then runs timed waves for
//! its share of `--seconds`. On `trace-read` every wave is read back
//! (`trace_read_s`). Elsewhere one service trace of 128 instances of the
//! workload's shape is recorded before the epochs and read back about a
//! hundred times a run, between timed waves, each read-back followed by
//! an untimed settle wave. On a shared host, memory-heavy code runs in
//! slow and fast phases lasting about a second, so a run's mean mixes
//! them in a proportion that varies from run to run. Each timing is
//! therefore sampled across the whole run and read at the slow end,
//! where that mix matters least: `decide_rate` is the rate that 9 in 10
//! waves meet (the mean is printed beside it), `setup_s` and
//! `trace_read_s` the times that 9 in 10 samples meet, and the latency
//! reported is p90. Instances of one wave share one drain, so a latency
//! percentile rests on waves rather than instances, and p90 keeps
//! several waves beyond it even on `deep-n13`, whose waves are the
//! longest.
//!
//! `--trace 1` is the separate traced run: it alternates untraced waves
//! with waves drained into a fresh enabled recorder, and reports the
//! per-layer metrics. Which end-to-end metric each layer metric should
//! move, and on which workload:
//!
//! - `service.ingest.*` moves `decide_rate` and `latency_p90_ms` on
//!   `steady-n5`, not on `deep-n13` (ingest is ~0.02% of its wall);
//!   `shed` moves `ok_share` everywhere.
//! - `service.drain.ns_per_instance` moves `decide_rate` everywhere.
//! - `service.fill.ns_per_message` / `share` move `decide_rate` and
//!   `latency_p90_ms`, most on `deep-n13`; the fill's message and
//!   store-write counts and `simnet.delivered_per_instance` move
//!   `msgs_per_instance`.
//! - `engine.resolve.*` moves `decide_rate` on `degraded-n9`, not on
//!   `deep-n13` (resolve is ~1.7% of its drain).
//! - `service.pool.ns_per_instance` moves `decide_rate` on `steady-n5`;
//!   the pool's reuse ratios and `store_builds` move `setup_s` and
//!   `peak_rss_mb` on `deep-n13`.
//! - `obs.record.*` moves `decide_rate` on `trace-read`; `obs.export.*`,
//!   `obs.json.*` and `obs.trace.*` move `trace_read_s`.
//!
//! Correctness is checked outside every timed region by oracles that
//! share no code with the service's fill and resolve: sampled instances
//! are re-decided with [`degradable::reference_eval`] (bit for bit),
//! every decision goes through [`degradable::check_degradable`]
//! (D.1/D.2 at f ≤ m, D.3/D.4 on `degraded-n9`), and every exported
//! trace is read back and compared with its recorder. A self-test at
//! start feeds a tampered decision and a truncated trace to the checks
//! and refuses to run unless both are counted.

use degradable::{
    check_degradable, reference_eval, BatchInstance, Params, Path, RunRecord, ServiceBatch,
    ServiceConfig, ServiceError, ServiceState, Strategy, Val, Verdict, VoteRule,
};
use obs::{chrome_trace_json, parse_trace, Obs, ParsedTrace, TimeMode};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

type Plan = BTreeMap<NodeId, Strategy<u64>>;
type Decisions = BTreeMap<NodeId, Val>;

/// Epochs of an end-to-end run. Each sets up a fresh service before its
/// timed waves, so set-up is sampled across the whole run rather than
/// once at its start.
const EPOCHS: u64 = 6;
/// Per epoch, set-ups repeat for at least this long (at least once).
const SETUP_SECONDS: f64 = 0.1;
/// Instances in the trace read back for `trace_read_s` on workloads
/// whose timed waves do not record: one `degraded-n9` wave, half of a
/// `deep-n13` wave, an eighth of a `steady-n5` wave.
const TRACE_INSTANCES: usize = 128;
/// Instances per wave re-decided by the reference evaluator.
const ORACLE_SAMPLES: usize = 2;
/// Waves per cycle of the traced run: one settle wave, then untraced
/// and recorded waves alternating. Recorded waves are merged into a
/// trace of at least [`TRACE_INSTANCES`], read back at the end of the
/// cycle in which it fills.
const TRACED_CYCLE: u64 = 9;
/// Latency samples kept for the percentiles. A fixed reservoir keeps the
/// benchmark's own memory, which `peak_rss_mb` includes, from growing
/// with the number of instances a run decides.
const LATENCY_SAMPLES: usize = 1 << 16;

/// One benchmark workload: a service shape and how it is driven.
struct Workload {
    name: &'static str,
    m: usize,
    u: usize,
    n: usize,
    in_flight: usize,
    /// `ServiceConfig.workers`: resolve shards per drain.
    workers: usize,
    /// Nodes 6, 7 and 8 are faulty (f = 3 > m = 2): the degraded regime.
    degraded: bool,
    /// Every wave drains into an enabled recorder that is then exported
    /// and read back, the way `dagree serve --service` and `bombard` run.
    record: bool,
    /// Where waves do not record: the trace is read back after every
    /// this many timed waves, about a hundred times in a 25 s run. Counted
    /// in waves, not seconds, so that a stretch of the run slowed by the
    /// host holds as small a share of the read-backs as of the waves.
    read_every: usize,
    /// Instances in the untimed wave after each such read-back, enough
    /// that the next timed wave runs as fast as one that follows a drain.
    settle: usize,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady-n5",
        m: 1,
        u: 1,
        n: 5,
        in_flight: 1000,
        workers: 1,
        degraded: false,
        record: false,
        read_every: 32,
        settle: 1000,
    },
    Workload {
        name: "deep-n13",
        m: 2,
        u: 2,
        n: 13,
        in_flight: 256,
        workers: 2,
        degraded: false,
        record: false,
        read_every: 1,
        settle: 32,
    },
    Workload {
        name: "degraded-n9",
        m: 2,
        u: 3,
        n: 9,
        in_flight: 128,
        workers: 1,
        degraded: true,
        record: false,
        read_every: 12,
        settle: 128,
    },
    Workload {
        name: "trace-read",
        m: 1,
        u: 1,
        n: 5,
        in_flight: 1000,
        workers: 1,
        degraded: false,
        record: true,
        read_every: 0,
        settle: 0,
    },
];

impl Workload {
    fn params(&self) -> Params {
        Params::new(self.m, self.u).expect("every workload has u >= m")
    }

    /// The faulty nodes' strategies: none, or on `degraded-n9` node 6
    /// silent, node 7 lying at random over {1, 3, V_d} and node 8
    /// two-faced (1 to even receivers, 2 to odd).
    fn plan(&self, seed: u64) -> Plan {
        if !self.degraded {
            return Plan::new();
        }
        [
            (6, Strategy::Silent),
            (
                7,
                Strategy::RandomLie {
                    domain: vec![Val::Value(1), Val::Value(3), Val::Default],
                    seed: mix(seed, 7),
                },
            ),
            (
                8,
                Strategy::TwoFaced {
                    even: Val::Value(1),
                    odd: Val::Value(2),
                },
            ),
        ]
        .into_iter()
        .map(|(i, s)| (NodeId::new(i), s))
        .collect()
    }

    /// Messages of one full EIG tree: Σₖ₌₁..ᵣ (n−1)!/(n−1−k)! over the
    /// r = m+1 rounds — 16 at N=5, 400 at N=9 and 1,464 at N=13.
    fn closed_form(&self) -> f64 {
        let mut term = 1.0;
        let mut total = 0.0;
        for k in 1..=self.params().rounds() {
            term *= (self.n - k) as f64;
            total += term;
        }
        total
    }

    /// The Ω(t²) message floor of any Byzantine agreement protocol
    /// tolerating t = u faults.
    fn t2_floor(&self) -> f64 {
        (self.u * self.u) as f64
    }
}

/// SplitMix64 of `seed` salted with `salt`: the benchmark's own input
/// derivation, independent of the program's random number generators.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform seeded sample of at most [`LATENCY_SAMPLES`] values
/// (Algorithm R): every value while it fits, then random replacement.
struct Reservoir {
    seed: u64,
    seen: u64,
    samples: Vec<u64>,
}

impl Reservoir {
    fn new(seed: u64) -> Self {
        Reservoir {
            seed,
            seen: 0,
            samples: Vec::with_capacity(LATENCY_SAMPLES),
        }
    }

    fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < LATENCY_SAMPLES {
            self.samples.push(value);
        } else {
            let slot = (mix(self.seed, self.seen) % self.seen) as usize;
            if slot < LATENCY_SAMPLES {
                self.samples[slot] = value;
            }
        }
    }
}

/// The seeded instance stream.
struct Inputs {
    n: u64,
    start: u64,
    next_id: u64,
}

impl Inputs {
    fn new(n: usize, seed: u64) -> Self {
        Inputs {
            n: n as u64,
            start: mix(seed, 1) % 1_000_003,
            next_id: 0,
        }
    }

    fn next(&mut self) -> (u64, BatchInstance<u64>) {
        let id = self.next_id;
        self.next_id += 1;
        let k = self.start + id;
        let instance = BatchInstance {
            sender: NodeId::new((k % self.n) as usize),
            value: Val::Value(k % 5),
        };
        (id, instance)
    }
}

/// Failures counted against the instances offered.
#[derive(Debug, Default, Clone, Copy)]
struct Failures {
    shed: u64,
    ingest_errors: u64,
    /// Decisions that differ from the reference evaluator, or are missing.
    mismatches: u64,
    /// D.1–D.4 verdicts that did not hold.
    violations: u64,
    /// Exported traces that did not read back to their recorder.
    trace_errors: u64,
}

impl Failures {
    fn total(&self) -> u64 {
        self.shed + self.ingest_errors + self.mismatches + self.violations + self.trace_errors
    }

    fn absorb(&mut self, other: Failures) {
        self.shed += other.shed;
        self.ingest_errors += other.ingest_errors;
        self.mismatches += other.mismatches;
        self.violations += other.violations;
        self.trace_errors += other.trace_errors;
    }
}

/// Checks every decision of a wave against D.1–D.4 and re-decides the
/// `sampled` instances with the reference evaluator.
fn check_decisions(
    w: &Workload,
    plan: &Plan,
    offered: &[BatchInstance<u64>],
    decisions: &[Decisions],
    sampled: &[usize],
    conditions: &mut BTreeMap<String, u64>,
) -> Failures {
    let mut f = Failures {
        mismatches: offered.len().abs_diff(decisions.len()) as u64,
        ..Failures::default()
    };
    let params = w.params();
    let faulty: BTreeSet<NodeId> = plan.keys().copied().collect();
    for (inst, decided) in offered.iter().zip(decisions) {
        let record = RunRecord {
            params,
            n: w.n,
            sender: inst.sender,
            sender_value: inst.value,
            faulty: faulty.clone(),
            decisions: decided.clone(),
        };
        match check_degradable(&record) {
            Verdict::Satisfied(s) => *conditions.entry(s.condition.to_string()).or_default() += 1,
            _ => f.violations += 1,
        }
    }
    for &k in sampled {
        let (Some(inst), Some(decided)) = (offered.get(k), decisions.get(k)) else {
            continue;
        };
        let mut fabricate = |path: &Path, receiver: NodeId, truthful: &Val| {
            plan[&path.last()].claim(path, receiver, truthful)
        };
        let oracle = reference_eval(
            w.n,
            inst.sender,
            params.rounds(),
            VoteRule::Degradable { m: w.m },
            &inst.value,
            &faulty,
            &mut fabricate,
        );
        if oracle.decisions != *decided {
            f.mismatches += 1;
        }
    }
    f
}

/// Whether a read-back trace has exactly the recorder's span count and
/// counters.
fn trace_matches(recorder: &Obs, parsed: Result<ParsedTrace, String>) -> bool {
    parsed.is_ok_and(|p| {
        p.spans.len() == recorder.spans().len()
            && p.registry.counters().eq(recorder.registry().counters())
    })
}

/// The checks must count a tampered decision and a truncated trace, or
/// the benchmark refuses to run.
fn self_test() -> Result<(), String> {
    let w = &WORKLOADS[0];
    let plan = Plan::new();
    let mut svc: ServiceState<u64> = ServiceState::new(
        w.params(),
        w.n,
        ServiceConfig {
            queue_capacity: 8,
            workers: 1,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut inputs = Inputs::new(w.n, 0);
    let mut offered = Vec::new();
    for _ in 0..8 {
        let (id, inst) = inputs.next();
        svc.ingest(id, inst.clone()).map_err(|e| e.to_string())?;
        offered.push(inst);
    }
    let mut recorder = Obs::enabled();
    let mut decisions = svc.drain_observed(&plan, 1, &mut recorder).run.decisions;
    let all: Vec<usize> = (0..offered.len()).collect();
    let mut conditions = BTreeMap::new();
    let clean = check_decisions(w, &plan, &offered, &decisions, &all, &mut conditions);
    if clean.total() != 0 {
        return Err(format!("untampered decisions fail the checks: {clean:?}"));
    }
    let tampered = decisions[0]
        .values_mut()
        .next()
        .ok_or("instance 0 has no decisions")?;
    *tampered = Val::Value(99);
    let caught = check_decisions(w, &plan, &offered, &decisions, &all, &mut conditions);
    if caught.mismatches != 1 || caught.violations != 1 {
        return Err(format!("a tampered decision was not counted: {caught:?}"));
    }
    let text = chrome_trace_json(&recorder, TimeMode::Wall);
    if !trace_matches(&recorder, parse_trace(&text)) {
        return Err("an intact trace fails the read-back check".into());
    }
    if trace_matches(&recorder, parse_trace(&text[..text.len() / 2])) {
        return Err("a truncated trace was not counted".into());
    }
    Ok(())
}

/// One closed-loop wave: K ingests, then one drain.
struct Wave {
    /// Accepted instances, in ingestion order.
    offered: Vec<BatchInstance<u64>>,
    /// When each accepted instance's `ingest` call began.
    stamps: Vec<Instant>,
    batch: ServiceBatch<u64>,
    recorder: Obs,
    ingest: Duration,
    drain: Duration,
    drained_at: Instant,
    failures: Failures,
    sampled: Vec<usize>,
}

impl Wave {
    fn decided(&self) -> u64 {
        self.batch.run.decisions.len() as u64
    }

    fn attempted(&self) -> u64 {
        self.offered.len() as u64 + self.failures.shed + self.failures.ingest_errors
    }
}

/// A service under closed-loop load.
struct Driver<'w> {
    w: &'w Workload,
    seed: u64,
    plan: Plan,
    svc: ServiceState<u64>,
    inputs: Inputs,
    waves: u64,
}

/// The checks of one run, across all its services.
#[derive(Default)]
struct Tally {
    failures: Failures,
    attempted: u64,
    conditions: BTreeMap<String, u64>,
}

impl<'w> Driver<'w> {
    /// `ServiceState::new` plus the warm-up wave that builds the arenas
    /// and the store pool.
    fn set_up(w: &'w Workload, seed: u64, plan: Plan) -> Result<Self, String> {
        let config = ServiceConfig {
            queue_capacity: w.in_flight,
            workers: w.workers,
        };
        let svc = ServiceState::new(w.params(), w.n, config).map_err(|e| e.to_string())?;
        let mut driver = Driver {
            w,
            seed,
            plan,
            svc,
            inputs: Inputs::new(w.n, seed),
            waves: 0,
        };
        driver.wave(false);
        Ok(driver)
    }

    /// Sets up fresh services one after another for at least
    /// [`SETUP_SECONDS`], keeping the last and recording each set-up time.
    fn set_up_timed(
        w: &'w Workload,
        seed: u64,
        plan: &Plan,
        times: &mut Vec<f64>,
    ) -> Result<Self, String> {
        let start = Instant::now();
        let mut driver = None;
        while driver.is_none() || start.elapsed().as_secs_f64() < SETUP_SECONDS {
            drop(driver.take());
            let plan = plan.clone();
            let t = Instant::now();
            driver = Some(Driver::set_up(w, seed, plan)?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok(driver.expect("at least one set-up"))
    }

    /// Ingests one wave of the workload's in-flight count and drains it,
    /// into a fresh enabled recorder when `record`.
    fn wave(&mut self, record: bool) -> Wave {
        self.wave_of(self.w.in_flight, record)
    }

    /// Ingests `k` instances and drains them, into a fresh enabled
    /// recorder when `record`. Only the `ingest` loop and the drain are
    /// timed.
    fn wave_of(&mut self, k: usize, record: bool) -> Wave {
        let inputs: Vec<_> = (0..k).map(|_| self.inputs.next()).collect();
        let mut offered = Vec::with_capacity(k);
        let mut stamps = Vec::with_capacity(k);
        let mut failures = Failures::default();
        let t0 = Instant::now();
        for (id, instance) in inputs {
            let stamp = Instant::now();
            match self.svc.ingest(id, instance.clone()) {
                Ok(()) => {
                    stamps.push(stamp);
                    offered.push(instance);
                }
                Err(ServiceError::QueueFull { .. }) => failures.shed += 1,
                Err(_) => failures.ingest_errors += 1,
            }
        }
        let t1 = Instant::now();
        let mut recorder = if record {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let drain_seed = mix(self.seed, 1 << 32 | self.waves);
        let batch = self
            .svc
            .drain_observed(&self.plan, drain_seed, &mut recorder);
        let drained_at = Instant::now();
        let sampled = (0..ORACLE_SAMPLES as u64)
            .map(|j| (mix(drain_seed, j) % k as u64) as usize)
            .collect();
        self.waves += 1;
        Wave {
            offered,
            stamps,
            batch,
            recorder,
            ingest: t1 - t0,
            drain: drained_at - t1,
            drained_at,
            failures,
            sampled,
        }
    }

    /// Checks a wave's decisions, outside the timed region, and counts
    /// its failures and attempts.
    fn check(&self, wave: &Wave, tally: &mut Tally) {
        let mut f = wave.failures;
        f.absorb(check_decisions(
            self.w,
            &self.plan,
            &wave.offered,
            &wave.batch.run.decisions,
            &wave.sampled,
            &mut tally.conditions,
        ));
        tally.failures.absorb(f);
        tally.attempted += wave.attempted();
    }
}

impl Tally {
    /// Exports a recorder and reads it back, timing both calls; a
    /// read-back that does not match the recorder is a failure.
    fn read_back(&mut self, recorder: &Obs) -> ReadBack {
        let t0 = Instant::now();
        let text = chrome_trace_json(recorder, TimeMode::Wall);
        let t1 = Instant::now();
        let parsed = parse_trace(&text);
        let t2 = Instant::now();
        if !trace_matches(recorder, parsed) {
            self.failures.trace_errors += 1;
        }
        ReadBack {
            export: t1 - t0,
            parse: t2 - t1,
            bytes: text.len() as u64,
            spans: recorder.spans().len() as u64,
        }
    }
}

struct ReadBack {
    export: Duration,
    parse: Duration,
    bytes: u64,
    spans: u64,
}

/// A reported metric, with the base it was computed from.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, base: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        base,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile `q` of `values`.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Exact nearest-rank percentile of sorted nanosecond samples, in ms.
fn percentile_ms(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Outcome {
    metrics: Vec<Metric>,
    tally: Tally,
}

/// The end-to-end run, with the benchmark's own tracing off.
fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let plan = w.plan(seed);
    let mut tally = Tally::default();
    let (mut setups, mut reads, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut decided, mut sent) = (0u64, 0u64);
    let mut busy = Duration::ZERO;
    let mut latencies = Reservoir::new(mix(seed, 2));
    // Where the timed waves do not record, one trace of the workload's
    // shape is recorded before the epochs and read back between waves.
    let trace = if w.record {
        Obs::disabled()
    } else {
        let mut d = Driver::set_up(w, mix(seed, 2), plan.clone())?;
        let mut trace = Obs::enabled();
        let mut recorded = 0;
        while recorded < TRACE_INSTANCES {
            let wave = d.wave_of(TRACE_INSTANCES.min(w.in_flight), true);
            d.check(&wave, &mut tally);
            trace.merge(&wave.recorder);
            recorded += wave.offered.len().max(1);
        }
        trace
    };
    let epoch_seconds = seconds / EPOCHS as f64;
    for epoch in 0..EPOCHS {
        let mut d = Driver::set_up_timed(w, mix(seed, 3 + epoch), &plan, &mut setups)?;
        let start = Instant::now();
        loop {
            let wave = d.wave(w.record);
            let wave_busy = wave.ingest + wave.drain;
            busy += wave_busy;
            decided += wave.decided();
            sent += wave.batch.run.net.sent as u64;
            rates.push(wave.decided() as f64 / wave_busy.as_secs_f64());
            for stamp in &wave.stamps {
                latencies.push((wave.drained_at - *stamp).as_nanos() as u64);
            }
            d.check(&wave, &mut tally);
            if w.record {
                let r = tally.read_back(&wave.recorder);
                reads.push((r.export + r.parse).as_secs_f64());
            } else if rates.len().is_multiple_of(w.read_every) {
                let r = tally.read_back(&trace);
                reads.push((r.export + r.parse).as_secs_f64());
                // A drain right after a read-back runs slower than one
                // after a drain; an untimed wave goes between them.
                let settle = d.wave_of(w.settle, false);
                d.check(&settle, &mut tally);
            }
            if start.elapsed().as_secs_f64() >= epoch_seconds {
                break;
            }
        }
    }
    let seen = latencies.seen;
    let mut latencies = latencies.samples;
    latencies.sort_unstable();
    let samples = latencies.len();
    let msgs = ratio(sent as f64, decided as f64);
    let failed = tally.failures.total();
    let metrics = vec![
        metric(
            "decide_rate",
            quantile(&mut rates, 0.1),
            "inst/s",
            format!(
                "met by 9 in 10 of {} waves; mean {:.1} = {decided} instances over {:.3} s \
                 in ingest + drain",
                rates.len(),
                ratio(decided as f64, busy.as_secs_f64()),
                busy.as_secs_f64()
            ),
        ),
        metric(
            "latency_p90_ms",
            percentile_ms(&latencies, 0.90),
            "ms",
            format!(
                "{seen} instances, {samples} sampled; p50 {:.3} ms, p99 {:.3} ms",
                percentile_ms(&latencies, 0.50),
                percentile_ms(&latencies, 0.99)
            ),
        ),
        metric(
            "msgs_per_instance",
            msgs,
            "messages",
            format!(
                "{sent} sent / {decided} decided; closed form {}, ratio {:.4}; \
                 t^2 floor {} (t = u = {}), ratio {:.2}",
                w.closed_form(),
                msgs / w.closed_form(),
                w.t2_floor(),
                w.u,
                msgs / w.t2_floor()
            ),
        ),
        metric(
            "ok_share",
            1.0 - ratio(failed as f64, tally.attempted as f64),
            "fraction",
            format!("fail_share = {failed} / {} offered", tally.attempted),
        ),
        metric(
            "setup_s",
            quantile(&mut setups, 0.9),
            "s",
            format!(
                "met by 9 in 10 of {} set-ups of {} instances",
                setups.len(),
                w.in_flight
            ),
        ),
        metric("peak_rss_mb", peak_rss_mb()?, "MB", "VmHWM".into()),
        metric(
            "trace_read_s",
            quantile(&mut reads, 0.9),
            "s",
            format!(
                "met by 9 in 10 of {} read-backs of {} instances; median {:.6} s",
                reads.len(),
                if w.record {
                    w.in_flight
                } else {
                    TRACE_INSTANCES
                },
                quantile(&mut reads, 0.5)
            ),
        ),
    ];
    Ok(Outcome { metrics, tally })
}

/// A span the benchmark records around one call into the program.
struct BenchSpan {
    name: &'static str,
    wave: u64,
    nanos: u64,
}

/// Sums of the traced run, split by wave kind.
#[derive(Default)]
struct Ledger {
    instances: u64,
    ingest_ns: u64,
    sent: u64,
    delivered: u64,
    spoofs: u64,
    untraced_instances: u64,
    untraced_drain_ns: u64,
    traced_instances: u64,
    traced_sent: u64,
    traced_ingest_ns: u64,
    traced_drain_ns: u64,
    fill_ns: u64,
    store_writes: u64,
    resolve_ns: u64,
    votes_evaluated: u64,
    votes_memo_hit: u64,
    arena_reuses: u64,
    arena_requests: u64,
    store_reuses: u64,
    store_requests: u64,
    read_instances: u64,
    spans: u64,
    export_ns: u64,
    parse_ns: u64,
    bytes: u64,
}

/// The traced run: untraced and recorded waves alternate, so the
/// recorder's cost is the difference between their drain times.
fn traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    spans_out: Option<&str>,
) -> Result<Outcome, String> {
    let mut d = Driver::set_up(w, seed, w.plan(seed))?;
    let mut tally = Tally::default();
    let mut spans: Vec<BenchSpan> = Vec::new();
    let mut l = Ledger::default();
    let (mut trace, mut traced) = (Obs::enabled(), 0);
    let start = Instant::now();
    let mut i = 0u64;
    while l.read_instances == 0 || start.elapsed().as_secs_f64() < seconds {
        // A drain right after a read-back runs slower than one after a
        // drain, so each cycle opens with an untimed settle wave and
        // every timed wave follows a drain.
        let phase = i % TRACED_CYCLE;
        let (settle, record) = (phase == 0, phase.is_multiple_of(2));
        let wave = d.wave(record);
        if settle {
            d.check(&wave, &mut tally);
            i += 1;
            continue;
        }
        let n = wave.decided();
        let (ingest_ns, drain_ns) = (wave.ingest.as_nanos() as u64, wave.drain.as_nanos() as u64);
        spans.push(BenchSpan {
            name: "bench.ingest",
            wave: i,
            nanos: ingest_ns,
        });
        spans.push(BenchSpan {
            name: if record {
                "bench.drain_observed"
            } else {
                "bench.drain"
            },
            wave: i,
            nanos: drain_ns,
        });
        l.instances += n;
        l.ingest_ns += ingest_ns;
        l.sent += wave.batch.run.net.sent as u64;
        l.delivered += wave.batch.run.net.delivered as u64;
        l.spoofs += wave.batch.run.spoofs_rejected;
        if record {
            let rec = &wave.recorder;
            let reg = rec.registry();
            l.traced_instances += n;
            l.traced_sent += wave.batch.run.net.sent as u64;
            l.traced_ingest_ns += ingest_ns;
            l.traced_drain_ns += drain_ns;
            for span in rec.spans() {
                match span.name.as_str() {
                    "batch.fill" => {
                        l.fill_ns += span.wall_nanos;
                        l.store_writes += span.logical;
                    }
                    "batch.resolve" => l.resolve_ns += span.wall_nanos,
                    _ => {}
                }
            }
            l.votes_evaluated += reg.counter("eig.votes_evaluated");
            l.votes_memo_hit += reg.counter("eig.votes_memo_hit");
            l.arena_reuses += reg.counter("svc.pool.arena_reuses");
            l.arena_requests += reg.counter("svc.pool.arena_requests");
            l.store_reuses += reg.counter("svc.pool.store_reuses");
            l.store_requests += reg.counter("svc.pool.store_requests");
            if traced < TRACE_INSTANCES as u64 {
                trace.merge(rec);
                traced += n;
            }
        } else {
            l.untraced_instances += n;
            l.untraced_drain_ns += drain_ns;
        }
        if phase == TRACED_CYCLE - 1 && traced >= TRACE_INSTANCES as u64 {
            let r = tally.read_back(&trace);
            spans.push(BenchSpan {
                name: "bench.export",
                wave: i,
                nanos: r.export.as_nanos() as u64,
            });
            spans.push(BenchSpan {
                name: "bench.parse",
                wave: i,
                nanos: r.parse.as_nanos() as u64,
            });
            l.read_instances += traced;
            l.spans += r.spans;
            l.export_ns += r.export.as_nanos() as u64;
            l.parse_ns += r.parse.as_nanos() as u64;
            l.bytes += r.bytes;
            (trace, traced) = (Obs::enabled(), 0);
        }
        let t = Instant::now();
        d.check(&wave, &mut tally);
        spans.push(BenchSpan {
            name: "bench.check",
            wave: i,
            nanos: t.elapsed().as_nanos() as u64,
        });
        i += 1;
    }
    if let Some(path) = spans_out {
        write_spans(path, w.name, &spans);
    }

    let f = |x: u64| x as f64;
    let stats = d.svc.stats();
    let msgs = ratio(f(l.sent), f(l.instances));
    let untraced_drain = ratio(f(l.untraced_drain_ns), f(l.untraced_instances));
    let traced_drain = ratio(f(l.traced_drain_ns), f(l.traced_instances));
    let fill = ratio(f(l.fill_ns), f(l.traced_instances));
    let resolve = ratio(f(l.resolve_ns), f(l.traced_instances));
    // With several workers the resolve spans overlap in time; their sum
    // over the worker count is the wall they cover if shards balance.
    let resolve_wall = resolve / w.workers as f64;
    let votes = l.votes_evaluated + l.votes_memo_hit;
    let tn = l.traced_instances;
    let metrics = vec![
        metric(
            "service.ingest.ns_per_instance",
            ratio(f(l.ingest_ns), f(l.instances)),
            "ns",
            format!("{} instances", l.instances),
        ),
        metric(
            "service.ingest.shed",
            f(stats.shed),
            "count",
            format!("{} offered", tally.attempted),
        ),
        metric(
            "service.drain.ns_per_instance",
            untraced_drain,
            "ns",
            format!("{} instances in untraced drains", l.untraced_instances),
        ),
        metric(
            "service.fill.ns_per_message",
            ratio(f(l.fill_ns), f(l.traced_sent)),
            "ns",
            format!("batch.fill spans over {tn} recorded instances"),
        ),
        metric(
            "service.fill.share",
            ratio(f(l.fill_ns), f(l.traced_ingest_ns + l.traced_drain_ns)),
            "fraction",
            format!(
                "of {} ns ingest + recorded drain",
                l.traced_ingest_ns + l.traced_drain_ns
            ),
        ),
        metric(
            "service.fill.store_writes_per_instance",
            ratio(f(l.store_writes), f(tn)),
            "writes",
            format!("{} store writes / {tn} instances", l.store_writes),
        ),
        metric(
            "simnet.delivered_per_instance",
            ratio(f(l.delivered), f(l.instances)),
            "messages",
            format!("{} delivered / {} instances", l.delivered, l.instances),
        ),
        metric(
            "service.fill.msgs_over_closed_form",
            msgs / w.closed_form(),
            "ratio",
            format!(
                "{msgs:.2} sent per instance / closed form {}",
                w.closed_form()
            ),
        ),
        metric(
            "service.fill.msgs_over_t2_floor",
            msgs / w.t2_floor(),
            "ratio",
            format!(
                "{msgs:.2} sent per instance / t^2 = {} (t = u)",
                w.t2_floor()
            ),
        ),
        metric(
            "service.fill.spoofs_rejected",
            f(l.spoofs),
            "count",
            format!("{} messages sent", l.sent),
        ),
        metric(
            "engine.resolve.ns_per_instance",
            resolve,
            "ns",
            format!("batch.resolve spans of {tn} instances"),
        ),
        metric(
            "engine.resolve.votes_per_instance",
            ratio(f(l.votes_evaluated), f(tn)),
            "votes",
            format!("{} evaluated / {tn} instances", l.votes_evaluated),
        ),
        metric(
            "engine.resolve.memo_hit_ratio",
            ratio(f(l.votes_memo_hit), f(votes)),
            "ratio",
            format!("{} memo hits / {votes} votes", l.votes_memo_hit),
        ),
        metric(
            "service.pool.ns_per_instance",
            untraced_drain - fill - resolve_wall,
            "ns",
            "untraced drain minus batch.fill and batch.resolve".into(),
        ),
        metric(
            "service.pool.arena_reuse_ratio",
            ratio(f(l.arena_reuses), f(l.arena_requests)),
            "ratio",
            format!("{} arena requests", l.arena_requests),
        ),
        metric(
            "service.pool.store_reuse_ratio",
            ratio(f(l.store_reuses), f(l.store_requests)),
            "ratio",
            format!("{} store requests", l.store_requests),
        ),
        metric(
            "service.pool.store_builds",
            f(stats.store_builds),
            "count",
            format!(
                "{} stores requested over the service's life",
                stats.store_builds + stats.store_reuses
            ),
        ),
        metric(
            "obs.record.ns_per_instance",
            traced_drain - untraced_drain,
            "ns",
            "recorded drain minus untraced drain".into(),
        ),
        metric(
            "obs.record.spans_per_instance",
            ratio(f(l.spans), f(l.read_instances)),
            "spans",
            format!("{} spans / {} instances", l.spans, l.read_instances),
        ),
        metric(
            "obs.export.ns_per_span",
            ratio(f(l.export_ns), f(l.spans)),
            "ns",
            format!("{} spans exported", l.spans),
        ),
        metric(
            "obs.json.ns_per_byte",
            ratio(f(l.parse_ns), f(l.bytes)),
            "ns",
            format!("{} bytes parsed", l.bytes),
        ),
        metric(
            "obs.trace.bytes_per_instance",
            ratio(f(l.bytes), f(l.read_instances)),
            "bytes",
            format!("{} bytes / {} instances", l.bytes, l.read_instances),
        ),
        metric(
            "service.drain.unattributed_share",
            ratio(traced_drain - fill - resolve_wall, traced_drain),
            "fraction",
            format!("of {} ns recorded drain", l.traced_drain_ns),
        ),
    ];
    Ok(Outcome { metrics, tally })
}

/// Writes the benchmark's own spans as JSON lines; a failure to write
/// is reported and does not fail the run.
fn write_spans(path: &str, workload: &str, spans: &[BenchSpan]) {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"wave\":{},\"dur_ns\":{}}}",
            s.name, s.wave, s.nanos
        );
    }
    let written = std::path::Path::new(path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, out));
    if let Err(e) = written {
        eprintln!("spans not written to {path}: {e}");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or(format!("unknown workload {}", args.workload))?;
    self_test().map_err(|e| format!("self-test failed: {e}"))?;
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "workload {}: BYZ({},{}) N={} in_flight={} workers={} faulty={} record={} \
         seed={} seconds={} trace={} available_parallelism={parallelism}",
        w.name,
        w.m,
        w.u,
        w.n,
        w.in_flight,
        w.workers,
        w.plan(args.seed).len(),
        w.record,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let out = if args.trace {
        traced(w, args.seed, args.seconds, args.spans_out.as_deref())?
    } else {
        end_to_end(w, args.seed, args.seconds)?
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
        println!(
            "{:<40} {:>16.6} {:<9} ({})",
            m.name, m.value, m.unit, m.base
        );
    }
    println!(
        "checks: {:?} over {} offered; conditions held: {:?}",
        out.tally.failures, out.tally.attempted, out.tally.conditions
    );
    let failed = out.tally.failures.total();
    let correct = failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        out.tally.attempted
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn checks_count_a_tampered_decision_and_a_truncated_trace() {
        super::self_test().unwrap();
    }

    #[test]
    fn closed_forms_match_the_eig_tree() {
        let forms: Vec<f64> = super::WORKLOADS.iter().map(|w| w.closed_form()).collect();
        assert_eq!(forms, [16.0, 1464.0, 400.0, 16.0]);
    }
}
