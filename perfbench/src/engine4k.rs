//! `engine_4k`: one 4096-rule engine decided in-process by one
//! closed-loop thread, behind the `Arc<RwLock<Grbac>>` a served tenant
//! sits behind, read-locked for each call. A second thread would bounce
//! the lock's and the telemetry counters' cache lines between the
//! cores, and that cost follows where the host places the two vCPUs:
//! with two threads the decide p50 of ten seeds spread between its
//! quartiles by more than a quarter of its median.

use std::sync::{Arc, RwLock};
use std::time::Instant;

use grbac_bench::fixtures::{synthetic_grbac, SyntheticGrbac};
use grbac_core::prelude::{RoleId, RuleId, TransactionId};
use grbac_core::{AccessRequest, AuthContext, Confidence, Grbac, RoleKind, RuleDef};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::ledger::{self, SINK_CALLS, SINK_ROUNDS};
use crate::load::{summarize, Control, Edits, Phase, ThreadStats, IDLE};
use crate::shape::{self, Shape, CHURN_ROLE, ENGINE_4K};
use crate::stats::Tally;
use crate::trace::{Layer, Tracer};
use crate::{Plan, Report};

/// Applies the workload's engine settings (the §5.2 permit threshold
/// and the churn role) to a freshly generated system.
fn configure(system: &mut SyntheticGrbac) -> RoleId {
    system
        .engine
        .set_default_min_confidence(Confidence::new(shape::MIN_CONFIDENCE).expect("in range"));
    system
        .engine
        .declare_subject_role(CHURN_ROLE)
        .expect("churn role is new")
}

/// Thread `thread`'s request stream: one request in
/// `sensed_every` carries sensed evidence — its subject's identity at
/// below-threshold confidence plus one role claim above it.
pub fn requests(
    system: &SyntheticGrbac,
    shape: &Shape,
    seed: u64,
    thread: usize,
) -> Vec<AccessRequest> {
    let stream = shape::stream_seed(seed, thread);
    let mut rng = rand::rngs::StdRng::seed_from_u64(stream);
    let subject_roles: Vec<RoleId> = (0..shape::SUBJECT_ROLES)
        .map(|i| {
            system
                .engine
                .roles()
                .find(RoleKind::Subject, &format!("sr_{i}"))
                .expect("fixture role")
        })
        .collect();
    system
        .requests(shape.requests_per_stream, shape.active_env, stream)
        .into_iter()
        .enumerate()
        .map(|(i, request)| {
            if shape.sensed_every == 0 || i % shape.sensed_every != shape.sensed_every - 1 {
                return request;
            }
            let grbac_core::Actor::Subject(subject) = request.actor else {
                unreachable!("fixture requests come from trusted subjects")
            };
            let mut context = AuthContext::new();
            context.claim_identity(
                subject,
                Confidence::new(shape::IDENTITY_CONFIDENCE).expect("in range"),
            );
            context.claim_role(
                *subject_roles.choose(&mut rng).expect("roles"),
                Confidence::new(shape::ROLE_CLAIM_CONFIDENCE).expect("in range"),
            );
            AccessRequest::by_sensed(
                context,
                request.transaction,
                request.object,
                request.environment,
            )
        })
        .collect()
}

/// What the churn rules name besides the churn role, looked up on the
/// mirror before it is dropped.
struct ChurnTargets {
    object_roles: Vec<RoleId>,
    transactions: Vec<TransactionId>,
}

impl ChurnTargets {
    fn of(system: &SyntheticGrbac) -> Self {
        let object_roles = (0..shape::OBJECT_ROLES)
            .map(|i| {
                system
                    .engine
                    .roles()
                    .find(RoleKind::Object, &format!("or_{i}"))
                    .expect("fixture role")
            })
            .collect();
        Self {
            object_roles,
            transactions: system.transactions.clone(),
        }
    }

    /// The churn rule of pair `pair`.
    fn rule(&self, churn_role: RoleId, pair: u64) -> RuleDef {
        let def = if pair.is_multiple_of(2) {
            RuleDef::permit()
        } else {
            RuleDef::deny()
        };
        def.named(format!("churn_{pair}"))
            .subject_role(churn_role)
            .object_role(self.object_roles[pair as usize % self.object_roles.len()])
            .transaction(self.transactions[pair as usize % self.transactions.len()])
    }
}

/// Builds the engine, applies the workload settings and runs the first
/// (index-compiling) decide. Returns the seconds it took last.
fn set_up(shape: &Shape, seed: u64, first: &AccessRequest) -> (Arc<RwLock<Grbac>>, RoleId, f64) {
    let start = Instant::now();
    let mut system = synthetic_grbac(&shape.policy(seed, 0));
    let churn_role = configure(&mut system);
    let engine = Arc::new(RwLock::new(system.engine));
    engine
        .read()
        .expect("fresh lock")
        .decide(first)
        .expect("first decide");
    let seconds = start.elapsed().as_secs_f64();
    (engine, churn_role, seconds)
}

/// Seconds of each of `count` set-ups in this process.
pub fn setup_times(plan: &Plan, count: usize) -> Vec<f64> {
    let shape = ENGINE_4K;
    let mut mirror = synthetic_grbac(&shape.policy(plan.seed, 0));
    configure(&mut mirror);
    let first = requests(&mirror, &shape, plan.seed, 0).swap_remove(0);
    (0..count)
        .map(|_| set_up(&shape, plan.seed, &first).2)
        .collect()
}

pub fn run(plan: &Plan) -> Report {
    let shape = ENGINE_4K;
    let mut report = Report::default();

    // Inputs and the oracle, off the clock: an identically seeded
    // mirror answers every request through the reference scan, and is
    // dropped before the measured engine is built so peak memory is
    // the measured system's.
    let mut mirror = synthetic_grbac(&shape.policy(plan.seed, 0));
    configure(&mut mirror);
    let streams: Vec<Vec<AccessRequest>> = (0..shape.load_threads)
        .map(|t| requests(&mirror, &shape, plan.seed, t))
        .collect();
    let oracle: Vec<Vec<bool>> = streams
        .iter()
        .map(|stream| {
            stream
                .iter()
                .map(|r| {
                    mirror
                        .engine
                        .decide_naive(r)
                        .expect("oracle decide")
                        .is_permitted()
                })
                .collect()
        })
        .collect();
    let targets = ChurnTargets::of(&mirror);
    drop(mirror);

    let (engine, churn_role, _) = set_up(&shape, plan.seed, &streams[0][0]);
    let rules_before = engine.read().expect("lock").rules().len();
    let generation_before = engine.read().expect("lock").policy_generation();

    // Closed-loop decide load. In the pause before one window in
    // `CHUNK_EVERY` a chunk of the edit probe runs, the in-process edit
    // latency this workload reports, and then a set-up process is timed.
    // The probe goes first, while the caches hold what the load left:
    // after a set-up process they held its engine instead, and the edit
    // p90 of five seeds spread by 23% where in this order it spread 6%.
    let control = Control::new(shape::WINDOWS, plan.trace);
    let mut setups = Vec::new();
    let epoch = plan.epoch;
    let mut edits = Edits::new(shape::WINDOWS, Tracer::new("probe", epoch));
    let mut probe = Probe {
        engine: &engine,
        targets: &targets,
        churn_role,
        stream: &streams[0],
        expected: &oracle[0],
        span: plan.trace.then_some(Layer::Edit),
        k: 0,
    };
    let (durations, threads) = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .zip(&oracle)
            .enumerate()
            .map(|(t, (stream, expected))| {
                let engine = &engine;
                let control = &control;
                scope.spawn(move || {
                    decide_loop(
                        engine,
                        control,
                        stream,
                        expected,
                        Tracer::new(["load0", "load1"][t], epoch),
                    )
                })
            })
            .collect();
        let durations = control.drive(plan.window, |i| {
            if i % shape::CHUNK_EVERY != 0 {
                return;
            }
            probe.run(&mut edits, i, shape.probe_edits);
            if !plan.trace {
                setups.push(crate::setup_in_child(plan));
            }
        });
        let threads: Vec<ThreadStats> = workers
            .into_iter()
            .map(|w| w.join().expect("load thread"))
            .collect();
        (durations, threads)
    });
    report.set_setups(setups);
    for thread in &threads {
        report.tally.add(thread.tally);
    }
    let untraced = summarize(
        &threads,
        &durations,
        |i| !control.traced(Phase::Window(i)),
        shape::WINDOW_RANK,
    );
    report.set_decides(&untraced);
    let recorder_dropped = engine.read().expect("lock").flight_recorder().dropped();
    edits.report(&mut report, shape::WINDOW_RANK);
    report.tally.add(edits.tally);
    let acked = edits.acked;
    {
        let guard = engine.read().expect("lock");
        report.check(
            guard.rules().len() == rules_before,
            format!(
                "rule count {} after the probe, {rules_before} before",
                guard.rules().len()
            ),
        );
        report.check(
            guard.policy_generation() == generation_before + acked,
            format!(
                "generation advanced by {}, {acked} edits acknowledged",
                guard.policy_generation() - generation_before
            ),
        );
    }

    if plan.trace {
        let traced = summarize(
            &threads,
            &durations,
            |i| control.traced(Phase::Window(i)),
            shape::WINDOW_RANK,
        );
        report.per_layer.overhead(&untraced, &traced);
        report.per_layer.build_ms =
            crate::index_build_ms(&shape.policy(plan.seed, 0), &streams[0][0]);
        report.per_layer.index = ledger::index_ledger(&engine.read().expect("lock"));
        report.per_layer.recorder_dropped = recorder_dropped;
        let all: Vec<AccessRequest> = streams.concat();
        report.per_layer.engine = ledger::engine_ledger(&engine, &all, plan.ledger_calls);
        let (_, sinks) = ledger::sink_ledger(&engine, &all, SINK_CALLS, SINK_ROUNDS);
        report.per_layer.sinks = sinks;
        report.per_layer.bus_dropped = engine
            .read()
            .expect("lock")
            .metrics()
            .events
            .dropped_total();
        serve_ledger(plan, &shape, &streams[0], &mut report);
        let mut tracers: Vec<Tracer> = threads.into_iter().map(|t| t.tracer).collect();
        tracers.push(edits.tracer);
        report.write_trace(plan, &tracers);
    }
    report
}

/// The closed-loop edit probe: add/remove pairs naming the churn role,
/// each edit followed by a checked decide that applies its index patch.
/// An edit is due when the decide before it returned.
struct Probe<'a> {
    engine: &'a RwLock<Grbac>,
    targets: &'a ChurnTargets,
    churn_role: RoleId,
    stream: &'a [AccessRequest],
    expected: &'a [bool],
    span: Option<Layer>,
    /// The next edit's number across chunks.
    k: u64,
}

impl Probe<'_> {
    /// Runs `count` edits (an even count: whole pairs) charged to
    /// `window`.
    fn run(&mut self, edits: &mut Edits, window: usize, count: usize) {
        let mut added = RuleId::from_raw(0);
        for _ in 0..count {
            let k = self.k;
            let sent = Instant::now();
            let ok = {
                let mut guard = self.engine.write().expect("engine lock poisoned");
                if k.is_multiple_of(2) {
                    match guard.add_rule(self.targets.rule(self.churn_role, k / 2)) {
                        Ok(id) => {
                            added = id;
                            true
                        }
                        Err(_) => false,
                    }
                } else {
                    guard.remove_rule(added)
                }
            };
            let done = Instant::now();
            edits.record(k, Some(window), sent, sent, done, ok, self.span);
            let i = k as usize % self.stream.len();
            let decided = self
                .engine
                .read()
                .expect("engine lock poisoned")
                .decide(&self.stream[i]);
            match decided {
                Ok(d) => edits.tally.decision(d.is_permitted(), self.expected[i]),
                Err(_) => edits.tally.operation(false),
            }
            self.k += 1;
        }
    }
}

fn decide_loop(
    engine: &RwLock<Grbac>,
    control: &Control,
    stream: &[AccessRequest],
    expected: &[bool],
    tracer: Tracer,
) -> ThreadStats {
    let mut stats = ThreadStats::new(shape::WINDOWS, tracer);
    let mut i = 0usize;
    loop {
        let phase = control.phase();
        match phase {
            Phase::Stopped => return stats,
            Phase::Paused => {
                std::thread::sleep(IDLE);
                continue;
            }
            Phase::Warmup | Phase::Window(_) => {}
        }
        let k = i % stream.len();
        let start = Instant::now();
        let guard = engine.read().expect("engine lock poisoned");
        let locked = Instant::now();
        let decision = guard.decide(&stream[k]);
        drop(guard);
        let end = Instant::now();
        match decision {
            Ok(d) => stats.tally.decision(d.is_permitted(), expected[k]),
            Err(_) => stats.tally.operation(false),
        }
        stats.complete(phase, end - start);
        if control.traced(phase) {
            let request = i as u64;
            stats.tracer.record(Layer::ReadLock, request, start, locked);
            stats.tracer.record(Layer::Decide, request, locked, end);
        }
        i += 1;
    }
}

/// The service layer for this policy: a one-tenant service and server
/// of its own, fed the same requests as wire lines.
fn serve_ledger(plan: &Plan, shape: &Shape, stream: &[AccessRequest], report: &mut Report) {
    let mut system = synthetic_grbac(&shape.policy(plan.seed, 0));
    configure(&mut system);
    // The wire names a trusted subject; sensed requests keep their
    // claimed identity and are checked against that subject's decision.
    let oracle = &system.engine;
    let lines: Vec<(String, bool)> = stream
        .iter()
        .map(|request| {
            let subject = match &request.actor {
                grbac_core::Actor::Subject(s) => *s,
                grbac_core::Actor::Sensed(context) => {
                    context.identity().expect("identity claimed").0
                }
                grbac_core::Actor::Session(_) => unreachable!("no sessions in this workload"),
            };
            let trusted = AccessRequest::by_subject(
                subject,
                request.transaction,
                request.object,
                request.environment.clone(),
            );
            let permits = oracle
                .decide_naive(&trusted)
                .expect("oracle decide")
                .is_permitted();
            (crate::wire::decide_line("t0", oracle, &trusted), permits)
        })
        .collect();
    let service = Arc::new(grbac_serve::PolicyService::with_defaults());
    service
        .create_tenant_with_engine("t0", system.engine)
        .expect("tenant provisioned");
    let server = grbac_serve::ServeServer::serve(Arc::clone(&service), "127.0.0.1:0")
        .expect("loopback bind");
    let edits: Vec<(String, String)> = (0..plan.ledger_edits)
        .map(|k| (crate::wire::add_rule_line("t0", k), "t0".to_owned()))
        .collect();
    let mut tally = Tally::default();
    let serve = ledger::serve_ledger(
        &service,
        server.local_addr(),
        &lines,
        &edits,
        plan.ledger_calls,
        &mut tally,
    );
    report.tally.add(tally);
    report.per_layer.spans_recorded = service.span_store().total_recorded();
    report.per_layer.spans_dropped = service.span_store().dropped();
    report.per_layer.live_spans = serve.spans.clone();
    report.per_layer.serve = serve;
    server.shutdown();
}
