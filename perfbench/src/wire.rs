//! The wire workloads: a self-hosted `ServeServer` with the default
//! `ServiceConfig`, driven over loopback by blocking NDJSON clients.
//!
//! Each tenant has one decide connection, and one load thread drives
//! every decide connection in turn, closed-loop: a second client thread
//! beside the server's connection threads would oversubscribe a
//! two-core host, and the scheduling it leaves to chance moved
//! round-trip figures by a quarter from run to run.
//!
//! Both workloads run the whole process on one core (see
//! `Shape::one_core`). `wire_small` serves two 128-rule tenants and runs
//! a closed-loop edit probe on the first connection in the pause before
//! one window in `CHUNK_EVERY`. `wire_churn` serves one 1024-rule
//! tenant: connection A decides in a closed loop while connection B
//! sends `add_rule`/`remove_rule` pairs open-loop for the whole run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use grbac_bench::fixtures::{synthetic_grbac, SyntheticGrbac};
use grbac_bench::serveload::{parse_rule_id, remove_rule_line, WireLoad};
use grbac_core::telemetry::SpanStore;
use grbac_core::{AccessRequest, EnvironmentSnapshot, Grbac, RoleKind};
use grbac_serve::{Client, PolicyService, ServeServer, ServiceConfig};
use serde_json::Value;

use crate::ledger::{self, SpanCollector, SINK_CALLS, SINK_ROUNDS};
use crate::load::{summarize, Control, Edits, Phase, ThreadStats, IDLE};
use crate::shape::{self, Shape, CHURN_ROLE, WIRE_CHURN, WIRE_SMALL};
use crate::stats::{OpenLoop, Tally};
use crate::trace::{Layer, Tracer};
use crate::{Plan, Report};

const PERMIT: &str = "\"effect\":\"permit\"";
const OK: &str = "\"ok\":true";

/// A decide line for `request`, naming its entities as `engine`
/// declares them.
pub fn decide_line(tenant: &str, engine: &Grbac, request: &AccessRequest) -> String {
    let grbac_core::Actor::Subject(subject) = request.actor else {
        unreachable!("wire requests name a trusted subject")
    };
    let entities = engine.entities();
    let env: Vec<String> = request
        .environment
        .active()
        .iter()
        .map(|&role| {
            format!(
                "\"{}\"",
                engine.roles().role(role).expect("declared role").name()
            )
        })
        .collect();
    format!(
        r#"{{"op":"decide","tenant":"{tenant}","subject":"{}","transaction":"{}","object":"{}","env":[{}]}}"#,
        entities.subject(subject).expect("declared subject").name(),
        entities
            .transaction(request.transaction)
            .expect("declared transaction")
            .name(),
        entities
            .object(request.object)
            .expect("declared object")
            .name(),
        env.join(",")
    )
}

/// The `add_rule` line of churn pair `pair`: it names only the churn
/// role, so no decide can see it.
pub fn add_rule_line(tenant: &str, pair: u64) -> String {
    let effect = if pair.is_multiple_of(2) {
        "permit"
    } else {
        "deny"
    };
    format!(
        r#"{{"op":"add_rule","tenant":"{tenant}","effect":"{effect}","name":"churn_{pair}","subject_role":"{CHURN_ROLE}","object_role":"or_{}","transaction":"t_{}"}}"#,
        pair as usize % shape::OBJECT_ROLES,
        pair as usize % shape::TRANSACTIONS,
    )
}

/// Resolves a decide line against `engine`'s catalogs (the oracle's
/// view of what the server will decide).
fn resolve(engine: &Grbac, line: &str) -> AccessRequest {
    let request: Value = serde_json::from_str(line).expect("generated line parses");
    let name = |key: &str| {
        request
            .get(key)
            .and_then(Value::as_str)
            .expect("name field")
    };
    let entities = engine.entities();
    let env = match request.get("env") {
        Some(Value::Seq(roles)) => roles
            .iter()
            .map(|role| {
                engine
                    .roles()
                    .find(RoleKind::Environment, role.as_str().expect("role name"))
                    .expect("declared role")
            })
            .collect(),
        _ => Vec::new(),
    };
    AccessRequest::by_subject(
        entities
            .find_subject(name("subject"))
            .expect("declared subject"),
        entities
            .find_transaction(name("transaction"))
            .expect("declared transaction"),
        entities
            .find_object(name("object"))
            .expect("declared object"),
        EnvironmentSnapshot::from_active(env),
    )
}

/// One connection's decide stream with the oracle's answer per line.
struct Stream {
    tenant: String,
    lines: Vec<String>,
    requests: Vec<AccessRequest>,
    expected: Vec<bool>,
}

/// Decide connection `policy`'s lines: `count` lines against tenant
/// `t{policy}`.
fn decide_lines(shape: &Shape, seed: u64, policy: usize, count: usize) -> Vec<String> {
    WireLoad {
        tenant: format!("t{policy}"),
        subjects: shape::SUBJECTS,
        objects: shape::OBJECTS,
        transactions: shape::TRANSACTIONS,
        environment_roles: shape::ENVIRONMENT_ROLES,
        active_env: shape.active_env,
        seed: shape::stream_seed(seed, policy),
    }
    .decide_lines(count)
}

fn streams(shape: &Shape, seed: u64, mirrors: &[SyntheticGrbac]) -> Vec<Stream> {
    (0..shape.policies)
        .map(|policy| {
            let tenant = format!("t{policy}");
            let lines = decide_lines(shape, seed, policy, shape.requests_per_stream);
            let mirror = &mirrors[policy].engine;
            let requests: Vec<AccessRequest> =
                lines.iter().map(|line| resolve(mirror, line)).collect();
            let expected = requests
                .iter()
                .map(|r| {
                    mirror
                        .decide_naive(r)
                        .expect("oracle decide")
                        .is_permitted()
                })
                .collect();
            Stream {
                tenant,
                lines,
                requests,
                expected,
            }
        })
        .collect()
}

/// A running service with one decide connection per tenant, plus the
/// edit connection when edits run beside the load. A decide connection
/// sits in a mutex so the edit probe can borrow it while the load is
/// paused.
struct Hosted {
    service: Arc<PolicyService>,
    server: ServeServer,
    clients: Vec<Mutex<Client>>,
    editor: Option<Client>,
}

impl Hosted {
    /// Closes every connection, then stops the server and joins its
    /// threads.
    fn shut_down(self) {
        drop(self.clients);
        drop(self.editor);
        self.server.shutdown();
    }
}

fn request_ok(client: &mut Client, line: &str) -> bool {
    client.request_line(line).is_ok_and(|r| r.contains(OK))
}

/// Builds the tenants' engines, provisions them, starts the server,
/// connects, declares the churn role over the wire and runs each
/// connection's first (index-compiling) decide, `firsts[t]` on
/// connection `t`. Returns the seconds it took.
fn set_up(shape: &Shape, seed: u64, firsts: &[&str]) -> (Hosted, f64) {
    let start = Instant::now();
    let service = Arc::new(PolicyService::new(ServiceConfig::default()));
    for policy in 0..shape.policies {
        let system = synthetic_grbac(&shape.policy(seed, policy));
        service
            .create_tenant_with_engine(&format!("t{policy}"), system.engine)
            .expect("tenant provisioned");
    }
    let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("loopback bind");
    let connect = || Client::connect(server.local_addr()).expect("loopback connect");
    let mut clients: Vec<Client> = firsts.iter().map(|_| connect()).collect();
    for (policy, (client, first)) in clients.iter_mut().zip(firsts).enumerate() {
        let declare = format!(
            r#"{{"op":"declare","tenant":"t{policy}","kind":"subject_role","name":"{CHURN_ROLE}"}}"#
        );
        assert!(request_ok(client, &declare), "churn role declared");
        assert!(request_ok(client, first), "first decide");
    }
    let editor = (shape.edits_per_s > 0).then(connect);
    let seconds = start.elapsed().as_secs_f64();
    (
        Hosted {
            service,
            server,
            clients: clients.into_iter().map(Mutex::new).collect(),
            editor,
        },
        seconds,
    )
}

/// `(rules, generation)` of a tenant, from the `status` op.
fn status(client: &mut Client, tenant: &str) -> (u64, u64) {
    let response = client
        .request_line(&format!(r#"{{"op":"status","tenant":"{tenant}"}}"#))
        .expect("status");
    let parsed: Value = serde_json::from_str(&response).expect("status parses");
    let field = |key: &str| match parsed.get("result").and_then(|r| r.get(key)) {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => u64::try_from(*n).expect("non-negative"),
        other => panic!("status {key}: {other:?}"),
    };
    (field("rules"), field("generation"))
}

/// Sends edit `k` of the churn stream: an `add_rule` on even `k`, the
/// matching `remove_rule` on odd `k`. True when acknowledged.
fn edit(client: &mut Client, tenant: &str, k: u64, added: &mut Option<u64>) -> bool {
    if k.is_multiple_of(2) {
        let response = client.request_line(&add_rule_line(tenant, k / 2));
        *added = response.ok().as_deref().and_then(parse_rule_id);
        added.is_some()
    } else {
        added.take().is_some_and(|rule| {
            client
                .request_line(&remove_rule_line(tenant, rule))
                .is_ok_and(|r| r.contains("\"removed\":true"))
        })
    }
}

/// One load thread: sends each call on the next of `connections` in
/// turn, closed-loop.
fn decide_loop(
    connections: &[(&Mutex<Client>, &Stream)],
    control: &Control,
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
        let (client, stream) = connections[i % connections.len()];
        let k = (i / connections.len()) % stream.lines.len();
        let mut client = client.lock().expect("client lock poisoned");
        let start = Instant::now();
        let response = client.request_line(&stream.lines[k]);
        let end = Instant::now();
        drop(client);
        match response {
            Ok(r) if r.contains(OK) => stats.tally.decision(r.contains(PERMIT), stream.expected[k]),
            Ok(_) => stats.tally.operation(false),
            Err(_) => {
                stats.tally.operation(false);
                return stats;
            }
        }
        stats.complete(phase, end - start);
        if control.traced(phase) {
            stats.tracer.record(Layer::WireDecide, i as u64, start, end);
        }
        i += 1;
    }
}

/// Polls the service's span store while `on` is set, until `stop`.
fn collect_spans(service: &PolicyService, on: &AtomicBool, stop: &AtomicBool) -> SpanCollector {
    let mut collector = SpanCollector::default();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(10));
        if on.load(Ordering::Acquire) {
            collector.poll(service.span_store());
        }
    }
    collector
}

/// Connection B of `wire_churn`: edits open-loop at `per_s` from the
/// start of warm-up until the load stops, timed in the load's windows.
fn churn_loop(
    client: &mut Client,
    tenant: &str,
    per_s: u32,
    control: &Control,
    epoch: Instant,
) -> Edits {
    let mut edits = Edits::new(shape::WINDOWS, Tracer::new("editor", epoch));
    let mut schedule = OpenLoop::new(Instant::now(), per_s);
    let mut added = None;
    let mut k = 0;
    loop {
        schedule.wait_for(k);
        let phase = control.phase();
        // Pause or stop only between pairs, so the policy is as it began.
        if k % 2 == 0 {
            match phase {
                Phase::Stopped => return edits,
                Phase::Paused => {
                    while control.phase() == Phase::Paused {
                        std::thread::sleep(IDLE);
                    }
                    schedule.restart(Instant::now(), k);
                    continue;
                }
                Phase::Warmup | Phase::Window(_) => {}
            }
        }
        let sent = Instant::now();
        let ok = edit(client, tenant, k, &mut added);
        let done = Instant::now();
        let span = control.traced(phase).then_some(Layer::WireEdit);
        edits.record(k, phase.window(), schedule.due(k), sent, done, ok, span);
        k += 1;
    }
}

/// A chunk of the edit probe of `wire_small`: edits `first..first +
/// count` (whole pairs), closed-loop on one connection, each followed
/// by a checked decide, charged to `window`. An edit is due when the
/// decide before it returned.
fn probe(
    client: &mut Client,
    stream: &Stream,
    edits: &mut Edits,
    window: usize,
    first: u64,
    count: usize,
    span: Option<Layer>,
) {
    let mut added = None;
    for k in first..first + count as u64 {
        let sent = Instant::now();
        let ok = edit(client, &stream.tenant, k, &mut added);
        let done = Instant::now();
        edits.record(k, Some(window), sent, sent, done, ok, span);
        let i = k as usize % stream.lines.len();
        match client.request_line(&stream.lines[i]) {
            Ok(r) if r.contains(OK) => edits.tally.decision(r.contains(PERMIT), stream.expected[i]),
            _ => edits.tally.operation(false),
        }
    }
}

/// Seconds of each of `count` set-ups in this process.
pub fn setup_times(plan: &Plan, shape: Shape, count: usize) -> Vec<f64> {
    let lines: Vec<String> = (0..shape.policies)
        .map(|policy| decide_lines(&shape, plan.seed, policy, 1).swap_remove(0))
        .collect();
    let firsts: Vec<&str> = lines.iter().map(String::as_str).collect();
    (0..count)
        .map(|_| {
            let (hosted, seconds) = set_up(&shape, plan.seed, &firsts);
            hosted.shut_down();
            seconds
        })
        .collect()
}

pub fn run_small(plan: &Plan) -> Report {
    run(plan, WIRE_SMALL)
}

pub fn run_churn(plan: &Plan) -> Report {
    run(plan, WIRE_CHURN)
}

fn run(plan: &Plan, shape: Shape) -> Report {
    assert_eq!(
        shape.load_threads, 1,
        "one load thread drives the decide connections"
    );
    let mut report = Report::default();
    // Inputs and the oracle, off the clock; the mirrors are dropped
    // before the measured service is built so peak memory is its own.
    let mirrors: Vec<SyntheticGrbac> = (0..shape.policies)
        .map(|policy| synthetic_grbac(&shape.policy(plan.seed, policy)))
        .collect();
    let streams = streams(&shape, plan.seed, &mirrors);
    drop(mirrors);

    let firsts: Vec<&str> = streams.iter().map(|s| s.lines[0].as_str()).collect();
    let (mut hosted, _) = set_up(&shape, plan.seed, &firsts);
    let service = Arc::clone(&hosted.service);
    let tenant = streams[0].tenant.clone();
    let first_client = || hosted.clients[0].lock().expect("client lock poisoned");
    let (rules_before, generation_before) = status(&mut first_client(), &tenant);

    // Closed-loop decide load. In the pause before one window in
    // `CHUNK_EVERY` a chunk of the edit probe runs and then a set-up
    // process is timed, the probe first while the caches hold what the
    // load left (as on engine_4k).
    let control = Control::new(shape::WINDOWS, plan.trace);
    let mut probed = Edits::new(shape::WINDOWS, Tracer::new("probe", plan.epoch));
    let probe_span = plan.trace.then_some(Layer::WireEdit);
    let mut setups = Vec::new();
    let collecting = AtomicBool::new(false);
    let collector_stop = AtomicBool::new(false);
    let epoch = plan.epoch;
    let mut editor = hosted.editor.take();
    let (durations, threads, edits, collector) = std::thread::scope(|outer| {
        let collector = plan
            .trace
            .then(|| outer.spawn(|| collect_spans(&service, &collecting, &collector_stop)));
        let (durations, threads, churn) = std::thread::scope(|scope| {
            let connections: Vec<(&Mutex<Client>, &Stream)> =
                hosted.clients.iter().zip(&streams).collect();
            let control = &control;
            let worker = scope
                .spawn(move || decide_loop(&connections, control, Tracer::new("load0", epoch)));
            // Connection B: open-loop edits for the whole run.
            let churner = editor.as_mut().map(|client| {
                let tenant = &tenant;
                scope.spawn(move || churn_loop(client, tenant, shape.edits_per_s, control, epoch))
            });
            let durations = control.drive(plan.window, |i| {
                let chunk = i % shape::CHUNK_EVERY == 0;
                if chunk && shape.probe_edits > 0 {
                    if plan.trace {
                        service.span_store().set_sample_rate(1);
                        collecting.store(true, Ordering::Release);
                    }
                    let first = (i * shape.probe_edits) as u64;
                    probe(
                        &mut first_client(),
                        &streams[0],
                        &mut probed,
                        i,
                        first,
                        shape.probe_edits,
                        probe_span,
                    );
                }
                if chunk && !plan.trace {
                    setups.push(crate::setup_in_child(plan));
                }
                let traced = control.traced(Phase::Window(i));
                service.span_store().set_sample_rate(if traced {
                    1
                } else {
                    SpanStore::DEFAULT_SAMPLE_RATE
                });
                collecting.store(traced, Ordering::Release);
            });
            let threads = vec![worker.join().expect("load thread")];
            (
                durations,
                threads,
                churner.map(|c| c.join().expect("edit thread")),
            )
        });
        let edits = churn.unwrap_or(probed);
        collector_stop.store(true, Ordering::Release);
        let collector = collector.map(|c| c.join().expect("span collector"));
        (durations, threads, edits, collector)
    });
    service
        .span_store()
        .set_sample_rate(SpanStore::DEFAULT_SAMPLE_RATE);

    report.set_setups(setups);
    for thread in &threads {
        report.tally.add(thread.tally);
    }
    report.tally.add(edits.tally);
    let untraced = summarize(
        &threads,
        &durations,
        |i| !control.traced(Phase::Window(i)),
        shape::WINDOW_RANK,
    );
    report.set_decides(&untraced);
    edits.report(&mut report, shape::WINDOW_RANK);

    let (rules_after, generation_after) = status(&mut first_client(), &tenant);
    report.check(
        rules_after == rules_before,
        format!("tenant {tenant} has {rules_after} rules after the run, {rules_before} before"),
    );
    report.check(
        generation_after == generation_before + edits.acked,
        format!(
            "tenant {tenant} generation advanced by {}, {} edits acknowledged",
            generation_after - generation_before,
            edits.acked
        ),
    );

    if plan.trace {
        let traced = summarize(
            &threads,
            &durations,
            |i| control.traced(Phase::Window(i)),
            shape::WINDOW_RANK,
        );
        let layers = &mut report.per_layer;
        layers.overhead(&untraced, &traced);
        layers.build_ms =
            crate::index_build_ms(&shape.policy(plan.seed, 0), &streams[0].requests[0]);
        let engine: Arc<RwLock<Grbac>> = service.tenant(&tenant).expect("tenant").engine;
        layers.index = ledger::index_ledger(&engine.read().expect("lock"));
        layers.recorder_dropped = engine.read().expect("lock").flight_recorder().dropped();
        layers.spans_recorded = service.span_store().total_recorded();
        layers.spans_dropped = service.span_store().dropped();
        layers.live_spans = collector.expect("collector ran").stats;
        let requests: Vec<AccessRequest> = streams
            .iter()
            .filter(|s| s.tenant == tenant)
            .flat_map(|s| s.requests.clone())
            .collect();
        layers.engine = ledger::engine_ledger(&engine, &requests, plan.ledger_calls);
        let (_, sinks) = ledger::sink_ledger(&engine, &requests, SINK_CALLS, SINK_ROUNDS);
        layers.sinks = sinks;
        layers.bus_dropped = engine
            .read()
            .expect("lock")
            .metrics()
            .events
            .dropped_total();
        let lines: Vec<(String, bool)> = streams[0]
            .lines
            .iter()
            .cloned()
            .zip(streams[0].expected.iter().copied())
            .collect();
        let ledger_edits: Vec<(String, String)> = (0..plan.ledger_edits)
            .map(|pair| (add_rule_line(&tenant, pair), tenant.clone()))
            .collect();
        let mut tally = Tally::default();
        layers.serve = ledger::serve_ledger(
            &service,
            hosted.server.local_addr(),
            &lines,
            &ledger_edits,
            plan.ledger_calls,
            &mut tally,
        );
        report.tally.add(tally);
        let mut tracers: Vec<Tracer> = threads.into_iter().map(|t| t.tracer).collect();
        tracers.push(edits.tracer);
        report.write_trace(plan, &tracers);
    }
    drop(editor);
    hosted.shut_down();
    report
}
