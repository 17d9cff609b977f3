//! Load generator for the `grbac-serve` policy service.
//!
//! ```text
//! serve_load [--addr HOST:PORT] [--tenants N] [--conns N]
//!            [--requests N] [--rules N] [--churn] [--trace]
//!            [--subscribe]
//! ```
//!
//! Without `--addr` the harness self-hosts: it builds `--tenants`
//! synthetic policy domains (seeded differently, `--rules` rules
//! each), starts an in-process server on a loopback port, and drives
//! it — so a single command produces wire-level numbers on any
//! machine. With `--addr` it targets an already-running server whose
//! tenants `t0 .. tN-1` were provisioned with the same synthetic
//! shape (as `examples/serve.rs` + this harness's fixtures do).
//!
//! Each tenant gets `--conns` client connections, each sending
//! `--requests` decides and recording per-request wall latency.
//! `--churn` adds one connection on tenant `t0` that interleaves
//! `add_rule`/`remove_rule` pairs for the duration, exercising the
//! isolation claim E16 quantifies. Output is one row per tenant:
//! decides, throughput, p50/p99.
//!
//! `--trace` attaches a sampled `trace` propagation context to every
//! request and — when self-hosting — reports a per-stage breakdown
//! (queue wait, tenant-map lock, engine lock, engine call) from the
//! server's span store after the drive, showing where wire latency
//! actually went.
//!
//! `--subscribe` adds one live-telemetry watcher connection that
//! subscribes to every tenant's event stream for the whole drive and
//! reports frames received plus the unsubscribe receipt's exact
//! `delivered`/`dropped` accounting — measuring decide throughput
//! with the push plane actually consuming.

use std::sync::Arc;
use std::time::Instant;

use grbac_bench::fixtures::{synthetic_grbac, SyntheticConfig};
use grbac_bench::serveload::{
    parse_rule_id, percentile_us, remove_rule_line, LatencyRecorder, WireLoad,
};
use grbac_bench::table::Table;
use grbac_serve::{Client, PolicyService, ServeServer};

const SUBJECT_ROLES: usize = 32;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tenants: usize =
        flag_value(&args, "--tenants").map_or(2, |v| v.parse().expect("--tenants N"));
    let conns: usize = flag_value(&args, "--conns").map_or(2, |v| v.parse().expect("--conns N"));
    let requests: usize =
        flag_value(&args, "--requests").map_or(2_000, |v| v.parse().expect("--requests N"));
    let rules: usize =
        flag_value(&args, "--rules").map_or(1_024, |v| v.parse().expect("--rules N"));
    let churn = args.iter().any(|a| a == "--churn");
    let trace = args.iter().any(|a| a == "--trace");
    let subscribe = args.iter().any(|a| a == "--subscribe");
    let external = flag_value(&args, "--addr");

    // Self-host unless an external server was named. The service
    // handle is kept so `--trace` can read the span store afterwards.
    let mut self_service: Option<Arc<PolicyService>> = None;
    let hosted = external.is_none().then(|| {
        let service = Arc::new(PolicyService::with_defaults());
        for t in 0..tenants {
            let system = synthetic_grbac(&SyntheticConfig {
                rules,
                subject_roles: SUBJECT_ROLES,
                object_roles: 32,
                environment_roles: 16,
                seed: t as u64,
                ..Default::default()
            });
            service
                .create_tenant_with_engine(&format!("t{t}"), system.engine)
                .expect("tenant provisioned");
        }
        self_service = Some(Arc::clone(&service));
        ServeServer::serve(service, "127.0.0.1:0").expect("ephemeral bind")
    });
    let addr = hosted.as_ref().map_or_else(
        || external.clone().expect("addr"),
        |server| server.local_addr().to_string(),
    );
    eprintln!("driving {addr}: {tenants} tenants x {conns} conns x {requests} requests");

    // Churn connection on t0, running for the whole drive.
    let stop_churn = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let edits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let churner = churn.then(|| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop_churn);
        let edits = Arc::clone(&edits);
        std::thread::spawn(move || {
            let load = WireLoad {
                tenant: "t0".to_owned(),
                subjects: 32,
                objects: 32,
                transactions: 4,
                environment_roles: 16,
                active_env: 3,
                seed: 0,
            };
            let mut client = Client::connect(&addr).expect("churn connect");
            let mut i = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let added = client
                    .request_line(&load.add_rule_line(i, SUBJECT_ROLES))
                    .expect("churn add");
                if let Some(rule) = parse_rule_id(&added) {
                    let _ = client.request_line(&remove_rule_line("t0", rule));
                }
                edits.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
                i += 1;
                if i.is_multiple_of(8) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        })
    });

    // Live-telemetry watcher: one connection streaming every tenant's
    // events for the whole drive, drained continuously.
    let stop_watch = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = subscribe.then(|| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop_watch);
        std::thread::spawn(move || -> (u64, u64, u64) {
            let mut client = Client::connect(&addr).expect("watcher connect");
            let subscribed = client
                .request_line(r#"{"op":"subscribe","tenants":[]}"#)
                .expect("subscribe");
            assert!(
                subscribed.contains("\"streaming\":true"),
                "subscribe refused: {subscribed}"
            );
            client
                .set_read_timeout(Some(std::time::Duration::from_millis(50)))
                .expect("timeout set");
            let mut frames = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                match client.next_frame() {
                    Ok(_) => frames += 1,
                    Err(err)
                        if matches!(
                            err.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(err) => panic!("watcher stream failed: {err}"),
                }
            }
            client
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .expect("timeout set");
            let (receipt, tail) = client.unsubscribe().expect("unsubscribe receipt");
            frames += tail.len() as u64;
            let count = |key: &str| -> u64 {
                match receipt.get("result").and_then(|r| r.get(key)) {
                    Some(serde_json::Value::UInt(n)) => *n,
                    Some(serde_json::Value::Int(n)) => *n as u64,
                    _ => 0,
                }
            };
            (frames, count("delivered"), count("dropped"))
        })
    });

    // One recorder per tenant, shared by that tenant's connections.
    let recorders: Vec<Arc<LatencyRecorder>> = (0..tenants)
        .map(|_| {
            let recorder = Arc::new(LatencyRecorder::new());
            recorder.set_recording(true);
            recorder
        })
        .collect();
    let start = Instant::now();
    let drivers: Vec<_> = (0..tenants)
        .flat_map(|t| (0..conns).map(move |c| (t, c)).collect::<Vec<_>>())
        .map(|(t, c)| {
            let addr = addr.clone();
            let recorder = Arc::clone(&recorders[t]);
            std::thread::spawn(move || {
                let load = WireLoad {
                    tenant: format!("t{t}"),
                    subjects: 32,
                    objects: 32,
                    transactions: 4,
                    environment_roles: 16,
                    active_env: 3,
                    seed: (t * 97 + c) as u64,
                };
                let lines = if trace {
                    load.traced_decide_lines(requests, 1)
                } else {
                    load.decide_lines(requests)
                };
                let mut client = Client::connect(&addr).expect("driver connect");
                for line in &lines {
                    let sent = Instant::now();
                    let response = client.request_line(line).expect("decide");
                    assert!(response.contains("\"ok\":true"), "{response}");
                    recorder.record(sent.elapsed().as_nanos() as u64);
                }
            })
        })
        .collect();
    for driver in drivers {
        driver.join().expect("driver thread");
    }
    let elapsed = start.elapsed();
    stop_churn.store(true, std::sync::atomic::Ordering::Release);
    if let Some(churner) = churner {
        churner.join().expect("churn thread");
    }
    stop_watch.store(true, std::sync::atomic::Ordering::Release);
    let watched = watcher.map(|handle| handle.join().expect("watcher thread"));

    let mut table = Table::new(
        "serve_load: wire decide latency per tenant",
        &["tenant", "decides", "decides_per_s", "p50_us", "p99_us"],
    );
    for (t, recorder) in recorders.iter().enumerate() {
        let mut samples = recorder.drain();
        let total = samples.len();
        table.row(&[
            format!("t{t}"),
            total.to_string(),
            format!("{:.0}", total as f64 / elapsed.as_secs_f64()),
            format!("{:.1}", percentile_us(&mut samples, 50.0)),
            format!("{:.1}", percentile_us(&mut samples, 99.0)),
        ]);
    }
    println!("{}", table.render());
    if churn {
        println!(
            "churn edits applied on t0: {}",
            edits.load(std::sync::atomic::Ordering::Relaxed)
        );
    }
    if let Some((frames, delivered, dropped)) = watched {
        println!(
            "subscription: {frames} event frames received \
             (bus accounting: delivered {delivered}, dropped {dropped})"
        );
    }
    // With `--trace` against a self-hosted server, report where the
    // wire time went: every stage child recorded in the span store,
    // charged against the server spans' total.
    if trace {
        if let Some(service) = &self_service {
            let spans = service.span_store().snapshot();
            let server_total: u64 = spans
                .iter()
                .filter(|span| span.kind == grbac_core::telemetry::SpanKind::Server)
                .map(grbac_core::telemetry::Span::duration_ns)
                .sum();
            let mut stages: Vec<(String, (usize, u64))> = Vec::new();
            for span in &spans {
                if span.kind == grbac_core::telemetry::SpanKind::Server {
                    continue;
                }
                match stages.iter_mut().find(|(name, _)| *name == span.name) {
                    Some((_, (count, total))) => {
                        *count += 1;
                        *total += span.duration_ns();
                    }
                    None => stages.push((span.name.clone(), (1, span.duration_ns()))),
                }
            }
            let mut breakdown = Table::new(
                "serve_load --trace: per-stage breakdown (retained spans)",
                &["stage", "spans", "mean_us", "share_pct"],
            );
            for (name, (count, total)) in &stages {
                breakdown.row(&[
                    name.clone(),
                    count.to_string(),
                    format!("{:.1}", *total as f64 / *count as f64 / 1_000.0),
                    format!("{:.1}", 100.0 * *total as f64 / server_total.max(1) as f64),
                ]);
            }
            println!("{}", breakdown.render());
            println!(
                "spans recorded: {} (retained {}, dropped {})",
                service.span_store().total_recorded(),
                service.span_store().len(),
                service.span_store().dropped(),
            );
        } else {
            eprintln!("--trace breakdown needs the self-hosted span store (no --addr)");
        }
    }
    if let Some(server) = hosted {
        server.shutdown();
    }
}
