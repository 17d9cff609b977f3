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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use grbac_bench::args::Args;
use grbac_bench::serveload::{self_host, uint_field, Load, Samples, WindowStats, WireLoad};
use grbac_bench::table::Table;
use grbac_serve::Client;

fn main() {
    let args = Args::from_env();
    let tenants: usize = args.parsed("--tenants", 2);
    let conns: usize = args.parsed("--conns", 2);
    let requests: usize = args.parsed("--requests", 2_000);
    let rules: usize = args.parsed("--rules", 1_024);
    let trace = args.flag("--trace");
    let external = args.value("--addr");

    // Self-host unless an external server was named. The service
    // handle is kept so `--trace` can read the span store afterwards.
    let hosted = external
        .is_none()
        .then(|| self_host(rules, (0..tenants).map(|t| (format!("t{t}"), t as u64))));
    let addr = hosted.as_ref().map_or_else(
        || external.expect("addr").to_owned(),
        |(_, _, addr)| addr.clone(),
    );
    eprintln!("driving {addr}: {tenants} tenants x {conns} conns x {requests} requests");

    // Churn connection on t0, running for the whole drive.
    let mut churn = Load::default();
    let edits = Arc::new(AtomicU64::new(0));
    if args.flag("--churn") {
        churn.churn(&addr, "t0", &Arc::new(AtomicBool::new(true)), &edits);
    }

    // Live-telemetry watcher: one connection streaming every tenant's
    // events for the whole drive, drained continuously.
    let stop_watch = Arc::new(AtomicBool::new(false));
    let watcher = args.flag("--subscribe").then(|| {
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
            while !stop.load(Ordering::Acquire) {
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
            let result = receipt.get("result").expect("unsubscribe result");
            let count = |key| uint_field(result, key).unwrap_or(0);
            (frames, count("delivered"), count("dropped"))
        })
    });

    // One sample set per tenant, shared by that tenant's connections.
    let samples: Vec<Arc<Samples>> = (0..tenants).map(|_| Arc::default()).collect();
    let mut streams = Vec::new();
    for (t, tenant_samples) in samples.iter().enumerate() {
        for c in 0..conns {
            let load = WireLoad::wide(&format!("t{t}"), (t * 97 + c) as u64);
            let lines = if trace {
                load.traced_decide_lines(requests, 1)
            } else {
                load.decide_lines(requests)
            };
            streams.push((lines, tenant_samples));
        }
    }
    let start = Instant::now();
    let mut drivers = Load::default();
    for (lines, tenant_samples) in streams {
        drivers.drive(&addr, lines, tenant_samples, false);
    }
    drivers.join();
    let elapsed = start.elapsed();
    churn.join();
    stop_watch.store(true, Ordering::Release);
    let watched = watcher.map(|handle| handle.join().expect("watcher thread"));

    let mut table = Table::new(
        "serve_load: wire decide latency per tenant",
        &["tenant", "decides", "decides_per_s", "p50_us", "p99_us"],
    );
    for (t, tenant_samples) in samples.iter().enumerate() {
        let stats = WindowStats::take(tenant_samples);
        table.row(&[
            format!("t{t}"),
            stats.decides.to_string(),
            format!("{:.0}", stats.decides as f64 / elapsed.as_secs_f64()),
            format!("{:.1}", stats.p50_us),
            format!("{:.1}", stats.p99_us),
        ]);
    }
    println!("{}", table.render());
    if args.flag("--churn") {
        println!(
            "churn edits applied on t0: {}",
            edits.load(Ordering::Relaxed)
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
        if let Some((service, _, _)) = &hosted {
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
    if let Some((_, server, _)) = hosted {
        server.shutdown();
    }
}
