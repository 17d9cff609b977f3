//! Replays the E9 Aware Home workload and prints the telemetry the
//! engine gathered while mediating it.
//!
//! ```text
//! telemetry [--days N] [--batched] [--prometheus | --json] [--trace]
//! ```
//!
//! The default output is a human-readable metric table plus, with
//! `--trace`, one rendered decision trace; `--prometheus` and `--json`
//! instead emit the exact exporter payloads an operator would scrape,
//! so the binary doubles as a smoke test for both wire formats.

use grbac_bench::args::Args;
use grbac_bench::fixtures::home_workload;
use grbac_bench::table::{self, Table};
use grbac_core::telemetry::{Exporter, JsonExporter, PrometheusExporter};
use grbac_home::scenario::paper_household;
use grbac_home::workload::{execute, execute_batched, generate};

fn main() {
    let args = Args::from_env();
    let days: u32 = args.parsed("--days", 7);

    let mut home = paper_household().expect("paper household builds");
    let events = generate(&home, &home_workload(days));
    let stats = if args.flag("--batched") {
        execute_batched(&mut home, &events).expect("replay succeeds")
    } else {
        execute(&mut home, &events).expect("replay succeeds")
    };
    let snapshot = home.engine().metrics_snapshot();

    if args.flag("--prometheus") {
        print!("{}", PrometheusExporter.export(&snapshot));
        return;
    }
    if args.flag("--json") {
        println!("{}", JsonExporter.export(&snapshot));
        return;
    }

    eprintln!(
        "replayed {} requests over {days} day(s): {} permits, {} denies, {} moves",
        stats.requests, stats.permits, stats.denies, stats.moves
    );

    let mut counters = Table::new("Counters and gauges", &["metric", "value"]);
    for (name, value) in &snapshot.counters {
        counters.row(&[name.clone(), value.to_string()]);
    }
    for (name, value) in &snapshot.gauges {
        counters.row(&[name.clone(), value.to_string()]);
    }

    let mut histograms = Table::new("Histograms", &["metric", "count", "sum", "mean"]);
    for (name, h) in &snapshot.histograms {
        histograms.row(&[
            name.clone(),
            h.count.to_string(),
            h.sum.to_string(),
            format!("{:.1}", h.mean()),
        ]);
    }

    let mut keyed = Table::new("Keyed counters", &["metric", "label", "value"]);
    for (name, series) in &snapshot.keyed {
        for (label, value) in &series.values {
            keyed.row(&[
                name.clone(),
                format!("{}={label}", series.label),
                value.to_string(),
            ]);
        }
    }
    table::print(&[counters, histograms, keyed], false);

    if args.flag("--trace") {
        let vocab = *home.vocab();
        let alice = home.person("alice").expect("paper household").subject();
        let tv = home.device("tv").expect("paper household").object();
        let environment = home.environment_for(Some(alice));
        let request =
            grbac_core::engine::AccessRequest::by_subject(alice, vocab.operate, tv, environment);
        let (decision, trace) = home.engine().decide_traced(&request).expect("known ids");
        println!("sample trace (alice operates tv -> {}):", decision.effect());
        println!("{}", trace.render());
    }
}
