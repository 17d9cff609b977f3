//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <engine_4k|wire_small|wire_churn> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload from generated inputs, checks every decision
//! against the reference scan (`decide_naive`) on an identically
//! seeded mirror engine, and prints each metric with its unit. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A run whose
//! decisions disagree with the oracle, or whose post-run checks fail,
//! exits 1 after printing.

mod engine4k;
mod ledger;
mod load;
mod shape;
mod stats;
mod trace;
mod wire;

use std::time::{Duration, Instant};

use ledger::{EngineLedger, IndexLedger, ServeLedger, SpanStats};
use load::DecideSummary;
use stats::{Histogram, Tally};
use trace::Tracer;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decide_per_s", "1/s"),
    ("decide_p50_us", "us"),
    ("decide_p90_us", "us"),
    ("edit_p50_us", "us"),
    ("edit_p90_us", "us"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("engine.decide_ns", "ns"),
    ("engine.subject_ns", "ns"),
    ("engine.object_ns", "ns"),
    ("engine.env_ns", "ns"),
    ("engine.candidates_ns", "ns"),
    ("engine.precedence_ns", "ns"),
    ("engine.candidates_per_decide", "count"),
    ("engine.matched_per_decide", "count"),
    ("engine.candidate_yield", "ratio"),
    ("engine.record_ns", "ns"),
    ("index.build_ms", "ms"),
    ("index.delta_applies", "count"),
    ("index.full_rebuilds", "count"),
    ("index.delta_apply_us_p50", "us"),
    ("index.delta_apply_us_p99", "us"),
    ("sinks.bare_ns", "ns"),
    ("sinks.recorder_ns", "ns"),
    ("sinks.heat_ns", "ns"),
    ("sinks.bus_ns", "ns"),
    ("sinks.latency_sample_ns", "ns"),
    ("recorder.dropped", "count"),
    ("bus.dropped", "count"),
    ("spans.recorded", "count"),
    ("spans.dropped", "count"),
    ("serve.handle_line_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.tenant_map_us", "us"),
    ("serve.engine_lock_us_p50", "us"),
    ("serve.engine_lock_us_p99", "us"),
    ("serve.engine_call_us", "us"),
    ("serve.edit_us", "us"),
    ("serve.codec_us", "us"),
    ("loadgen.edit_late_us_p99", "us"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["engine_4k", "wire_small", "wire_churn"];

/// How one run spends its time.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Shared origin of every benchmark span's timestamps.
    pub epoch: Instant,
    /// Length of each measurement window.
    pub window: Duration,
    /// Set-ups timed in each set-up process.
    pub setups: usize,
    /// Calls per pass of each ledger.
    pub ledger_calls: usize,
    /// Edits replayed through the serve ledger.
    pub ledger_edits: u64,
}

impl Plan {
    fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        let total = Duration::from_secs(seconds.max(1));
        Self {
            workload: workload.to_owned(),
            seed,
            trace,
            epoch: Instant::now(),
            window: total / shape::WINDOWS as u32,
            setups: shape::SETUPS,
            ledger_calls: 20_000,
            ledger_edits: 256,
        }
    }
}

/// Everything a traced run measures per layer.
#[derive(Debug, Default)]
pub struct PerLayer {
    pub engine: EngineLedger,
    pub build_ms: f64,
    pub index: IndexLedger,
    /// Sink ledger marginals, in `ledger::SINK_ROWS` order.
    pub sinks: Vec<f64>,
    pub recorder_dropped: u64,
    pub bus_dropped: u64,
    pub spans_recorded: u64,
    pub spans_dropped: u64,
    pub serve: ServeLedger,
    /// Server spans under the workload's own traffic (the serve
    /// ledger's replay when the workload has no server of its own).
    pub live_spans: SpanStats,
    pub edit_late_p99_us: f64,
    pub overhead_pct: f64,
}

impl PerLayer {
    /// Tracing overhead: the traced windows' decide rate against the
    /// untraced windows' of the same run.
    pub fn overhead(&mut self, untraced: &DecideSummary, traced: &DecideSummary) {
        if untraced.per_s > 0.0 {
            self.overhead_pct = 100.0 * (untraced.per_s - traced.per_s) / untraced.per_s;
        }
    }

    fn metrics(&self) -> Vec<f64> {
        let p = |h: &Histogram, q: f64| h.percentile(q).map_or(0.0, |p| p.us());
        let e = &self.engine;
        let yield_ = if e.candidates_per_decide > 0.0 {
            e.matched_per_decide / e.candidates_per_decide
        } else {
            0.0
        };
        let live = &self.live_spans;
        let mut values = vec![
            e.decide_ns,
            e.stage_ns[0],
            e.stage_ns[1],
            e.stage_ns[2],
            e.stage_ns[3],
            e.stage_ns[4],
            e.candidates_per_decide,
            e.matched_per_decide,
            yield_,
            e.record_ns,
            self.build_ms,
            self.index.delta_applies as f64,
            self.index.full_rebuilds as f64,
            self.index.delta_apply_us_p50,
            self.index.delta_apply_us_p99,
        ];
        values.extend(self.sinks.iter().copied());
        values.extend([
            self.recorder_dropped as f64,
            self.bus_dropped as f64,
            self.spans_recorded as f64,
            self.spans_dropped as f64,
            self.serve.handle_line_us,
            self.serve.transport_us,
            p(&live.tenant_map, 50.0),
            p(&live.engine_lock, 50.0),
            p(&live.engine_lock, 99.0),
            p(&live.engine_call, 50.0),
            p(&live.edit, 50.0),
            self.serve.codec_us,
            self.edit_late_p99_us,
            self.overhead_pct,
        ]);
        values
    }
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// Post-run checks that failed.
    pub failures: Vec<String>,
    pub setup_s: f64,
    /// Each set-up process's median set-up seconds.
    pub setups: Vec<f64>,
    pub decide: DecideSummary,
    pub edit_p50_us: f64,
    pub edit_p90_us: f64,
    pub edit_samples: u64,
    pub per_layer: PerLayer,
}

impl Report {
    /// Takes one set-up figure per set-up process; `setup_s` is read off
    /// them at `shape::WINDOW_RANK`, like the load's figures off the
    /// windows: over five engine_4k seeds it spread 5%, where the median
    /// process spread 9% and rank 1/8 a third.
    pub fn set_setups(&mut self, seconds: Vec<f64>) {
        self.setup_s = stats::at_rank(&seconds, shape::WINDOW_RANK);
        self.setups = seconds;
    }

    pub fn set_decides(&mut self, summary: &DecideSummary) {
        self.decide = summary.clone();
    }

    /// Takes the edit latencies of each window, each percentile window
    /// by window at `rank` (see [`stats::WindowPercentile`]), and how
    /// late the open-loop generator ran over the whole run.
    pub fn set_edits(&mut self, windows: &[Histogram], late: &Histogram, rank: f64) {
        let window = |i: usize| windows[i].clone();
        let at = |p: f64| stats::window_percentile(windows.len(), window, p, rank);
        self.edit_p50_us = at(50.0).map_or(0.0, |p| p.us());
        self.edit_p90_us = at(load::TAIL).map_or(0.0, |p| p.us());
        self.edit_samples = at(load::TAIL).map_or(0, |p| p.samples);
        self.per_layer.edit_late_p99_us = late.percentile(99.0).map_or(0.0, |p| p.us());
    }

    pub fn check(&mut self, holds: bool, what: String) {
        if !holds {
            self.failures.push(what);
        }
    }

    pub fn write_trace(&mut self, plan: &Plan, tracers: &[Tracer]) {
        let path = trace::output_path(&plan.workload);
        let spans: usize = tracers.iter().map(Tracer::len).sum();
        match trace::write_spans(&path, tracers) {
            Ok(()) => eprintln!("wrote {spans} benchmark spans to {}", path.display()),
            Err(err) => eprintln!("could not write spans to {}: {err}", path.display()),
        }
    }

    fn correct(&self) -> bool {
        self.tally.failed() == 0 && self.failures.is_empty()
    }
}

/// Times `plan.setups` set-ups in a fresh copy of this program and
/// returns their median seconds. Set-up time depends on where a
/// process's address space landed, so a run times one set-up process
/// in the pause before one window in `shape::CHUNK_EVERY` (see
/// [`Report::set_setups`]).
pub fn setup_in_child(plan: &Plan) -> f64 {
    let output = std::process::Command::new(std::env::current_exe().expect("own executable"))
        .args([
            "--workload",
            &plan.workload,
            "--seed",
            &plan.seed.to_string(),
        ])
        .args(["--setups-only", &plan.setups.to_string()])
        .output()
        .expect("set-up process runs");
    assert!(output.status.success(), "set-up process failed: {output:?}");
    let seconds: Vec<f64> = String::from_utf8_lossy(&output.stdout)
        .split_whitespace()
        .map(|v| v.parse().expect("set-up seconds"))
        .collect();
    stats::median(&seconds)
}

/// Milliseconds of the first (index-compiling) decide on a freshly
/// built policy: the median of three.
pub fn index_build_ms(
    policy: &grbac_bench::fixtures::SyntheticConfig,
    request: &grbac_core::AccessRequest,
) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let system = grbac_bench::fixtures::synthetic_grbac(policy);
            let start = Instant::now();
            system.engine.decide(request).expect("first decide");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Moves this process onto one core, the highest-numbered it may use;
/// every thread and process it starts afterwards stays there. Called
/// before any thread starts. Where the host refuses, the process runs
/// where it was and says so.
fn pin_to_one_core() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: pid 0 is the calling thread, and each call reads or writes
    // at most `size` bytes of a mask that holds that many.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        eprintln!("perfbench: could not read the CPU affinity; running unpinned");
        return;
    }
    let Some(cpu) = (0..allowed.len() * 64)
        .rev()
        .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
    else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        eprintln!("perfbench: could not pin to CPU {cpu}; running unpinned");
    }
}

/// Fixes glibc's threshold above which an allocation gets pages of its
/// own, at its default of 128 KiB. Left free, the threshold rises each
/// time such an allocation is freed, so a large buffer that grows by
/// reallocation may then be copied within the heap and leave its old
/// pages resident, and peak memory followed the order in which threads
/// happened to allocate: on engine_4k, rss_mb moved by 5% between runs
/// of one seed, and by under 2% with the threshold fixed.
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt takes two integers and changes only the
    // allocator's settings; it is called before any thread starts.
    if unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } != 1 {
        eprintln!("perfbench: could not fix the mmap threshold");
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> String {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing {name}")))
    };
    let workload = flag("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let seed: u64 = flag("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes a whole number"));
    let one_core = match workload.as_str() {
        "engine_4k" => shape::ENGINE_4K.one_core,
        "wire_small" => shape::WIRE_SMALL.one_core,
        _ => shape::WIRE_CHURN.one_core,
    };
    if one_core {
        pin_to_one_core();
    }
    // A set-up process (see `setup_in_child`): time the set-ups,
    // print their seconds, and exit.
    if args.iter().any(|a| a == "--setups-only") {
        let count: usize = flag("--setups-only")
            .parse()
            .unwrap_or_else(|_| usage("--setups-only takes a whole number"));
        let plan = Plan::new(&workload, seed, 1, false);
        let seconds = match workload.as_str() {
            "engine_4k" => engine4k::setup_times(&plan, count),
            "wire_small" => wire::setup_times(&plan, shape::WIRE_SMALL, count),
            _ => wire::setup_times(&plan, shape::WIRE_CHURN, count),
        };
        let seconds: Vec<String> = seconds.iter().map(f64::to_string).collect();
        println!("{}", seconds.join(" "));
        return;
    }
    let seconds: u64 = flag("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes a whole number"));
    let trace = match flag("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };

    fix_mmap_threshold();
    let plan = Plan::new(&workload, seed, seconds, trace);
    let report = match workload.as_str() {
        "engine_4k" => engine4k::run(&plan),
        "wire_small" => wire::run_small(&plan),
        _ => wire::run_churn(&plan),
    };

    let (names, values): (&[(&str, &str)], Vec<f64>) = if trace {
        (&PER_LAYER, report.per_layer.metrics())
    } else {
        (
            &END_TO_END,
            vec![
                report.setup_s,
                report.decide.per_s,
                report.decide.p50_us,
                report.decide.p90_us,
                report.edit_p50_us,
                report.edit_p90_us,
                peak_rss_mb(),
            ],
        )
    };
    assert_eq!(names.len(), values.len(), "one value per metric");

    println!(
        "{workload} seed {seed}: median of {} windows; decide p90 over {} samples (each window's rests on at least {} beyond it); edit p90 over {} samples",
        report.decide.window_per_s.len(),
        report.decide.samples,
        report.decide.p90_beyond,
        report.edit_samples
    );
    let rates: Vec<String> = report
        .decide
        .window_per_s
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("  decides per CPU second by window: {}", rates.join(" "));
    let setups: Vec<String> = report
        .setups
        .iter()
        .map(|s| format!("{:.2}", s * 1e3))
        .collect();
    println!("  set-up ms by process: {}", setups.join(" "));
    for ((name, unit), value) in names.iter().zip(&values) {
        println!("  {name:<30} {value:>16.4} {unit}");
    }
    println!(
        "  attempted {} failed {} (errors {}, oracle mismatches {}, failed_pct {:.4})",
        report.tally.attempted,
        report.tally.failed(),
        report.tally.errors,
        report.tally.mismatches,
        report.tally.failed_pct()
    );
    for failure in &report.failures {
        println!("  check failed: {failure}");
    }
    let metrics: Vec<String> = names
        .iter()
        .zip(&values)
        .map(|((name, unit), value)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_number(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.correct(),
        report.tally.attempted,
        report.tally.failed(),
        metrics.join(", ")
    );
    if !report.correct() {
        std::process::exit(1);
    }
}
