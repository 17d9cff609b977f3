//! Closed-loop load in measurement windows. The main thread moves a
//! shared phase through warm-up, the measured windows with a short
//! pause before each, and stop; load threads read it before each call
//! and charge the call to the window it names. Figures are read off the
//! windows at the workload's rank (see [`summarize`]). In a traced run,
//! one window in [`TRACED_EVERY`] is traced and the rest are not, so
//! one process measures both and the difference is the tracing
//! overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{self, from_due, Histogram, Tally};
use crate::trace::{Layer, Tracer};

const WARMUP: Duration = Duration::from_millis(250);
const WARMING: usize = usize::MAX - 2;
const PAUSED: usize = usize::MAX - 1;
const STOPPED: usize = usize::MAX;

/// Where the load is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Calls run but are not measured.
    Warmup,
    /// Calls are charged to measured window `i` (0-based).
    Window(usize),
    /// Load threads idle: the main thread is timing set-ups or
    /// reconfiguring between windows.
    Paused,
    Stopped,
}

impl Phase {
    /// The measured window, if any.
    pub fn window(self) -> Option<usize> {
        match self {
            Phase::Window(i) => Some(i),
            _ => None,
        }
    }
}

/// The shared phase.
#[derive(Debug)]
pub struct Control {
    phase: AtomicUsize,
    windows: usize,
    traced_run: bool,
}

/// A traced run traces one window in this many, so `engine_4k`'s
/// millions of spans per traced second stay within memory; the other
/// windows measure the same load untraced.
pub const TRACED_EVERY: usize = 4;

/// How long an idle load thread sleeps before looking again: long
/// enough that idle threads do not disturb the set-ups and edit probes
/// timed in a pause, short against a window.
pub const IDLE: Duration = Duration::from_millis(1);

impl Control {
    pub fn new(windows: usize, traced_run: bool) -> Self {
        Self {
            phase: AtomicUsize::new(WARMING),
            windows,
            traced_run,
        }
    }

    pub fn phase(&self) -> Phase {
        match self.phase.load(Ordering::Acquire) {
            WARMING => Phase::Warmup,
            PAUSED => Phase::Paused,
            STOPPED => Phase::Stopped,
            i => Phase::Window(i),
        }
    }

    /// Whether calls in `phase` record spans: in a traced run, one
    /// window in [`TRACED_EVERY`].
    pub fn traced(&self, phase: Phase) -> bool {
        self.traced_run
            && phase
                .window()
                .is_some_and(|i| i % TRACED_EVERY == TRACED_EVERY - 1)
    }

    /// Runs warm-up, then each window of length `window`, returning the
    /// CPU time this process ran for in each (see [`process_cpu_time`]).
    /// Before each window the load pauses and `between(i)` runs, so what
    /// it does is neither measured as load nor slowed by it.
    pub fn drive(&self, window: Duration, mut between: impl FnMut(usize)) -> Vec<Duration> {
        std::thread::sleep(WARMUP);
        let mut durations = Vec::with_capacity(self.windows);
        for i in 0..self.windows {
            self.phase.store(PAUSED, Ordering::Release);
            between(i);
            let opened = process_cpu_time();
            self.phase.store(i, Ordering::Release);
            std::thread::sleep(window);
            durations.push(process_cpu_time().saturating_sub(opened));
        }
        self.phase.store(STOPPED, Ordering::Release);
        durations
    }
}

/// CPU time this process has run for, all threads together. The host
/// is a shared guest whose vCPUs the hypervisor takes away, in busy
/// periods for up to a third of a window; that time counts as steal,
/// not as the process's. Rates are taken over it rather than wall time:
/// over ten engine_4k seeds in one busy period, decides per wall
/// second spread by a fifth while the p50 latency spread 3%.
pub fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec to the pointer it is
    // given, which points at one.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "the process CPU clock is readable");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

/// One load thread's measurements, per measured window.
#[derive(Debug)]
pub struct ThreadStats {
    pub latency: Vec<Histogram>,
    pub completed: Vec<u64>,
    pub tally: Tally,
    pub tracer: Tracer,
}

impl ThreadStats {
    pub fn new(windows: usize, tracer: Tracer) -> Self {
        Self {
            latency: vec![Histogram::default(); windows],
            completed: vec![0; windows],
            tally: Tally::default(),
            tracer,
        }
    }

    /// Charges one completed call to the window of `phase` (calls in
    /// warm-up are only checked, not timed).
    pub fn complete(&mut self, phase: Phase, elapsed: Duration) {
        if let Some(i) = phase.window() {
            self.latency[i].record_duration(elapsed);
            self.completed[i] += 1;
        }
    }
}

/// End-to-end decide figures, each read off the windows' own figures at
/// the workload's rank (see [`stats::WindowPercentile`]).
#[derive(Debug, Clone, Default)]
pub struct DecideSummary {
    /// Decides per second of each window considered, in window order.
    pub window_per_s: Vec<f64>,
    pub per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    /// Samples in the windows considered.
    pub samples: u64,
    /// The fewest samples any window ranked beyond its p90.
    pub p90_beyond: u64,
}

/// The tail percentile the end-to-end metrics report. The host is a
/// shared two-vCPU guest whose vCPUs are taken away for milliseconds
/// several times a second in busy periods. A window's p99 rests on its
/// handful of slowest calls, and an open-loop p99 counts every edit that
/// fell due during one such stall; over five wire_churn seeds in one
/// busy period the edit p99 of the fastest eighth of the windows ranged
/// from 0.14 to 3.4 ms. A window's p90 moves only when stalls take a
/// tenth of it.
pub const TAIL: f64 = 90.0;

/// Summarizes the windows `include` admits (0-based), ranked fastest
/// first and read at `rank` (0.5 = the median window): the decide rate
/// and, window by window, the p50 and the [`TAIL`] percentile.
pub fn summarize(
    threads: &[ThreadStats],
    durations: &[Duration],
    include: impl Fn(usize) -> bool,
    rank: f64,
) -> DecideSummary {
    let completed = |i: usize| -> u64 { threads.iter().map(|t| t.completed[i]).sum() };
    let considered: Vec<usize> = (0..durations.len()).filter(|&i| include(i)).collect();
    let window_per_s: Vec<f64> = considered
        .iter()
        .map(|&i| completed(i) as f64 / durations[i].as_secs_f64())
        .collect();
    let window = |j: usize| {
        let mut merged = Histogram::default();
        for thread in threads {
            merged.merge(&thread.latency[considered[j]]);
        }
        merged
    };
    let p50 = stats::window_percentile(considered.len(), window, 50.0, rank);
    let tail = stats::window_percentile(considered.len(), window, TAIL, rank);
    let seconds_per_decide: Vec<f64> = window_per_s.iter().map(|r| r.recip()).collect();
    let per_decide = stats::at_rank(&seconds_per_decide, rank);
    DecideSummary {
        per_s: if per_decide > 0.0 {
            per_decide.recip()
        } else {
            0.0
        },
        window_per_s,
        p50_us: p50.map_or(0.0, |p| p.us()),
        p90_us: tail.map_or(0.0, |p| p.us()),
        samples: tail.map_or(0, |p| p.samples),
        p90_beyond: tail.map_or(0, |p| p.beyond),
    }
}

/// Edit measurements: latency from each edit's due time, per window,
/// and how late the generator sent each one.
#[derive(Debug)]
pub struct Edits {
    pub latency: Vec<Histogram>,
    pub late: Histogram,
    pub acked: u64,
    pub tally: Tally,
    pub tracer: Tracer,
}

impl Edits {
    pub fn new(windows: usize, tracer: Tracer) -> Self {
        Self {
            latency: vec![Histogram::default(); windows],
            late: Histogram::default(),
            acked: 0,
            tally: Tally::default(),
            tracer,
        }
    }

    /// Charges edit `k`, due at `due`, sent at `sent` and acknowledged
    /// (or failed) at `done`, to `window` (0-based; `None` is warm-up
    /// and is only counted).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        k: u64,
        window: Option<usize>,
        due: Instant,
        sent: Instant,
        done: Instant,
        ok: bool,
        span: Option<Layer>,
    ) {
        self.tally.operation(ok);
        self.acked += u64::from(ok);
        if let Some(window) = window {
            let sample = from_due(due, sent, done);
            self.latency[window].record(sample.latency_ns);
            self.late.record(sample.late_ns);
        }
        if let Some(name) = span {
            self.tracer.record(name, k, sent, done);
        }
    }

    /// Reports the edit figures, read off the windows at `rank`.
    pub fn report(&self, report: &mut crate::Report, rank: f64) {
        report.set_edits(&self.latency, &self.late, rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that completed, in window `i`, `windows[i].0` calls of
    /// `windows[i].1` ns each and `windows[i].2` more of 50 us.
    fn thread(windows: &[(u64, u64, u64)]) -> ThreadStats {
        let mut stats = ThreadStats::new(windows.len(), Tracer::new("t", Instant::now()));
        for (i, &(count, ns, slow)) in windows.iter().enumerate() {
            for _ in 0..count {
                stats.complete(Phase::Window(i), Duration::from_nanos(ns));
            }
            for _ in 0..slow {
                stats.complete(Phase::Window(i), Duration::from_micros(50));
            }
        }
        stats
    }

    #[test]
    fn each_figure_is_the_median_window_s() {
        // Five one-second windows. Window 2 was a fast burst with a
        // tail, window 4 ran slow; the other three are the common state.
        let windows = [
            (100, 9_000, 0),
            (90, 9_000, 0),
            (300, 3_000, 10),
            (110, 9_000, 0),
            (50, 20_000, 0),
        ];
        let threads = [thread(&windows)];
        let durations = vec![Duration::from_secs(1); windows.len()];
        let summary = summarize(&threads, &durations, |_| true, 0.5);
        assert_eq!(summary.window_per_s, vec![100.0, 90.0, 310.0, 110.0, 50.0]);
        assert!((summary.per_s - 100.0).abs() < 1e-9, "{summary:?}");
        assert!((summary.p50_us - 9.0).abs() < 0.1, "{summary:?}");
        // The tail is each window's own p90, read at the median window.
        assert!((summary.p90_us - 9.0).abs() < 0.1, "{summary:?}");
        assert_eq!(summary.samples, 660);
        // The smallest window, of 50 calls, leaves 5 beyond its p90.
        assert_eq!(summary.p90_beyond, 5);
        // Only admitted windows count: without 0 and 1, the median of
        // 310, 110 and 50 decides per second.
        let rest = summarize(&threads, &durations, |i| i > 1, 0.5);
        assert!((rest.per_s - 110.0).abs() < 1e-9, "{rest:?}");
        // At rank 1/8 of five windows, each figure lies halfway between
        // the two fastest windows' (310 and 110 decides per second).
        let fast = summarize(&threads, &durations, |_| true, 0.125);
        let per_decide: f64 = 1.0 / 310.0 + 0.5 * (1.0 / 110.0 - 1.0 / 310.0);
        assert!((fast.per_s - per_decide.recip()).abs() < 1e-9, "{fast:?}");
        assert!((fast.p50_us - 6.0).abs() < 0.1, "{fast:?}");
    }
}
