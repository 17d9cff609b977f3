//! A fixed-memory time-series plane over the metrics registry.
//!
//! Scrape-based exporters see levels; operators asking "is the deny
//! rate climbing *right now*?" need derivatives. [`MetricsHistory`]
//! keeps a [`BoundedRing`] of periodic [`MetricsSnapshot`] deltas —
//! each window is one [`MetricsSnapshot::delta`] against the previous
//! capture, stamped with its real elapsed time — and answers windowed
//! rate queries (deny rate, decide throughput, degraded ppm) plus
//! arbitrary per-window counter series for dashboards.
//!
//! The store is pull-fed: some ticker (the obs server's telemetry
//! pump, a test, an experiment harness) calls [`MetricsHistory::record`]
//! on its own schedule. Recording off-schedule is harmless — every
//! window carries its own `elapsed_ns`, so rates stay honest even
//! when capture intervals wobble.

use std::sync::Mutex;

use super::metrics::MetricsSnapshot;
use super::span::monotonic_nanos;
use super::{lock, BoundedRing};

/// One captured window: the counter movement since the previous
/// capture and how long that took.
#[derive(Debug, Clone)]
pub struct HistoryWindow {
    /// 1-based capture index (monotonic; survives ring eviction).
    pub index: u64,
    /// Monotonic capture time in nanoseconds.
    pub nanos: u64,
    /// Time since the previous capture in nanoseconds (never 0).
    pub elapsed_ns: u64,
    /// This capture minus the previous one
    /// ([`MetricsSnapshot::delta`]: counters subtract, gauges keep
    /// their level).
    pub delta: MetricsSnapshot,
}

#[derive(Debug)]
struct HistoryInner {
    last: Option<(MetricsSnapshot, u64)>,
    windows: BoundedRing<HistoryWindow>,
}

/// A bounded ring of periodic metrics-snapshot deltas with windowed
/// rate queries.
#[derive(Debug)]
pub struct MetricsHistory {
    inner: Mutex<HistoryInner>,
}

impl MetricsHistory {
    /// Default ring capacity: enough for ~2 minutes of 500 ms windows.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An empty history retaining up to `capacity` windows (clamped to
    /// at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(HistoryInner {
                last: None,
                windows: BoundedRing::new(capacity.max(1)),
            }),
        }
    }

    /// The ring's capacity in windows.
    #[must_use]
    pub fn capacity(&self) -> usize {
        lock(&self.inner).windows.capacity()
    }

    /// Captures one snapshot, stamped with the monotonic clock. The
    /// first capture only seeds the baseline and produces no window;
    /// every later capture appends (and returns) the delta window.
    pub fn record(&self, snapshot: MetricsSnapshot) -> Option<HistoryWindow> {
        self.record_at(snapshot, monotonic_nanos())
    }

    /// Like [`Self::record`] with an explicit capture timestamp
    /// (tests and replay tooling drive this directly).
    pub fn record_at(&self, snapshot: MetricsSnapshot, nanos: u64) -> Option<HistoryWindow> {
        let mut inner = lock(&self.inner);
        let (previous, previous_nanos) = inner.last.replace((snapshot, nanos))?;
        let (current, _) = inner.last.as_ref().expect("just replaced");
        let delta = current.delta(&previous);
        let window = HistoryWindow {
            index: inner.windows.pushed() + 1,
            nanos,
            elapsed_ns: nanos.saturating_sub(previous_nanos).max(1),
            delta,
        };
        inner.windows.push(window.clone());
        Some(window)
    }

    /// Windows currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).windows.len()
    }

    /// True when no window has been captured yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Windows evicted by the ring so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        lock(&self.inner).windows.dropped()
    }

    /// The last `windows` captured windows, oldest first (fewer when
    /// the ring holds fewer).
    #[must_use]
    pub fn windows(&self, windows: usize) -> Vec<HistoryWindow> {
        let inner = lock(&self.inner);
        let skip = inner.windows.len().saturating_sub(windows);
        inner.windows.iter().skip(skip).cloned().collect()
    }

    /// Sum of a counter's per-window deltas over the last `windows`
    /// windows.
    #[must_use]
    pub fn counter_sum(&self, name: &str, windows: usize) -> u64 {
        self.windows(windows)
            .iter()
            .map(|w| w.delta.counter(name))
            .sum()
    }

    /// Denies as a fraction of decisions over the last `windows`
    /// windows (0 when no decisions landed).
    #[must_use]
    pub fn deny_rate(&self, windows: usize) -> f64 {
        let recent = self.windows(windows);
        let denies: u64 = recent
            .iter()
            .map(|w| w.delta.counter("grbac_decisions_deny_total"))
            .sum();
        let permits: u64 = recent
            .iter()
            .map(|w| w.delta.counter("grbac_decisions_permit_total"))
            .sum();
        let decisions = denies + permits;
        if decisions == 0 {
            0.0
        } else {
            denies as f64 / decisions as f64
        }
    }

    /// Decisions per second over the last `windows` windows (0 when
    /// nothing was captured).
    #[must_use]
    pub fn decide_throughput(&self, windows: usize) -> f64 {
        let recent = self.windows(windows);
        let decisions: u64 = recent
            .iter()
            .map(|w| {
                w.delta.counter("grbac_decisions_deny_total")
                    + w.delta.counter("grbac_decisions_permit_total")
            })
            .sum();
        let elapsed: u64 = recent.iter().map(|w| w.elapsed_ns).sum();
        if elapsed == 0 {
            0.0
        } else {
            decisions as f64 * 1e9 / elapsed as f64
        }
    }

    /// Degraded decisions in parts per million of all decisions over
    /// the last `windows` windows.
    #[must_use]
    pub fn degraded_ppm(&self, windows: usize) -> u64 {
        let recent = self.windows(windows);
        let degraded: u64 = recent
            .iter()
            .map(|w| w.delta.counter("grbac_decisions_degraded_total"))
            .sum();
        let decisions: u64 = recent
            .iter()
            .map(|w| {
                w.delta.counter("grbac_decisions_deny_total")
                    + w.delta.counter("grbac_decisions_permit_total")
            })
            .sum();
        if decisions == 0 {
            0
        } else {
            ((degraded as f64 / decisions as f64) * 1e6).round() as u64
        }
    }

    /// A named per-window series over the last `windows` windows,
    /// oldest first. Derived names:
    ///
    /// * `deny_rate_ppm` — per-window denies / decisions, in ppm
    /// * `decide_per_sec` — per-window decisions over elapsed time
    /// * `degraded_ppm` — per-window degraded decisions, in ppm
    ///
    /// Any other name reads that counter's per-window delta (a gauge
    /// name reads the gauge's level at the window's close). Returns
    /// `None` for a name that is neither derived nor present in any
    /// retained window.
    #[must_use]
    pub fn series(&self, name: &str, windows: usize) -> Option<Vec<f64>> {
        let recent = self.windows(windows);
        let decisions = |w: &HistoryWindow| {
            w.delta.counter("grbac_decisions_deny_total")
                + w.delta.counter("grbac_decisions_permit_total")
        };
        let ppm = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                (part as f64 / whole as f64) * 1e6
            }
        };
        match name {
            "deny_rate_ppm" => Some(
                recent
                    .iter()
                    .map(|w| ppm(w.delta.counter("grbac_decisions_deny_total"), decisions(w)))
                    .collect(),
            ),
            "decide_per_sec" => Some(
                recent
                    .iter()
                    .map(|w| decisions(w) as f64 * 1e9 / w.elapsed_ns as f64)
                    .collect(),
            ),
            "degraded_ppm" => Some(
                recent
                    .iter()
                    .map(|w| {
                        ppm(
                            w.delta.counter("grbac_decisions_degraded_total"),
                            decisions(w),
                        )
                    })
                    .collect(),
            ),
            _ => {
                let known = recent.iter().any(|w| {
                    w.delta.counters.contains_key(name) || w.delta.gauges.contains_key(name)
                });
                known.then(|| {
                    recent
                        .iter()
                        .map(|w| {
                            w.delta
                                .counters
                                .get(name)
                                .or_else(|| w.delta.gauges.get(name))
                                .copied()
                                .unwrap_or(0) as f64
                        })
                        .collect()
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::MetricsRegistry;
    use super::*;

    const SECOND: u64 = 1_000_000_000;

    #[test]
    fn first_capture_seeds_later_captures_window() {
        let registry = MetricsRegistry::new();
        let history = MetricsHistory::new(8);
        assert!(history.record_at(registry.snapshot(), SECOND).is_none());
        registry.decisions_permit.add(10);
        let window = history
            .record_at(registry.snapshot(), 2 * SECOND)
            .expect("second capture yields a window");
        assert_eq!(window.index, 1);
        assert_eq!(window.elapsed_ns, SECOND);
        if super::super::ENABLED {
            assert_eq!(window.delta.counter("grbac_decisions_permit_total"), 10);
        }
        assert_eq!(history.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_windows() {
        let registry = MetricsRegistry::new();
        let history = MetricsHistory::new(2);
        history.record_at(registry.snapshot(), SECOND);
        for i in 0..4u64 {
            registry.decisions_permit.inc();
            history.record_at(registry.snapshot(), (i + 2) * SECOND);
        }
        assert_eq!(history.len(), 2);
        assert_eq!(history.evicted(), 2);
        let windows = history.windows(10);
        assert_eq!(
            windows.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn windowed_rates_reflect_recent_traffic() {
        let registry = MetricsRegistry::new();
        let history = MetricsHistory::new(16);
        history.record_at(registry.snapshot(), SECOND);
        // Window 1: 75 permits, 25 denies over one second.
        registry.decisions_permit.add(75);
        registry.decisions_deny.add(25);
        history.record_at(registry.snapshot(), 2 * SECOND);
        // Window 2: 50 permits, 50 denies, 10 degraded over two seconds.
        registry.decisions_permit.add(50);
        registry.decisions_deny.add(50);
        registry.decisions_degraded.add(10);
        history.record_at(registry.snapshot(), 4 * SECOND);
        if !super::super::ENABLED {
            assert!(history.deny_rate(8) < f64::EPSILON);
            return;
        }
        // Last window only: 50/100 denies.
        assert!((history.deny_rate(1) - 0.5).abs() < 1e-9);
        // Both windows: 75/200 denies.
        assert!((history.deny_rate(8) - 0.375).abs() < 1e-9);
        // 200 decisions over 3 seconds.
        assert!((history.decide_throughput(8) - 200.0 / 3.0).abs() < 1e-6);
        // 10 degraded / 200 decisions = 50_000 ppm.
        assert_eq!(history.degraded_ppm(8), 50_000);
        assert_eq!(history.counter_sum("grbac_decisions_deny_total", 8), 75);
    }

    #[test]
    fn named_series_cover_derived_and_raw_names() {
        let registry = MetricsRegistry::new();
        let history = MetricsHistory::new(16);
        history.record_at(registry.snapshot(), SECOND);
        registry.decisions_permit.add(40);
        registry.decisions_deny.add(10);
        history.record_at(registry.snapshot(), 2 * SECOND);
        if !super::super::ENABLED {
            return;
        }
        let deny = history.series("deny_rate_ppm", 8).expect("derived series");
        assert_eq!(deny.len(), 1);
        assert!((deny[0] - 200_000.0).abs() < 1e-6);
        let throughput = history.series("decide_per_sec", 8).expect("derived series");
        assert!((throughput[0] - 50.0).abs() < 1e-6);
        let raw = history
            .series("grbac_decisions_deny_total", 8)
            .expect("raw counter series");
        assert!((raw[0] - 10.0).abs() < f64::EPSILON);
        assert!(history.series("no_such_series", 8).is_none());
    }
}
