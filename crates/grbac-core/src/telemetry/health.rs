//! Decision-stream anomaly watchdogs: EWMA baselines over the live
//! mediation counters, with structured alerts.
//!
//! A [`DecisionWatchdog`] is a *pull* detector: it holds no clock and
//! spawns no thread. The embedding layer (an operator loop,
//! `AwareHome`, a bench harness) calls [`DecisionWatchdog::tick`] at
//! whatever cadence it likes — once per virtual minute, once per N
//! workload events — and each tick reads the registry's counters,
//! diffs them against the previous tick, and folds the resulting
//! *rates* into exponentially-weighted baselines:
//!
//! * **deny rate** — denies / decisions this tick,
//! * **degraded rate** — degraded decisions / decisions,
//! * **env-role flap rate** — role activations + deactivations /
//!   provider polls,
//! * **staleness burn** — stale-served + unavailable polls / polls.
//!
//! Each signal keeps an EWMA of its mean *and* of its absolute
//! deviation; a tick alerts when the observed rate exceeds the mean by
//! more than `sensitivity × max(deviation, deviation_floor)`. The
//! deviation floor keeps a perfectly calm baseline (deviation → 0)
//! from alerting on harmless jitter, and the first
//! [`WatchdogConfig::warmup_ticks`] ticks only learn — they never
//! alert — so clean steady workloads raise **zero false alarms**
//! (experiment E13 holds this on the E11 workload). Sustained faults
//! are folded into the baseline like everything else, so a watchdog
//! alarms on the *transition* into an incident; rates that stay bad
//! become the new normal (re-arm by replacing the watchdog).
//!
//! Alerts are [`AlertRecord`]s: kept in the watchdog's bounded log (a
//! [`BoundedRing`] of `max_alerts`), counted per kind into the registry
//! (`grbac_alerts_total{kind="…"}`), with the learned baselines
//! mirrored as gauges — all of which both exporters render.

use serde::{Deserialize, Serialize};

use super::metrics::MetricsRegistry;
use super::{BoundedRing, ENABLED};
use crate::id::DecisionId;

/// The four decision-stream signals a watchdog baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertKind {
    /// Deny rate spiked above its baseline (policy drift, a hostile
    /// actor, or a newly-shadowing rule).
    DenyRateSpike,
    /// Degraded-decision rate surged (the sensing layer is limping).
    DegradedSurge,
    /// Environment roles flipped far more often than usual (a flapping
    /// sensor or an oscillating provider).
    EnvRoleFlapStorm,
    /// Polls answered stale or not at all (the provider is burning
    /// through its staleness budget).
    StalenessBurn,
}

impl AlertKind {
    /// All kinds, in the order used for dense keyed-counter slots.
    pub const ALL: [AlertKind; 4] = [
        AlertKind::DenyRateSpike,
        AlertKind::DegradedSurge,
        AlertKind::EnvRoleFlapStorm,
        AlertKind::StalenessBurn,
    ];

    /// Stable snake_case name (the `kind` label on
    /// `grbac_alerts_total`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::DenyRateSpike => "deny_rate_spike",
            AlertKind::DegradedSurge => "degraded_surge",
            AlertKind::EnvRoleFlapStorm => "env_role_flap_storm",
            AlertKind::StalenessBurn => "staleness_burn",
        }
    }

    /// The dense slot this kind occupies in keyed counters.
    #[must_use]
    pub fn slot(self) -> u64 {
        Self::ALL.iter().position(|&k| k == self).unwrap_or(0) as u64
    }

    /// The kind for a dense slot, if in range.
    #[must_use]
    pub fn from_slot(slot: u64) -> Option<AlertKind> {
        Self::ALL.get(slot as usize).copied()
    }
}

/// One anomaly, as observed by a watchdog tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Monotonic per-watchdog sequence number.
    pub seq: u64,
    /// The tick (1-based) that raised the alert.
    pub tick: u64,
    /// Which signal breached.
    pub kind: AlertKind,
    /// The rate observed this tick.
    pub observed: f64,
    /// The EWMA mean before this tick's observation was folded in.
    pub baseline: f64,
    /// The EWMA absolute deviation before this tick (pre-floor).
    pub deviation: f64,
    /// The denominator behind `observed` (decisions or polls this
    /// tick).
    pub window: u64,
    /// Correlation ids of decisions minted inside the breaching
    /// window, newest-biased and capped at
    /// [`DecisionWatchdog::MAX_ALERT_IDS`] — the starting points for a
    /// forensic drill-down into what the engine was deciding when the
    /// signal breached. Empty for alerts recorded before ids existed
    /// and for poll-driven signals on an idle decide path.
    #[serde(default)]
    pub decision_ids: Vec<DecisionId>,
}

impl AlertRecord {
    /// How many floored deviations the observation sat above the
    /// baseline — a unitless severity (always ≥ the configured
    /// sensitivity for a raised alert).
    #[must_use]
    pub fn severity(&self, config: &WatchdogConfig) -> f64 {
        (self.observed - self.baseline) / self.deviation.max(config.deviation_floor)
    }
}

/// Tuning for a [`DecisionWatchdog`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// EWMA smoothing factor in `(0, 1]` for both the mean and the
    /// deviation (larger = faster to adapt, quicker to forgive).
    pub alpha: f64,
    /// Alert when `observed - mean > sensitivity × deviation` (after
    /// flooring the deviation).
    pub sensitivity: f64,
    /// Lower bound on the deviation used for thresholding, so a calm
    /// baseline cannot alert on noise. In rate units (0.05 = five
    /// percentage points).
    pub deviation_floor: f64,
    /// Ticks that only learn the baseline and never alert.
    pub warmup_ticks: u64,
    /// Minimum decisions in a tick for the decision-rate signals to be
    /// evaluated (thin ticks neither learn nor alert).
    pub min_decisions: u64,
    /// Minimum provider polls in a tick for the poll-rate signals.
    pub min_polls: u64,
    /// Alert-log retention; older records are dropped first.
    pub max_alerts: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            alpha: 0.3,
            sensitivity: 4.0,
            deviation_floor: 0.05,
            warmup_ticks: 5,
            min_decisions: 10,
            min_polls: 10,
            max_alerts: 1024,
        }
    }
}

/// EWMA mean + EWMA absolute deviation for one signal.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Baseline {
    mean: f64,
    deviation: f64,
    samples: u64,
}

impl Baseline {
    /// Checks `observed` against the learned baseline, then folds it
    /// in. Returns the pre-update `(mean, deviation)` when the
    /// observation breaches upward (a drop in deny rate is not an
    /// anomaly worth paging on).
    fn observe(&mut self, observed: f64, config: &WatchdogConfig) -> Option<(f64, f64)> {
        let breach = if self.samples >= config.warmup_ticks {
            let threshold = config.sensitivity * self.deviation.max(config.deviation_floor);
            (observed - self.mean > threshold).then_some((self.mean, self.deviation))
        } else {
            None
        };
        if self.samples == 0 {
            self.mean = observed;
        } else {
            self.mean += config.alpha * (observed - self.mean);
            let error = (observed - self.mean).abs();
            self.deviation += config.alpha * (error - self.deviation);
        }
        self.samples += 1;
        breach
    }
}

/// The counter readings one tick is diffed against.
#[derive(Debug, Clone, Copy, Default)]
struct CounterCursor {
    decisions: u64,
    denies: u64,
    degraded: u64,
    polls: u64,
    flips: u64,
    stale: u64,
}

impl CounterCursor {
    fn read(registry: &MetricsRegistry) -> Self {
        Self {
            decisions: registry.decisions_permit.get() + registry.decisions_deny.get(),
            denies: registry.decisions_deny.get(),
            degraded: registry.decisions_degraded.get(),
            polls: registry.env_polls.get(),
            flips: registry.env_role_activations.get() + registry.env_role_deactivations.get(),
            stale: registry.env_stale_served.get() + registry.env_unavailable.get(),
        }
    }
}

/// A pull-model anomaly detector over one [`MetricsRegistry`] (see the
/// module docs for the signal definitions and alerting rule).
#[derive(Debug)]
pub struct DecisionWatchdog {
    config: WatchdogConfig,
    cursor: CounterCursor,
    /// Read position in the registry's recent-decision-id ring, so
    /// each tick sees only the ids minted since the previous tick.
    id_cursor: u64,
    baselines: [Baseline; 4],
    ticks: u64,
    alerts: BoundedRing<AlertRecord>,
}

impl Default for DecisionWatchdog {
    fn default() -> Self {
        Self::new(WatchdogConfig::default())
    }
}

impl DecisionWatchdog {
    /// A fresh watchdog; baselines start empty and the first tick only
    /// establishes the cursor.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Self {
        Self {
            config,
            cursor: CounterCursor::default(),
            id_cursor: 0,
            baselines: [Baseline::default(); 4],
            ticks: 0,
            alerts: BoundedRing::new(config.max_alerts),
        }
    }

    /// Upper bound on the decision ids attached to one alert.
    pub const MAX_ALERT_IDS: usize = 32;

    /// The active tuning.
    #[must_use]
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Ticks evaluated so far.
    #[must_use]
    pub fn tick_count(&self) -> u64 {
        self.ticks
    }

    /// The retained alert log, oldest first.
    pub fn alerts(&self) -> impl Iterator<Item = &AlertRecord> {
        self.alerts.iter()
    }

    /// Total alerts ever raised (including any dropped from the log).
    #[must_use]
    pub fn alert_count(&self) -> u64 {
        self.alerts.pushed()
    }

    /// Evaluates one tick: diffs the registry counters against the
    /// previous tick, scores the four signals against their baselines,
    /// and returns the alerts raised (also retained in
    /// [`Self::alerts`] and counted into the registry's
    /// `grbac_alerts_total` series). The learned deny/degraded
    /// baselines are mirrored into registry gauges in parts-per-million
    /// so exporters show what the watchdog currently considers normal.
    pub fn tick(&mut self, registry: &MetricsRegistry) -> Vec<AlertRecord> {
        let now = CounterCursor::read(registry);
        let was = std::mem::replace(&mut self.cursor, now);
        self.ticks += 1;
        registry.watchdog_ticks.inc();
        if !ENABLED {
            return Vec::new();
        }

        // Ids minted inside this tick's window; attached to any alert
        // raised below so one alert resolves to concrete decisions.
        let (mut window_ids, id_cursor) = registry.recent_decision_ids_since(self.id_cursor);
        self.id_cursor = id_cursor;
        if window_ids.len() > Self::MAX_ALERT_IDS {
            // Keep the newest ids: closest to the breach the tick saw.
            window_ids.drain(..window_ids.len() - Self::MAX_ALERT_IDS);
        }

        let decisions = now.decisions.saturating_sub(was.decisions);
        let polls = now.polls.saturating_sub(was.polls);
        let rate = |delta: u64, window: u64| delta as f64 / window as f64;

        let mut signals: [Option<(f64, u64)>; 4] = [None; 4];
        if decisions >= self.config.min_decisions {
            signals[AlertKind::DenyRateSpike.slot() as usize] = Some((
                rate(now.denies.saturating_sub(was.denies), decisions),
                decisions,
            ));
            signals[AlertKind::DegradedSurge.slot() as usize] = Some((
                rate(now.degraded.saturating_sub(was.degraded), decisions),
                decisions,
            ));
        }
        if polls >= self.config.min_polls {
            signals[AlertKind::EnvRoleFlapStorm.slot() as usize] =
                Some((rate(now.flips.saturating_sub(was.flips), polls), polls));
            signals[AlertKind::StalenessBurn.slot() as usize] =
                Some((rate(now.stale.saturating_sub(was.stale), polls), polls));
        }

        let mut raised = Vec::new();
        for kind in AlertKind::ALL {
            let slot = kind.slot() as usize;
            let Some((observed, window)) = signals[slot] else {
                continue;
            };
            if let Some((baseline, deviation)) =
                self.baselines[slot].observe(observed, &self.config)
            {
                let record = AlertRecord {
                    seq: self.alerts.pushed(),
                    tick: self.ticks,
                    kind,
                    observed,
                    baseline,
                    deviation,
                    window,
                    decision_ids: window_ids.clone(),
                };
                registry.alerts_by_kind.add(kind.slot(), 1);
                registry
                    .events
                    .publish(super::events::EventData::Alert(record.clone()));
                self.alerts.push(record.clone());
                raised.push(record);
            }
        }

        let ppm = |value: f64| (value * 1e6).round().max(0.0) as u64;
        registry.watchdog_deny_baseline_ppm.set(ppm(self.baselines
            [AlertKind::DenyRateSpike.slot() as usize]
            .mean));
        registry
            .watchdog_degraded_baseline_ppm
            .set(ppm(self.baselines
                [AlertKind::DegradedSurge.slot() as usize]
                .mean));
        registry.watchdog_flap_baseline_ppm.set(ppm(self.baselines
            [AlertKind::EnvRoleFlapStorm.slot() as usize]
            .mean));
        registry
            .watchdog_staleness_baseline_ppm
            .set(ppm(self.baselines
                [AlertKind::StalenessBurn.slot() as usize]
                .mean));
        raised
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(
        watchdog: &mut DecisionWatchdog,
        registry: &MetricsRegistry,
        permits: u64,
        denies: u64,
    ) -> Vec<AlertRecord> {
        registry.decisions_permit.add(permits);
        registry.decisions_deny.add(denies);
        watchdog.tick(registry)
    }

    #[test]
    fn steady_stream_never_alerts() {
        let registry = MetricsRegistry::new();
        let mut watchdog = DecisionWatchdog::default();
        for _ in 0..50 {
            assert!(drive(&mut watchdog, &registry, 90, 10).is_empty());
        }
        assert_eq!(watchdog.alert_count(), 0);
        assert_eq!(watchdog.tick_count(), 50);
    }

    #[test]
    fn deny_spike_alerts_once_warmed() {
        let registry = MetricsRegistry::new();
        let mut watchdog = DecisionWatchdog::default();
        for _ in 0..10 {
            assert!(drive(&mut watchdog, &registry, 95, 5).is_empty());
        }
        let raised = drive(&mut watchdog, &registry, 20, 80);
        if ENABLED {
            assert_eq!(raised.len(), 1);
            let alert = &raised[0];
            assert_eq!(alert.kind, AlertKind::DenyRateSpike);
            assert!(alert.observed > 0.7);
            assert!(alert.baseline < 0.1);
            assert!(alert.severity(watchdog.config()) >= watchdog.config().sensitivity);
            assert_eq!(watchdog.alerts().count(), 1);
            assert_eq!(
                registry.alerts_by_kind.get(AlertKind::DenyRateSpike.slot()),
                1
            );
            assert!(registry.watchdog_deny_baseline_ppm.get() > 0);
        } else {
            assert!(raised.is_empty());
        }
    }

    #[test]
    fn alerts_capture_window_decision_ids() {
        let registry = MetricsRegistry::new();
        let mut watchdog = DecisionWatchdog::default();
        for _ in 0..10 {
            drive(&mut watchdog, &registry, 95, 5);
        }
        // Ids minted during the breaching window — and a flood before
        // it that a previous tick already consumed.
        registry.note_decision(DecisionId::from_parts(5, 999));
        watchdog.tick(&registry); // thin tick consumes the stray id
        for seq in 1..=40u64 {
            registry.note_decision(DecisionId::from_parts(5, seq));
        }
        let raised = drive(&mut watchdog, &registry, 20, 80);
        if ENABLED {
            assert_eq!(raised.len(), 1);
            let ids = &raised[0].decision_ids;
            assert_eq!(ids.len(), DecisionWatchdog::MAX_ALERT_IDS);
            // Newest-biased: the tail of the window survives the cap,
            // and the pre-window id does not reappear.
            assert_eq!(ids.last().copied(), Some(DecisionId::from_parts(5, 40)));
            assert!(!ids.contains(&DecisionId::from_parts(5, 999)));
            // The retained log carries the same ids.
            let logged = watchdog.alerts().last().expect("alert retained");
            assert_eq!(&logged.decision_ids, ids);
        } else {
            assert!(raised.is_empty());
        }
    }

    #[test]
    fn warmup_suppresses_early_anomalies() {
        let registry = MetricsRegistry::new();
        let mut watchdog = DecisionWatchdog::default();
        // A wild swing inside the warmup window learns, never alerts.
        assert!(drive(&mut watchdog, &registry, 100, 0).is_empty());
        assert!(drive(&mut watchdog, &registry, 0, 100).is_empty());
        assert!(drive(&mut watchdog, &registry, 100, 0).is_empty());
        assert_eq!(watchdog.alert_count(), 0);
    }

    #[test]
    fn thin_ticks_are_skipped() {
        let registry = MetricsRegistry::new();
        let mut watchdog = DecisionWatchdog::default();
        for _ in 0..10 {
            drive(&mut watchdog, &registry, 90, 10);
        }
        // 5 decisions < min_decisions: even an all-deny tick is ignored.
        assert!(drive(&mut watchdog, &registry, 0, 5).is_empty());
    }

    #[test]
    fn staleness_burn_and_flap_storm_fire_on_poll_signals() {
        let registry = MetricsRegistry::new();
        let mut watchdog = DecisionWatchdog::default();
        for _ in 0..10 {
            registry.env_polls.add(100);
            registry.env_role_activations.add(2);
            watchdog.tick(&registry);
        }
        registry.env_polls.add(100);
        registry.env_role_activations.add(40);
        registry.env_role_deactivations.add(40);
        registry.env_stale_served.add(30);
        registry.env_unavailable.add(10);
        let raised = watchdog.tick(&registry);
        if ENABLED {
            let kinds: Vec<_> = raised.iter().map(|a| a.kind).collect();
            assert!(kinds.contains(&AlertKind::EnvRoleFlapStorm));
            assert!(kinds.contains(&AlertKind::StalenessBurn));
        } else {
            assert!(raised.is_empty());
        }
    }

    #[test]
    fn alert_log_is_bounded() {
        let registry = MetricsRegistry::new();
        let mut watchdog = DecisionWatchdog::new(WatchdogConfig {
            max_alerts: 2,
            ..WatchdogConfig::default()
        });
        for _ in 0..6 {
            drive(&mut watchdog, &registry, 100, 0);
        }
        for _ in 0..5 {
            // Alternating calm/spike keeps the deviation floor busy.
            drive(&mut watchdog, &registry, 0, 100);
            drive(&mut watchdog, &registry, 100, 0);
        }
        assert!(watchdog.alerts().count() <= 2);
        if ENABLED {
            assert!(watchdog.alert_count() >= 1);
        }
    }

    #[test]
    fn kind_slots_round_trip() {
        for kind in AlertKind::ALL {
            assert_eq!(AlertKind::from_slot(kind.slot()), Some(kind));
        }
        assert_eq!(AlertKind::from_slot(99), None);
        assert_eq!(AlertKind::DenyRateSpike.name(), "deny_rate_spike");
    }
}
