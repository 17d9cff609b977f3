//! Measurement arithmetic shared by every workload: a fixed-memory
//! latency histogram with percentile ranks and sample counts, medians,
//! the stacked-ledger marginals, failure accounting against the oracle,
//! and the open-loop schedule that times each operation from when it
//! was due.

use std::time::{Duration, Instant};

/// Sub-buckets per power of two: values are kept to within 1/128
/// (under 0.8%) of their magnitude.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = 64 * SUB;

/// A log-linear latency histogram in nanoseconds. Its buckets reach
/// only as far as the largest value recorded (a few KiB for latencies
/// in microseconds), so the footprint does not grow with throughput and
/// a run can keep one per window; two histograms merge by adding counts.
#[derive(Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({} samples)", self.count())
    }
}

/// One percentile read off a histogram, with the count of samples
/// beyond it that a tail figure rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the rank, in nanoseconds.
    pub ns: f64,
    /// Samples ranked strictly above the percentile.
    pub beyond: u64,
}

impl Percentile {
    pub fn us(&self) -> f64 {
        self.ns / 1_000.0
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let shift = msb - SUB_BITS;
    let mantissa = (ns >> shift) as usize - SUB;
    ((shift as usize + 1) * SUB + mantissa).min(BUCKETS - 1)
}

/// `(lower bound, width)` of a bucket.
fn bucket_bounds(index: usize) -> (f64, f64) {
    if index < SUB {
        return (index as f64, 1.0);
    }
    let shift = index / SUB - 1;
    let mantissa = (index % SUB + SUB) as u64;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        let bucket = bucket_of(ns);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
    }

    pub fn record_duration(&mut self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (0..=100) at rank `p/100 * (n - 1)`,
    /// interpolated linearly inside its bucket; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        if self.total == 0 {
            return None;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank < (below + count) as f64 {
                let (low, width) = bucket_bounds(index);
                let within = (rank - below as f64 + 0.5) / count as f64;
                let beyond = self.total - (rank.floor() as u64 + 1);
                return Some(Percentile {
                    ns: low + within * width,
                    beyond,
                });
            }
            below += count;
        }
        unreachable!("rank lies below the total count")
    }
}

/// The median of `values` (the mean of the middle two for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value at `rank` (0 = lowest, 1 = highest) of `values`,
/// interpolated linearly between neighbours; `at_rank(v, 0.5)` is the
/// median. 0 for an empty slice.
pub fn at_rank(values: &[f64], rank: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = rank.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (position - below as f64) * (sorted[above] - sorted[below])
}

/// A percentile taken window by window: each window's own percentile,
/// read at a rank over the windows ranked fastest first (see
/// `shape::WINDOW_RANK`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPercentile {
    /// The windows' percentile at the rank, in nanoseconds.
    pub ns: f64,
    /// Windows that held samples.
    pub windows: usize,
    /// Samples in those windows.
    pub samples: u64,
    /// The fewest samples any of those windows ranked beyond its
    /// percentile: what each window's figure rests on at least.
    pub beyond: u64,
}

impl WindowPercentile {
    pub fn us(&self) -> f64 {
        self.ns / 1_000.0
    }
}

/// The `p`-th percentile of windows `0..count`, window by window, at
/// `rank` (see [`WindowPercentile`]); `window(i)` builds window `i`'s
/// histogram. Empty windows take no part; `None` when all are empty.
pub fn window_percentile(
    count: usize,
    window: impl Fn(usize) -> Histogram,
    p: f64,
    rank: f64,
) -> Option<WindowPercentile> {
    let mut values = Vec::new();
    let mut samples = 0;
    let mut beyond = u64::MAX;
    for i in 0..count {
        let histogram = window(i);
        if let Some(at) = histogram.percentile(p) {
            values.push(at.ns);
            samples += histogram.count();
            beyond = beyond.min(at.beyond);
        }
    }
    (!values.is_empty()).then(|| WindowPercentile {
        ns: at_rank(&values, rank),
        windows: values.len(),
        samples,
        beyond,
    })
}

/// Stacked-ledger marginals: each row's cost over the row before it.
/// The first row is the base and keeps its full value.
pub fn marginals(rows: &[f64]) -> Vec<f64> {
    rows.iter()
        .enumerate()
        .map(|(i, &value)| if i == 0 { value } else { value - rows[i - 1] })
        .collect()
}

/// Operation accounting for `attempted`, `failed` and the failed share.
/// A failure is an error envelope, a transport error, or a decision
/// whose effect differs from the oracle's; mismatches are also counted
/// on their own because they make the run incorrect.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub mismatches: u64,
}

impl Tally {
    /// Counts one decision checked against the oracle's effect.
    pub fn decision(&mut self, permitted: bool, oracle_permits: bool) {
        self.attempted += 1;
        if permitted != oracle_permits {
            self.mismatches += 1;
        }
    }

    /// Counts one operation that either succeeded or failed outright.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.errors += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * self.failed() as f64 / self.attempted as f64
    }
}

/// An open-loop schedule: operation `k` is due `k * period` after the
/// start, whether or not earlier operations have finished. Latency is
/// taken from the due time, so a stall also charges the wait it
/// imposes on the operations queued behind it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub start: Instant,
    pub period: Duration,
    /// The operation due at `start`.
    first: u64,
}

/// Timing of one operation relative to its due time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueSample {
    /// How late the generator sent it.
    pub late_ns: u64,
    /// Completion minus due time.
    pub latency_ns: u64,
}

/// Charges an operation due at `due`, sent at `sent` and finished at
/// `done`, from its due time.
pub fn from_due(due: Instant, sent: Instant, done: Instant) -> DueSample {
    let nanos = |later: Instant| {
        u64::try_from(later.saturating_duration_since(due).as_nanos()).unwrap_or(u64::MAX)
    };
    DueSample {
        late_ns: nanos(sent),
        latency_ns: nanos(done),
    }
}

impl OpenLoop {
    pub fn new(start: Instant, per_second: u32) -> Self {
        Self {
            start,
            period: Duration::from_secs(1) / per_second.max(1),
            first: 0,
        }
    }

    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period * u32::try_from(k.saturating_sub(self.first)).unwrap_or(u32::MAX)
    }

    /// Resumes the schedule after a pause: operation `k` is due at `at`
    /// and the ones after it follow on the same period.
    pub fn restart(&mut self, at: Instant, k: u64) {
        self.start = at;
        self.first = k;
    }

    /// Blocks until operation `k` is due, sleeping; returns at once when
    /// already late. It does not yield in a loop near the due time: on
    /// the one core the workload runs on, each yield handed the core to
    /// the decide stream for a whole time slice, and edits ran about
    /// 1 ms late where sleeping leaves them about 0.1 ms late.
    pub fn wait_for(&self, k: u64) {
        let now = Instant::now();
        let due = self.due(k);
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_land_on_their_rank_with_the_sample_count() {
        let mut histogram = Histogram::default();
        for us in 1..=1_000u64 {
            histogram.record(us * 1_000);
        }
        let p50 = histogram.percentile(50.0).unwrap();
        let p99 = histogram.percentile(99.0).unwrap();
        assert!((p50.us() - 500.0).abs() / 500.0 < 0.01, "{p50:?}");
        assert!((p99.us() - 990.0).abs() / 990.0 < 0.01, "{p99:?}");
        assert_eq!(histogram.count(), 1_000);
        // Rank 499.5 sits on the 500th sample, rank 989.01 on the 990th.
        assert_eq!(p50.beyond, 500);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn a_small_sample_leaves_few_beyond_the_tail() {
        let mut histogram = Histogram::default();
        for ns in 0..500u64 {
            histogram.record(ns);
        }
        let p99 = histogram.percentile(99.0).unwrap();
        // Rank 494.01 sits on the 495th sample: five lie beyond it.
        assert_eq!(p99.beyond, 5);
        assert!((p99.ns - 494.0).abs() < 1.0, "{p99:?}");
        assert!(Histogram::default().percentile(50.0).is_none());
    }

    #[test]
    fn small_values_are_exact_and_merging_adds_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(7);
        b.record(7);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let p0 = a.percentile(0.0).unwrap();
        assert!((7.0..8.0).contains(&p0.ns), "{p0:?}");
        let p100 = a.percentile(100.0).unwrap();
        assert!((100.0..101.0).contains(&p100.ns), "{p100:?}");
    }

    #[test]
    fn the_largest_value_still_lands_in_a_bucket() {
        let mut histogram = Histogram::default();
        histogram.record(u64::MAX);
        assert_eq!(histogram.count(), 1);
        assert!(histogram.percentile(50.0).unwrap().ns > 1e18);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_window_percentile_is_the_median_window_and_ignores_bursts() {
        // Five windows of 100 samples: three at 10us, one fast burst at
        // 5us, one slow one at 20us, and an empty window.
        let windows: Vec<Histogram> = [10_000u64, 5_000, 10_000, 0, 20_000, 10_000]
            .iter()
            .map(|&ns| {
                let mut h = Histogram::default();
                for _ in 0..if ns == 0 { 0 } else { 100 } {
                    h.record(ns);
                }
                h
            })
            .collect();
        let at = |p: f64, rank: f64| {
            window_percentile(windows.len(), |i| windows[i].clone(), p, rank).unwrap()
        };
        let p50 = at(50.0, 0.5);
        assert!((p50.us() - 10.0).abs() < 0.1, "{p50:?}");
        assert_eq!(p50.windows, 5);
        assert_eq!(p50.samples, 500);
        // Rank 49.5 of 100 leaves 50 beyond it in every window.
        assert_eq!(p50.beyond, 50);
        assert_eq!(at(99.0, 0.5).beyond, 1);
        // At rank 1/8 of five windows, a half of the way from the burst
        // (5us) to the next window (10us).
        assert!((at(50.0, 0.125).us() - 7.5).abs() < 0.1);
        assert!(window_percentile(1, |_| Histogram::default(), 50.0, 0.5).is_none());
    }

    #[test]
    fn values_at_a_rank_interpolate_between_neighbours() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(at_rank(&values, 0.0), 1.0);
        assert_eq!(at_rank(&values, 0.5), median(&values));
        assert_eq!(at_rank(&values, 0.125), 1.5);
        assert_eq!(at_rank(&values, 1.0), 5.0);
        assert_eq!(at_rank(&[7.0], 0.3), 7.0);
        assert_eq!(at_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn ledger_rows_report_their_cost_over_the_row_before() {
        // bare, +recorder, +heat, +bus, +latency sampling
        let rows = [1_000.0, 1_150.0, 1_190.0, 1_190.0, 1_260.0];
        assert_eq!(marginals(&rows), vec![1_000.0, 150.0, 40.0, 0.0, 70.0]);
        // A sink measured as cheaper than the row below stays negative:
        // the ledger reports noise, it does not hide it.
        assert_eq!(marginals(&[10.0, 9.0]), vec![10.0, -1.0]);
        assert!(marginals(&[]).is_empty());
    }

    #[test]
    fn oracle_mismatches_and_errors_feed_failed_pct() {
        let mut tally = Tally::default();
        tally.decision(true, true);
        tally.decision(false, false);
        tally.decision(true, false); // mismatch
        tally.operation(true);
        let mut other = Tally::default();
        other.operation(false); // error envelope or transport error
        tally.add(other);
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.mismatches, 1);
        assert_eq!(tally.errors, 1);
        assert_eq!(tally.failed(), 2);
        assert!((tally.failed_pct() - 40.0).abs() < 1e-9);
        assert_eq!(Tally::default().failed_pct(), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let schedule = OpenLoop::new(start, 1_000);
        assert_eq!(schedule.period, Duration::from_millis(1));
        // Operation 0 is on time and takes 300us.
        let on_time = from_due(schedule.due(0), start, start + Duration::from_micros(300));
        assert_eq!(on_time.late_ns, 0);
        assert_eq!(on_time.latency_ns, 300_000);
        // Operation 1 is due at 1ms, but operation 0 stalled until
        // 2.5ms: it is sent 1.5ms late, takes 300us, and is charged
        // 1.8ms, not the 300us the server spent on it.
        let sent = start + Duration::from_micros(2_500);
        let stalled = from_due(schedule.due(1), sent, sent + Duration::from_micros(300));
        assert_eq!(stalled.late_ns, 1_500_000);
        assert_eq!(stalled.latency_ns, 1_800_000);
        // After a pause the schedule resumes from the restart point.
        let mut resumed = schedule;
        let later = start + Duration::from_secs(5);
        resumed.restart(later, 8);
        assert_eq!(resumed.due(8), later);
        assert_eq!(resumed.due(10), later + Duration::from_millis(2));
    }

    #[test]
    fn open_loop_waits_until_due() {
        let schedule = OpenLoop::new(Instant::now(), 500);
        schedule.wait_for(1);
        assert!(Instant::now() >= schedule.due(1));
    }
}
