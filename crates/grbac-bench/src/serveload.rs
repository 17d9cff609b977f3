//! Wire-level load generation for the `grbac-serve` policy service:
//! deterministic NDJSON request streams against the names
//! [`synthetic_grbac`] declares, a self-hosted server, closed-loop
//! decide drivers, a policy-churn connection, and the latency windows
//! and percentile arithmetic that E16–E18 and the `serve_load` binary
//! share.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grbac_serve::{Client, PolicyService, ServeServer};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fixtures::{synthetic_grbac, wide, SyntheticConfig};

/// Shape of a decide-traffic stream against one tenant whose engine
/// was built by [`synthetic_grbac`]:
/// the name pools (`s_{i}`, `o_{i}`, `t_{i}`, `er_{i}`) mirror the
/// fixture's deterministic naming, so a stream generated from the
/// same counts always resolves.
#[derive(Debug, Clone)]
pub struct WireLoad {
    /// Target tenant name.
    pub tenant: String,
    /// Subjects in the tenant (`s_0 .. s_{n-1}`).
    pub subjects: usize,
    /// Objects in the tenant (`o_0 .. o_{n-1}`).
    pub objects: usize,
    /// Transactions in the tenant (`t_0 .. t_{n-1}`).
    pub transactions: usize,
    /// Environment roles in the tenant (`er_0 .. er_{n-1}`).
    pub environment_roles: usize,
    /// Environment roles activated per request.
    pub active_env: usize,
    /// Stream seed (vary per client thread for distinct streams).
    pub seed: u64,
}

impl WireLoad {
    /// The stream E16–E18 and `serve_load` send to a tenant whose policy
    /// is [`wide`]: its 32 subjects, 32 objects, 4 transactions and 16
    /// environment roles, 3 of them active per request.
    #[must_use]
    pub fn wide(tenant: &str, seed: u64) -> Self {
        Self {
            tenant: tenant.to_owned(),
            subjects: 32,
            objects: 32,
            transactions: 4,
            environment_roles: 16,
            active_env: 3,
            seed,
        }
    }

    /// `n` decide request lines, deterministic under the seed.
    #[must_use]
    pub fn decide_lines(&self, n: usize) -> Vec<String> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let pick = |pool: usize, rng: &mut rand::rngs::StdRng| -> usize {
            let indices: Vec<usize> = (0..pool).collect();
            *indices.choose(rng).expect("nonempty pool")
        };
        (0..n)
            .map(|_| {
                let s = pick(self.subjects, &mut rng);
                let o = pick(self.objects, &mut rng);
                let t = pick(self.transactions, &mut rng);
                let env: Vec<String> = (0..self.environment_roles)
                    .collect::<Vec<_>>()
                    .choose_multiple(&mut rng, self.active_env.min(self.environment_roles))
                    .map(|i| format!("\"er_{i}\""))
                    .collect();
                format!(
                    r#"{{"op":"decide","tenant":"{}","subject":"s_{s}","transaction":"t_{t}","object":"o_{o}","env":[{}]}}"#,
                    self.tenant,
                    env.join(",")
                )
            })
            .collect()
    }

    /// Like [`Self::decide_lines`] but one line in `every` carries a
    /// sampled `trace` propagation context (`trace_id-span_id-01`)
    /// with a deterministic per-line trace id. `every = 1` traces
    /// every request (the harshest posture, `serve_load --trace`);
    /// `every = 8` mirrors the span store's default self-sampling
    /// rate (the posture E17 asserts on).
    #[must_use]
    pub fn traced_decide_lines(&self, n: usize, every: usize) -> Vec<String> {
        let every = every.max(1);
        self.decide_lines(n)
            .into_iter()
            .enumerate()
            .map(|(i, mut line)| {
                if i % every != 0 {
                    return line;
                }
                // Distinct non-zero ids per line; the exact values are
                // irrelevant, only that they parse and never collide
                // with another driver's stream (the seed is mixed in).
                let hi = (self.seed ^ 0xe17_0000)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    | 1;
                let lo = (i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9) | 1;
                let span = (hi.rotate_left(17) ^ lo) | 1;
                let closing = line.pop();
                debug_assert_eq!(closing, Some('}'));
                line.push_str(&format!(
                    r#","trace":"{hi:016x}{lo:016x}-{span:016x}-01"}}"#
                ));
                line
            })
            .collect()
    }

    /// An `add_rule` churn line (cycles through the tenant's subject
    /// roles and transactions). Pair with [`remove_rule_line`] on the
    /// id parsed from the response to keep the policy size bounded.
    #[must_use]
    pub fn add_rule_line(&self, i: usize, subject_roles: usize) -> String {
        format!(
            r#"{{"op":"add_rule","tenant":"{}","effect":"permit","name":"churn_{i}","subject_role":"sr_{}","transaction":"t_{}"}}"#,
            self.tenant,
            i % subject_roles.max(1),
            i % self.transactions.max(1),
        )
    }
}

/// A `remove_rule` line for the given tenant and rule id.
#[must_use]
pub fn remove_rule_line(tenant: &str, rule: u64) -> String {
    format!(r#"{{"op":"remove_rule","tenant":"{tenant}","rule":{rule}}}"#)
}

/// Extracts the `"rule":N` id from an `add_rule` response line.
#[must_use]
pub fn parse_rule_id(response: &str) -> Option<u64> {
    let tail = &response[response.find("\"rule\":")? + 7..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Serves one [`wide`] policy of `rules` rules per `(name, seed)` from a
/// fresh [`PolicyService`] on an ephemeral loopback port, and returns
/// the port's address too.
///
/// # Panics
///
/// If a tenant name repeats or no loopback port can be bound.
pub fn self_host<N: AsRef<str>>(
    rules: usize,
    tenants: impl IntoIterator<Item = (N, u64)>,
) -> (Arc<PolicyService>, ServeServer, String) {
    let service = Arc::new(PolicyService::with_defaults());
    for (name, seed) in tenants {
        let policy = SyntheticConfig {
            seed,
            ..wide(rules)
        };
        service
            .create_tenant_with_engine(name.as_ref(), synthetic_grbac(&policy).engine)
            .expect("tenant provisioned");
    }
    let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.local_addr().to_string();
    (service, server, addr)
}

/// Background wire connections that share one stop flag: closed-loop
/// decide drivers and policy churn.
#[derive(Debug, Default)]
pub struct Load {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Load {
    /// Adds a connection to `addr` that sends `lines` in order and
    /// pushes each round trip's latency onto `samples`: once through
    /// when `cycle` is false, over and over until [`Load::join`] when it
    /// is true. A failed connection, or a decide not answered
    /// `"ok":true`, panics the thread.
    pub fn drive(&mut self, addr: &str, lines: Vec<String>, samples: &Arc<Samples>, cycle: bool) {
        let (addr, samples) = (addr.to_owned(), Arc::clone(samples));
        let stop = Arc::clone(&self.stop);
        self.threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("driver connect");
            loop {
                for line in &lines {
                    if cycle && stop.load(Ordering::Acquire) {
                        return;
                    }
                    let sent = Instant::now();
                    let response = client.request_line(line).expect("wire decide");
                    assert!(response.contains("\"ok\":true"), "{response}");
                    let ns = sent.elapsed().as_nanos() as u64;
                    samples.lock().expect("samples lock").push(ns);
                }
                if !cycle {
                    return;
                }
            }
        }));
    }

    /// Adds an `add_rule`/`remove_rule` storm on `tenant`, a [`wide`]
    /// policy: while `active` is set, bursts of 8 pairs with a 2 ms
    /// breath after each, so churn is sustained but the policy never
    /// grows. The connection stays open while the storm pauses, so only
    /// the edits differ between windows. Each acknowledged pair adds 2
    /// to `edits`; a refused edit panics the thread.
    pub fn churn(
        &mut self,
        addr: &str,
        tenant: &str,
        active: &Arc<AtomicBool>,
        edits: &Arc<AtomicU64>,
    ) {
        let (addr, load) = (addr.to_owned(), WireLoad::wide(tenant, 0));
        let (active, edits) = (Arc::clone(active), Arc::clone(edits));
        let stop = Arc::clone(&self.stop);
        self.threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("churn connect");
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                if active.load(Ordering::Acquire) {
                    for _ in 0..8 {
                        let added = client
                            .request_line(&load.add_rule_line(i, 32))
                            .expect("churn add");
                        let rule = parse_rule_id(&added)
                            .unwrap_or_else(|| panic!("add_rule refused: {added}"));
                        let removed = client
                            .request_line(&remove_rule_line(&load.tenant, rule))
                            .expect("churn remove");
                        assert!(removed.contains("\"removed\":true"), "{removed}");
                        edits.fetch_add(2, Ordering::Relaxed);
                        i += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    /// Stops cycling drivers and churn, and waits for every connection.
    ///
    /// # Panics
    ///
    /// If a connection's thread panicked.
    pub fn join(self) {
        self.stop.store(true, Ordering::Release);
        for thread in self.threads {
            thread.join().expect("load thread");
        }
    }
}

/// Round-trip latencies (ns) that load threads push and windows take.
pub type Samples = Mutex<Vec<u64>>;

/// What one window of [`Samples`] saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Round trips recorded.
    pub decides: usize,
    /// Median round trip in µs (0 for an empty window).
    pub p50_us: f64,
    /// 99th-percentile round trip in µs (0 for an empty window).
    pub p99_us: f64,
}

impl WindowStats {
    /// Takes `samples` and returns their count and percentiles.
    ///
    /// # Panics
    ///
    /// If a load thread panicked while pushing a sample.
    #[must_use]
    pub fn take(samples: &Samples) -> Self {
        let mut samples = std::mem::take(&mut *samples.lock().expect("samples lock"));
        Self {
            decides: samples.len(),
            p50_us: percentile_us(&mut samples, 50.0),
            p99_us: percentile_us(&mut samples, 99.0),
        }
    }
}

/// Records one `span`-long window on every sample set at once: drops
/// what they held, waits `span`, and returns each one's window.
pub fn record_window(samples: &[Arc<Samples>], span: Duration) -> Vec<WindowStats> {
    for samples in samples {
        let _ = WindowStats::take(samples);
    }
    std::thread::sleep(span);
    samples
        .iter()
        .map(|samples| WindowStats::take(samples))
        .collect()
}

/// The unsigned integer field `key` of a JSON object.
#[must_use]
pub fn uint_field(object: &serde_json::Value, key: &str) -> Option<u64> {
    match object.get(key)? {
        serde_json::Value::UInt(n) => Some(*n),
        serde_json::Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// The `p`-th percentile (0..=100) of `samples`, in microseconds.
/// Sorts in place; returns 0.0 for an empty slice.
#[must_use]
pub fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)] as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_lines_are_deterministic_and_resolvable_names() {
        let load = WireLoad {
            tenant: "a".to_owned(),
            subjects: 4,
            objects: 4,
            transactions: 2,
            environment_roles: 3,
            active_env: 2,
            seed: 7,
        };
        let first = load.decide_lines(8);
        let second = load.decide_lines(8);
        assert_eq!(first, second);
        for line in &first {
            assert!(line.contains("\"op\":\"decide\""));
            assert!(line.contains("\"tenant\":\"a\""));
            assert!(line.contains("\"subject\":\"s_"));
        }
    }

    #[test]
    fn rule_id_round_trips_through_the_envelope() {
        let response = r#"{"ok":true,"op":"add_rule","result":{"rule":41}}"#;
        assert_eq!(parse_rule_id(response), Some(41));
        assert_eq!(parse_rule_id(r#"{"ok":false}"#), None);
        assert_eq!(
            remove_rule_line("a", 41),
            r#"{"op":"remove_rule","tenant":"a","rule":41}"#
        );
    }

    #[test]
    fn a_window_takes_what_was_pushed_since_the_last() {
        let samples = Samples::default();
        samples.lock().unwrap().extend([3_000, 1_000, 2_000]);
        let window = WindowStats::take(&samples);
        assert_eq!(
            (window.decides, window.p50_us, window.p99_us),
            (3, 2.0, 3.0)
        );
        let empty = WindowStats::take(&samples);
        assert_eq!((empty.decides, empty.p50_us, empty.p99_us), (0, 0.0, 0.0));
    }

    #[test]
    fn uint_fields_read_either_integer_kind() {
        let receipt: serde_json::Value =
            serde_json::from_str(r#"{"delivered":8,"dropped":-1,"name":"x"}"#).unwrap();
        assert_eq!(uint_field(&receipt, "delivered"), Some(8));
        assert_eq!(uint_field(&receipt, "dropped"), None);
        assert_eq!(uint_field(&receipt, "name"), None);
        assert_eq!(uint_field(&receipt, "missing"), None);
    }

    #[test]
    fn drivers_send_each_line_once_or_cycle_until_joined() {
        let (_service, server, addr) = self_host(64, [("a", 0)]);
        let samples = [Arc::default()];
        let mut load = Load::default();
        for seed in 0..2 {
            let lines = WireLoad::wide("a", seed).decide_lines(10);
            load.drive(&addr, lines, &samples[0], false);
        }
        load.join();
        assert_eq!(WindowStats::take(&samples[0]).decides, 20);

        let mut load = Load::default();
        let lines = WireLoad::wide("a", 3).decide_lines(4);
        load.drive(&addr, lines, &samples[0], true);
        let window = record_window(&samples, Duration::from_millis(100))[0];
        load.join();
        assert!(window.decides > 4, "{window:?}");
        assert!(window.p99_us >= window.p50_us && window.p50_us > 0.0);
        server.shutdown();
    }

    #[test]
    fn churn_counts_acknowledged_edits_and_leaves_the_policy_as_it_was() {
        let (service, server, addr) = self_host(64, [("a", 0)]);
        let status = || service.handle_line(r#"{"op":"status","tenant":"a"}"#);
        assert!(status().contains("\"rules\":64"), "{}", status());
        let (active, edits) = (Arc::new(AtomicBool::new(true)), Arc::new(AtomicU64::new(0)));
        let mut load = Load::default();
        load.churn(&addr, "a", &active, &edits);
        while edits.load(Ordering::Relaxed) < 32 {
            std::thread::sleep(Duration::from_millis(1));
        }
        active.store(false, Ordering::Release);
        load.join();
        let edits = edits.load(Ordering::Relaxed);
        assert!(edits >= 32 && edits % 2 == 0, "{edits}");
        assert!(status().contains("\"rules\":64"), "{}", status());
        server.shutdown();
    }

    #[test]
    #[should_panic(expected = "load thread")]
    fn churn_fails_on_a_refused_edit() {
        let (_service, _server, addr) = self_host(64, [("a", 0)]);
        let active = Arc::new(AtomicBool::new(true));
        let mut load = Load::default();
        load.churn(&addr, "no_such_tenant", &active, &Arc::default());
        std::thread::sleep(Duration::from_millis(50));
        load.join();
    }

    #[test]
    fn percentiles_hit_the_expected_ranks() {
        let mut samples: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert!((percentile_us(&mut samples, 50.0) - 50.0).abs() <= 1.0);
        assert!((percentile_us(&mut samples, 99.0) - 99.0).abs() <= 1.0);
        assert_eq!(percentile_us(&mut [], 99.0), 0.0);
    }
}
