//! Workload shapes: every generator parameter the workloads use, and
//! how each input stream's seed derives from the `--seed` argument.
//! `perfbench/workloads.json` records the same values for readers; a
//! test holds the two equal.

use grbac_bench::fixtures::SyntheticConfig;

/// Generator parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Policies served (tenants; 1 for the in-process engine).
    pub policies: usize,
    /// Rules per policy.
    pub rules: usize,
    /// Load threads. In-process each has its own request stream; on
    /// the wire each tenant has a decide connection with its own
    /// stream, and one load thread drives them all in turn.
    pub load_threads: usize,
    /// Distinct requests each stream cycles through.
    pub requests_per_stream: usize,
    /// Environment roles active in each request.
    pub active_env: usize,
    /// One request in this many carries sensed evidence instead of a
    /// trusted subject (0 = none).
    pub sensed_every: usize,
    /// Rate of the open-loop `add_rule`/`remove_rule` stream that runs
    /// beside the decide load for the whole run (0 = none).
    pub edits_per_s: u32,
    /// Edits of the closed-loop probe run in the pause before each
    /// window while the load is idle, each followed by a checked
    /// decide (0 = none; an even count, so each chunk ends with the
    /// policy as it began).
    pub probe_edits: usize,
    /// Whether the whole process, server threads included, runs on one
    /// core: a round trip then costs the client's and the server's work
    /// and two context switches, not a cross-core wake-up, whose
    /// latency on a shared host follows the neighbours' load, and a
    /// stall of the host's vCPU holds up every thread alike.
    pub one_core: bool,
}

pub const SUBJECT_ROLES: usize = 32;
pub const OBJECT_ROLES: usize = 32;
pub const ENVIRONMENT_ROLES: usize = 16;
pub const CHAIN_DEPTH: usize = 4;
pub const TRANSACTIONS: usize = 4;
pub const SUBJECTS: usize = 32;
pub const OBJECTS: usize = 32;
pub const DENY_FRACTION: f64 = 0.2;

/// Sensed evidence (§5.2): the identity claim sits below full
/// confidence and below the engine's permit threshold, the role claim
/// above it.
pub const IDENTITY_CONFIDENCE: f64 = 0.75;
pub const ROLE_CLAIM_CONFIDENCE: f64 = 0.98;
pub const MIN_CONFIDENCE: f64 = 0.9;

/// The subject role every churn rule names; declared during set-up and
/// held by no subject, so edits never change a decision.
pub const CHURN_ROLE: &str = "sr_churn";

/// Measurement windows per run; end-to-end figures are read off them at
/// [`WINDOW_RANK`] (see `load::summarize`).
pub const WINDOWS: usize = 100;
/// Where each end-to-end figure is read off the windows, or off the
/// set-up processes, ranked fastest first (see
/// `stats::WindowPercentile`): the third quartile. The host runs in a
/// common state with bursts about half again as fast over anywhere from
/// a tenth to a half of a run. The fast ranks and the median follow how
/// much of a run the bursts covered, and the third quartile stays in
/// the common state: over ten seeds read at rank 1/8, wire_small's
/// decide_p50_us spread by a fifth and wire_churn's edit p90 by more
/// than a quarter; at rank 3/4 the same wire_small figure spread 3%.
pub const WINDOW_RANK: f64 = 0.75;
/// A set-up process is timed, and a chunk of the edit probe runs, in
/// the pause before one window in this many (see `Report::set_setups`).
pub const CHUNK_EVERY: usize = 5;
/// Set-ups timed in each set-up process.
pub const SETUPS: usize = 3;

pub const ENGINE_4K: Shape = Shape {
    policies: 1,
    rules: 4096,
    load_threads: 1,
    requests_per_stream: 2048,
    active_env: 3,
    sensed_every: 4,
    edits_per_s: 0,
    probe_edits: 2_000,
    one_core: false,
};

pub const WIRE_SMALL: Shape = Shape {
    policies: 2,
    rules: 128,
    load_threads: 1,
    requests_per_stream: 4096,
    active_env: 3,
    sensed_every: 0,
    edits_per_s: 0,
    probe_edits: 2_000,
    one_core: true,
};

/// On one core: across both, the decide stream's two threads and the
/// edit stream's two needed both vCPUs, and whenever the host took one
/// away the figures followed its load. Over ten seeds in one busy
/// period decide_per_s spread by half its median, and the edit p90 of
/// one run reached 4.8 ms; on one core, repeated runs of one seed agreed
/// to within 3%.
pub const WIRE_CHURN: Shape = Shape {
    policies: 1,
    rules: 1024,
    load_threads: 1,
    requests_per_stream: 4096,
    active_env: 3,
    sensed_every: 0,
    edits_per_s: 1000,
    probe_edits: 0,
    one_core: true,
};

impl Shape {
    /// The synthetic policy for policy `index` under the run seed.
    pub fn policy(&self, seed: u64, index: usize) -> SyntheticConfig {
        SyntheticConfig {
            subject_roles: SUBJECT_ROLES,
            object_roles: OBJECT_ROLES,
            environment_roles: ENVIRONMENT_ROLES,
            chain_depth: CHAIN_DEPTH,
            rules: self.rules,
            deny_fraction: DENY_FRACTION,
            subjects: SUBJECTS,
            objects: OBJECTS,
            transactions: TRANSACTIONS,
            seed: policy_seed(seed, index),
        }
    }
}

/// Seed of policy `index`: distinct per policy, fixed by the run seed.
pub fn policy_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(index as u64)
}

/// Seed of request stream `stream` (a load thread's in-process, a
/// tenant's decide connection's on the wire).
pub fn stream_seed(seed: u64, stream: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(500 + stream as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn number(value: &Value) -> f64 {
        match value {
            Value::Int(n) => *n as f64,
            Value::UInt(n) => *n as f64,
            Value::Float(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    #[test]
    fn workloads_json_records_the_generator_parameters() {
        let doc: Value = serde_json::from_str(include_str!("../workloads.json")).unwrap();
        let workloads = doc.get("workloads").expect("workloads");
        for (name, shape) in [
            ("engine_4k", ENGINE_4K),
            ("wire_small", WIRE_SMALL),
            ("wire_churn", WIRE_CHURN),
        ] {
            let generator = workloads
                .get(name)
                .and_then(|w| w.get("generator"))
                .unwrap_or_else(|| panic!("{name} generator"));
            let expect = |key: &str, want: f64| {
                let got = number(generator.get(key).unwrap_or_else(|| panic!("{name}.{key}")));
                assert!((got - want).abs() < 1e-12, "{name}.{key}: {got} != {want}");
            };
            expect("policies", shape.policies as f64);
            expect("rules", shape.rules as f64);
            expect("load_threads", shape.load_threads as f64);
            expect("requests_per_stream", shape.requests_per_stream as f64);
            expect("active_env", shape.active_env as f64);
            expect("sensed_every", shape.sensed_every as f64);
            expect("edits_per_s", f64::from(shape.edits_per_s));
            expect("probe_edits", shape.probe_edits as f64);
            assert_eq!(
                generator.get("one_core"),
                Some(&Value::Bool(shape.one_core)),
                "{name}.one_core"
            );
            expect("subject_roles", SUBJECT_ROLES as f64);
            expect("object_roles", OBJECT_ROLES as f64);
            expect("environment_roles", ENVIRONMENT_ROLES as f64);
            expect("chain_depth", CHAIN_DEPTH as f64);
            expect("transactions", TRANSACTIONS as f64);
            expect("subjects", SUBJECTS as f64);
            expect("objects", OBJECTS as f64);
            expect("deny_fraction", DENY_FRACTION);
            if shape.sensed_every > 0 {
                expect("identity_confidence", IDENTITY_CONFIDENCE);
                expect("role_claim_confidence", ROLE_CLAIM_CONFIDENCE);
                expect("min_confidence", MIN_CONFIDENCE);
            }
        }
        let holdout = number(doc.get("holdout_seed").expect("holdout_seed"));
        assert!(holdout > 0.0);
    }

    #[test]
    fn seeds_differ_per_policy_and_stream() {
        assert_ne!(policy_seed(1, 0), policy_seed(1, 1));
        assert_ne!(policy_seed(1, 0), policy_seed(2, 0));
        assert_ne!(stream_seed(1, 0), stream_seed(1, 1));
        assert_ne!(stream_seed(1, 0), policy_seed(1, 0));
    }
}
