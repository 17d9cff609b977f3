//! Pins the inputs the repo benchmark (`perfbench/`) builds through this
//! crate, for the engine_4k and wire_small generator parameters
//! (`perfbench/workloads.json`) on seeds 1 and 7919: a digest of each
//! policy's rules and role assignments and of each request stream, with
//! the first request or decide line spelled out. The renderings walk
//! rules, subjects and objects in id order, so no hash map's iteration
//! order reaches them. A change to `synthetic_grbac`,
//! `SyntheticGrbac::requests` or `WireLoad::decide_lines` that moves a
//! single random draw changes every benchmark run, and fails here.

use std::fmt::{Display, Write};

use grbac_bench::fixtures::{synthetic_grbac, SyntheticConfig, SyntheticGrbac};
use grbac_bench::serveload::WireLoad;
use grbac_core::engine::{AccessRequest, Actor};

/// 64-bit FNV-1a.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// perfbench's policy `index` under run seed `seed` (`perfbench/src/shape.rs`).
fn policy(rules: usize, seed: u64, index: u64) -> SyntheticConfig {
    SyntheticConfig {
        subject_roles: 32,
        object_roles: 32,
        environment_roles: 16,
        chain_depth: 4,
        rules,
        deny_fraction: 0.2,
        subjects: 32,
        objects: 32,
        transactions: 4,
        seed: seed * 1_000 + index,
    }
}

/// perfbench's request stream `index` under run seed `seed`.
fn stream_seed(seed: u64, index: u64) -> u64 {
    seed * 1_000 + 500 + index
}

fn or_any(id: Option<impl Display>) -> String {
    id.map_or_else(|| "*".to_owned(), |id| id.to_string())
}

fn render_policy(system: &SyntheticGrbac) -> String {
    let mut out = String::new();
    for rule in system.engine.rules() {
        let env: Vec<String> = rule
            .environment_roles()
            .iter()
            .map(ToString::to_string)
            .collect();
        writeln!(
            out,
            "{} {} {} {} {} {} [{}]",
            rule.id(),
            rule.name().unwrap_or("-"),
            rule.effect(),
            or_any(rule.subject_role().role()),
            or_any(rule.object_role().role()),
            or_any(rule.transaction().transaction()),
            env.join(" ")
        )
        .unwrap();
    }
    let assignments = system.engine.assignments();
    for &s in &system.subjects {
        writeln!(out, "{s} {:?}", assignments.subject_roles(s)).unwrap();
    }
    for &o in &system.objects {
        writeln!(out, "{o} {:?}", assignments.object_roles(o)).unwrap();
    }
    out
}

fn render_request(request: &AccessRequest) -> String {
    let Actor::Subject(subject) = &request.actor else {
        panic!("fixture requests come from trusted subjects");
    };
    let env: Vec<String> = request
        .environment
        .active()
        .iter()
        .map(ToString::to_string)
        .collect();
    format!(
        "{subject} {} {} [{}]",
        request.transaction,
        request.object,
        env.join(" ")
    )
}

#[test]
fn engine_4k_policy_and_requests_are_pinned() {
    let pinned = [
        (
            1,
            0xaace_2949_b7dc_8cac_u64,
            0x3fe6_5ad4_ba30_7866_u64,
            "s31 t1 o2 [r67 r73 r74]",
        ),
        (
            7919,
            0x879f_ac8d_8c3c_12d1,
            0x6a85_2938_3a6c_ac0a,
            "s13 t0 o8 [r64 r68 r69]",
        ),
    ];
    for (seed, policy_digest, requests_digest, first) in pinned {
        let system = synthetic_grbac(&policy(4096, seed, 0));
        assert_eq!(system.engine.rules().len(), 4096);
        let requests: Vec<String> = system
            .requests(2048, 3, stream_seed(seed, 0))
            .iter()
            .map(render_request)
            .collect();
        assert_eq!(requests[0], first, "seed {seed}");
        assert_eq!(
            digest(&render_policy(&system)),
            policy_digest,
            "seed {seed}"
        );
        assert_eq!(digest(&requests.join("\n")), requests_digest, "seed {seed}");
    }
}

#[test]
fn wire_small_policies_and_decide_lines_are_pinned() {
    let pinned = [
        (
            1,
            [
                (
                    0xdad2_9c92_ee3f_2b31_u64,
                    0x7fe8_caa6_6efd_d1d7_u64,
                    r#"{"op":"decide","tenant":"t0","subject":"s_31","transaction":"t_1","object":"o_2","env":["er_10","er_3","er_9"]}"#,
                ),
                (
                    0x3f9f_8ce6_5c9f_4113,
                    0x09a4_fb34_b4ea_71fa,
                    r#"{"op":"decide","tenant":"t1","subject":"s_28","transaction":"t_2","object":"o_3","env":["er_5","er_1","er_8"]}"#,
                ),
            ],
        ),
        (
            7919,
            [
                (
                    0x28b3_f6a6_cb14_001f,
                    0x7e42_be1c_e0a2_8354,
                    r#"{"op":"decide","tenant":"t0","subject":"s_13","transaction":"t_0","object":"o_8","env":["er_5","er_0","er_4"]}"#,
                ),
                (
                    0x3461_846c_80f8_ca88,
                    0x9791_fe50_bcba_c744,
                    r#"{"op":"decide","tenant":"t1","subject":"s_25","transaction":"t_1","object":"o_1","env":["er_3","er_13","er_8"]}"#,
                ),
            ],
        ),
    ];
    for (seed, tenants) in pinned {
        for (index, (policy_digest, lines_digest, first)) in (0u64..).zip(tenants) {
            let system = synthetic_grbac(&policy(128, seed, index));
            let lines = WireLoad {
                tenant: format!("t{index}"),
                subjects: 32,
                objects: 32,
                transactions: 4,
                environment_roles: 16,
                active_env: 3,
                seed: stream_seed(seed, index),
            }
            .decide_lines(4096);
            assert_eq!(lines[0], first, "seed {seed} t{index}");
            assert_eq!(
                digest(&render_policy(&system)),
                policy_digest,
                "seed {seed} t{index}"
            );
            assert_eq!(
                digest(&lines.join("\n")),
                lines_digest,
                "seed {seed} t{index}"
            );
        }
    }
}
