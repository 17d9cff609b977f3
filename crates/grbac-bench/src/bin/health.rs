//! Policy health console: replays the E9 Aware Home workload with an
//! injected dead-in-practice rule and a mid-run fault onset, then
//! renders what the heat table, the health report, and the watchdog
//! alert log saw.
//!
//! ```text
//! health [--days N] [--top N] [--error-rate R] [--json]
//! ```
//!
//! Four reports, as aligned tables or (`--json`) one JSON document:
//!
//! 1. **Heat table** — the top-N rules by matched decisions, with the
//!    permit/deny win split and each rule's last-fired generation.
//! 2. **Health report** — the static/runtime join: rule count, health
//!    score, statically-flagged rules, dead-in-practice rules (always
//!    including the injected one), heat-confirmed shadowing, drift.
//! 3. **Role usage** — per declared role, how many rules reference it
//!    and how much traffic those rules matched.
//! 4. **Alert log** — every watchdog alert the run raised, with its
//!    observed rate, learned baseline, and severity.

use grbac_bench::args::Args;
use grbac_bench::fixtures::{fault_onset_replay, home_workload, inject_dead_rule};
use grbac_bench::table::{self, Table};
use grbac_core::analysis::health_report;
use grbac_env::fault::{FaultPlan, FaultRates};
use grbac_home::scenario::paper_household;
use grbac_home::workload::generate;

fn main() {
    let args = Args::from_env();
    let days: u32 = args.parsed("--days", 7);
    let top: usize = args.parsed("--top", 10);
    let error_rate: f64 = args.parsed("--error-rate", 0.1);
    let json = args.flag("--json");

    let mut home = paper_household().expect("paper household builds");
    let injected = inject_dead_rule(&mut home);

    // The same replay as experiment E13: fail-closed, watchdog ticking
    // every 100 events, fault onset at the halfway mark.
    let events = generate(&home, &home_workload(days));
    let plan = FaultPlan::random(FaultRates::errors_only(error_rate), 4110);
    let replay = fault_onset_replay(&mut home, &events, plan);
    if !json {
        eprintln!(
            "mediated {} requests over {days} day(s): {} permits, {} denies; \
             fault layer (error rate {error_rate}) from event {}",
            replay.requests,
            replay.permits,
            replay.requests - replay.permits,
            replay.onset
        );
    }

    let report = health_report(&home.engine());
    let mut tables = Vec::new();

    // 1. Heat table: hottest rules first.
    let mut heat = Table::new(
        format!("Health: top-{top} rules by heat"),
        &[
            "rule",
            "label",
            "effect",
            "matched",
            "won_permit",
            "won_deny",
            "last_fired_gen",
        ],
    );
    let mut traffic = report.traffic.clone();
    traffic.sort_by(|a, b| b.matched.cmp(&a.matched).then(a.rule.cmp(&b.rule)));
    for entry in traffic.iter().take(top) {
        heat.row(&[
            entry.rule.to_string(),
            entry.label.clone(),
            format!("{:?}", entry.effect),
            entry.matched.to_string(),
            entry.won_permit.to_string(),
            entry.won_deny.to_string(),
            entry
                .last_fired_generation
                .map_or_else(|| "-".to_owned(), |g| g.to_string()),
        ]);
    }
    tables.push(heat);

    // 2. The health report's verdict.
    let mut verdict = Table::new(
        "Health: static/runtime policy health report",
        &["metric", "value"],
    );
    verdict.row(&["generation".into(), report.generation.to_string()]);
    verdict.row(&["decisions".into(), report.decisions.to_string()]);
    verdict.row(&["rules".into(), report.traffic.len().to_string()]);
    verdict.row(&["health_score".into(), format!("{:.3}", report.score())]);
    verdict.row(&["is_healthy".into(), report.is_healthy().to_string()]);
    verdict.row(&[
        "static_conflicts".into(),
        report.static_report.conflicts.len().to_string(),
    ]);
    verdict.row(&[
        "static_shadowed".into(),
        report.static_report.shadowed.len().to_string(),
    ]);
    verdict.row(&[
        "static_memberless".into(),
        report.static_report.memberless_rules.len().to_string(),
    ]);
    verdict.row(&[
        "dead_in_practice".into(),
        report
            .dead_in_practice
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    verdict.row(&[
        "injected_dead_rule_flagged".into(),
        report.dead_in_practice.contains(&injected).to_string(),
    ]);
    verdict.row(&[
        "heat_confirmed_shadowed".into(),
        report.heat_confirmed_shadowed.len().to_string(),
    ]);
    verdict.row(&["drifted".into(), report.drifted.len().to_string()]);
    tables.push(verdict);

    // 3. Role usage analytics.
    let mut roles = Table::new(
        "Health: per-role traffic",
        &["role", "name", "kind", "referencing_rules", "matched"],
    );
    for usage in &report.role_usage {
        roles.row(&[
            usage.role.to_string(),
            usage.name.clone(),
            format!("{:?}", usage.kind),
            usage.referencing_rules.to_string(),
            usage.matched.to_string(),
        ]);
    }
    tables.push(roles);

    // 4. The watchdog's alert log.
    let mut alerts = Table::new(
        "Health: watchdog alert log",
        &[
            "seq", "tick", "kind", "observed", "baseline", "window", "severity",
        ],
    );
    home.with_watchdog(|watchdog| {
        for alert in watchdog.alerts() {
            alerts.row(&[
                alert.seq.to_string(),
                alert.tick.to_string(),
                alert.kind.name().to_owned(),
                format!("{:.4}", alert.observed),
                format!("{:.4}", alert.baseline),
                alert.window.to_string(),
                format!("{:.1}", alert.severity(watchdog.config())),
            ]);
        }
    })
    .expect("installed above");
    tables.push(alerts);

    table::print(&tables, json);
}
