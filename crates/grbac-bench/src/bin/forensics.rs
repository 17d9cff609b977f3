//! Forensic console for the decision flight recorder: replays the E9
//! Aware Home workload, then queries, replays, and profiles what the
//! recorder captured.
//!
//! ```text
//! forensics [--days N] [--capacity N] [--top N] [--subject NAME] [--json]
//! ```
//!
//! Four reports, as aligned tables or (`--json`) one JSON document:
//!
//! 1. **Recorder state** — capacity, retention, drop count, and how
//!    many records carry stage timings.
//! 2. **Query** — record counts under the standard forensic filters
//!    (all / permits / denies / degraded / traced), plus an optional
//!    per-subject slice via `--subject`.
//! 3. **Replay** — every retained record re-decided through the
//!    reference path against the *current* policy (expected clean),
//!    then again after flipping one rule out of the policy (expected
//!    dirty): the injected-diff detection the subsystem exists for.
//! 4. **Slowest stages** — the top-N per-stage timings across all
//!    traced records.

use grbac_bench::args::Args;
use grbac_bench::fixtures::home_workload;
use grbac_bench::table::{self, Table};
use grbac_core::provenance::{replay_all, slowest_stages, ForensicQuery};
use grbac_core::rule::Effect;
use grbac_home::scenario::paper_household;
use grbac_home::workload::{execute, generate};

fn main() {
    let args = Args::from_env();
    let days: u32 = args.parsed("--days", 7);
    let capacity: usize = args.parsed("--capacity", 4096);
    let top: usize = args.parsed("--top", 10);
    let subject_name = args.value("--subject");
    let json = args.flag("--json");

    let mut home = paper_household().expect("paper household builds");
    home.engine_mut().set_flight_recorder_capacity(capacity);
    let events = generate(&home, &home_workload(days));
    let stats = execute(&mut home, &events).expect("replay succeeds");
    if !json {
        eprintln!(
            "mediated {} requests over {days} day(s): {} permits, {} denies",
            stats.requests, stats.permits, stats.denies
        );
    }

    let recorder = home.flight_recorder();
    let records = recorder.snapshot();
    let mut tables = Vec::new();

    // 1. Recorder state.
    let traced = records.iter().filter(|r| r.is_traced()).count();
    let mut state = Table::new(
        "Forensics: flight recorder state",
        &[
            "capacity",
            "retained",
            "total_recorded",
            "dropped",
            "traced",
        ],
    );
    state.row(&[
        recorder.capacity().to_string(),
        records.len().to_string(),
        recorder.total_recorded().to_string(),
        recorder.dropped().to_string(),
        traced.to_string(),
    ]);
    tables.push(state);

    // 2. Query under the standard filters.
    let mut query_table = Table::new(
        "Forensics: query results over retained records",
        &["query", "matches"],
    );
    let count = |q: &ForensicQuery| q.select(&records).len().to_string();
    query_table.row(&["all".into(), count(&ForensicQuery::any())]);
    let mut permits = ForensicQuery::any();
    permits.filter.effect = Some(Effect::Permit);
    query_table.row(&["effect=permit".into(), count(&permits)]);
    let mut denies = ForensicQuery::any();
    denies.filter.effect = Some(Effect::Deny);
    query_table.row(&["effect=deny".into(), count(&denies)]);
    let mut degraded = ForensicQuery::any();
    degraded.filter.degraded_only = true;
    query_table.row(&["degraded_only".into(), count(&degraded)]);
    let mut traced_q = ForensicQuery::any();
    traced_q.traced_only = true;
    query_table.row(&["traced_only".into(), count(&traced_q)]);
    if let Some(name) = subject_name {
        let person = home
            .person(name)
            .unwrap_or_else(|_| panic!("no resident named {name:?} in the paper household"));
        let mut by_subject = ForensicQuery::any();
        by_subject.filter.subject = Some(person.subject());
        query_table.row(&[format!("subject={name}"), count(&by_subject)]);
    }
    tables.push(query_table);

    // 3. Replay: unchanged policy, then with one rule flipped out.
    let mut replay_table = Table::new(
        "Forensics: replay against current policy",
        &[
            "policy",
            "replayed",
            "clean",
            "verdict_flips",
            "winner_changes",
            "rule_deltas",
            "unreplayable",
        ],
    );
    let mut replay_row = |label: &str, engine: &grbac_core::engine::Grbac| {
        let (reports, unreplayable) = replay_all(engine, &records, &ForensicQuery::any());
        let clean = reports.iter().filter(|r| r.diff.is_clean()).count();
        let flips = reports.iter().filter(|r| r.diff.verdict_flipped).count();
        let winners = reports.iter().filter(|r| r.diff.winner_changed).count();
        let deltas = reports
            .iter()
            .filter(|r| !r.diff.rules_added.is_empty() || !r.diff.rules_removed.is_empty())
            .count();
        replay_table.row(&[
            label.to_owned(),
            reports.len().to_string(),
            clean.to_string(),
            flips.to_string(),
            winners.to_string(),
            deltas.to_string(),
            unreplayable.to_string(),
        ]);
        flips
    };
    let unchanged_flips = replay_row("unchanged", &home.engine());
    assert_eq!(
        unchanged_flips, 0,
        "replay against the unchanged policy must reproduce every verdict"
    );
    // Flip out the busiest permit rule so the diff is visible.
    let flipped = home
        .engine()
        .rules()
        .iter()
        .find(|r| r.effect() == Effect::Permit)
        .map(grbac_core::rule::Rule::id)
        .expect("paper household has permit rules");
    home.engine_mut().remove_rule(flipped);
    replay_row("one permit rule removed", &home.engine());
    tables.push(replay_table);

    // 4. Slowest stages across traced records.
    let mut slow = Table::new(
        format!("Forensics: top-{top} slowest stage timings"),
        &["seq", "stage", "nanos"],
    );
    for sample in slowest_stages(&records, top) {
        slow.row(&[
            sample.seq.to_string(),
            sample.stage.name().to_owned(),
            sample.nanos.to_string(),
        ]);
    }
    tables.push(slow);

    table::print(&tables, json);
}
