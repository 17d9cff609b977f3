//! `BENCH_trajectory.json` is the committed ledger of benchmark gains:
//! one row per claimed gain, each naming the commit, the workload and
//! seed, how many alternating parent/change pairs ran, how many the
//! change won, and the medians. These checks keep every row readable
//! and consistent with `BENCHMARK.json`, so the ledger can be charted
//! without hand repair.

use serde_json::Value;

fn load(name: &str) -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|err| panic!("{name}: {err}"))
}

fn field<'a>(object: &'a Value, name: &str) -> &'a Value {
    object
        .as_map()
        .and_then(|fields| fields.iter().find(|(key, _)| key == name))
        .map(|(_, value)| value)
        .unwrap_or_else(|| panic!("no `{name}` in {object:?}"))
}

fn unsigned(value: &Value) -> Option<u64> {
    match *value {
        Value::Int(n) => u64::try_from(n).ok(),
        Value::UInt(n) => Some(n),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::Int(n) => Some(n as f64),
        Value::UInt(n) => Some(n as f64),
        Value::Float(x) => Some(x),
        _ => None,
    }
}

/// The `name` of every entry of one of `BENCHMARK.json`'s lists.
fn names(benchmark: &Value, list: &str) -> Vec<String> {
    field(benchmark, list)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|entry| match field(entry, "name") {
            Value::Str(name) => name.clone(),
            other => panic!("a name, not {other:?}"),
        })
        .collect()
}

#[test]
fn every_row_parses_and_names_a_benchmark_workload() {
    let benchmark = load("BENCHMARK.json");
    let workloads = names(&benchmark, "workloads");
    let metrics = names(&benchmark, "end_to_end");
    let ledger = load("BENCH_trajectory.json");
    let rows = field(&ledger, "rows").as_seq().expect("rows is a list");
    assert!(!rows.is_empty(), "the ledger has rows");
    for row in rows {
        match field(row, "commit") {
            Value::Null => {}
            Value::Str(commit) => assert!(
                commit.len() >= 7 && commit.chars().all(|c| c.is_ascii_hexdigit()),
                "commit {commit:?} is an abbreviated hash"
            ),
            other => panic!("commit {other:?} is a hash or null"),
        }
        assert!(matches!(field(row, "change"), Value::Str(title) if !title.is_empty()));
        let Value::Str(workload) = field(row, "workload") else {
            panic!("workload of {row:?} is a string");
        };
        assert!(
            workloads.contains(workload),
            "{workload} is not in BENCHMARK.json"
        );
        let Value::Str(metric) = field(row, "metric") else {
            panic!("metric of {row:?} is a string");
        };
        assert!(
            metrics.contains(metric),
            "{metric} is not in BENCHMARK.json"
        );
        for name in ["seed", "run_seconds"] {
            assert!(unsigned(field(row, name)).is_some(), "{name} of {row:?}");
        }
        let pairs = unsigned(field(row, "pairs")).expect("pairs is a count");
        let wins = unsigned(field(row, "wins")).expect("wins is a count");
        assert!(pairs >= 1, "{row:?} ran no pairs");
        assert!(wins <= pairs, "{row:?} won more pairs than it ran");
        for name in ["parent_median", "change_median"] {
            let median = number(field(row, name)).unwrap_or_else(|| panic!("{name} of {row:?}"));
            assert!(median > 0.0, "{name} of {row:?}");
        }
        let iqr = field(row, "parent_iqr");
        assert!(
            matches!(iqr, Value::Null) || number(iqr).is_some_and(|iqr| iqr >= 0.0),
            "parent_iqr of {row:?} is a number or null"
        );
    }
}
