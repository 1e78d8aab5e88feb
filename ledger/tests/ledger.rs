//! The ledger against `BENCHMARK.json`, and every workload run end to end
//! at a tiny size: checks pass, every declared metric is printed with its
//! unit, and the traced run records every layer's spans.

use rampage_json::Json;
use rampage_ledger::measure::{self, Options};
use rampage_ledger::report::{render, Metric, BENCHMARK_JSON, END_TO_END, PER_LAYER};
use rampage_ledger::workload::{Kind, Size};
use std::path::PathBuf;

fn declared(key: &str) -> Vec<Json> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .to_vec()
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_what_the_harness_measures() {
    let workloads: Vec<String> = declared("workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        workloads, known,
        "BENCHMARK.json lists the harness's workloads"
    );

    for (key, table, limit) in [
        ("end_to_end", &END_TO_END[..], 16),
        ("per_layer", &PER_LAYER[..], 128),
    ] {
        let entries = declared(key);
        assert!(
            !entries.is_empty() && entries.len() <= limit,
            "{key}: {}",
            entries.len()
        );
        let pairs: Vec<(&str, &str)> = entries
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(pairs, table, "{key} matches the harness, in order");
        for m in &entries {
            assert!(matches!(field(m, "better"), "higher" | "lower"), "{m:?}");
        }
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    assert!(
        names.iter().all(|n| valid_name(n)),
        "names match [A-Za-z0-9_.-]+"
    );
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );

    let bounds: Vec<(String, f64)> = declared("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
            (field(m, "name").to_string(), bound)
        })
        .collect();
    assert!(
        bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25),
        "{bounds:?}"
    );
    let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
    assert!(
        bounds.iter().any(|(n, b)| n == "setup_s" && *b == largest),
        "setup_s has the largest bound: {bounds:?}"
    );
}

/// Every metric of `table` appears as a `name value unit` line, and the
/// last line is the JSON summary naming exactly those metrics.
fn assert_prints(what: &str, text: &str, table: &[(&str, &str)]) {
    for (name, unit) in table {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{what}: {name} not printed:\n{text}"));
        let words: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(words.len(), 3, "{what}: {line}");
        assert!(
            words[1].parse::<f64>().is_ok_and(f64::is_finite),
            "{what}: {line}"
        );
        assert_eq!(words[2], *unit, "{what}: {line}");
    }
    let summary = Json::parse(text.lines().last().expect("output")).expect("JSON summary");
    assert_eq!(
        summary.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        summary.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        summary.get("attempted").and_then(Json::as_u64) >= Some(1),
        "{what}"
    );
    let metrics = summary
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = table.iter().map(|m| m.0).collect();
    assert_eq!(
        names, expected,
        "{what}: the summary holds exactly these metrics"
    );
}

fn positive(metrics: &[Metric], name: &str) -> bool {
    metrics.iter().any(|m| m.name == name && m.value > 0.0)
}

// One test runs every workload in turn: `solo_corpus` routes every
// source through its corpus for the whole process, so no other workload
// may build sources at the same time.
#[test]
fn every_workload_runs_checks_and_prints_every_metric() {
    for kind in Kind::ALL {
        let what = kind.name();
        let opts = Options {
            kind,
            seed: 7,
            seconds: 0.0,
            size: Size::Tiny,
            scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ledger-{what}")),
        };

        let run = measure::run(&opts).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(run.checks.correct(), "{what}: {:?}", run.checks.notes);
        assert_prints(
            what,
            &render(&run.checks, &run.metrics, &run.counts),
            &END_TO_END,
        );
        for (name, _) in END_TO_END {
            assert!(positive(&run.metrics, name), "{what}: {name} is never 0");
        }

        let traced = measure::trace(&opts).unwrap_or_else(|e| panic!("{what}: {e}"));
        let out = &traced.outcome;
        assert!(out.checks.correct(), "{what}: {:?}", out.checks.notes);
        assert_prints(
            what,
            &render(&out.checks, &out.metrics, &out.counts),
            &PER_LAYER,
        );
        assert!(positive(&out.metrics, "engine.ns_per_ref"), "{what}");
        assert!(
            traced.programs.is_none(),
            "only a full-size trace writes the table"
        );

        let spans = traced.tracer.spans();
        let mut layers = vec![
            "cell",
            "engine.new",
            "engine.run",
            "trace.fill",
            "runner.batch",
        ];
        if kind == Kind::SweepJournaled {
            layers.extend(["runner.save", "runner.resume"]);
        }
        for layer in layers {
            assert!(
                spans.iter().any(|s| s.name == layer),
                "{what}: no {layer} span"
            );
        }
        for (i, s) in spans.iter().enumerate() {
            assert!(
                s.end_ns >= s.start_ns,
                "{what}: span {i} ends before it starts"
            );
            if let Some(p) = s.parent {
                assert!(p < i, "{what}: span {i}'s parent comes first");
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        assert!(
            !opts.scratch.join("setup0").exists(),
            "{what}: scratch removed"
        );
    }
}
