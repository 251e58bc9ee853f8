//! Smoke test: every workload at a tiny size passes its output checks,
//! reports every metric with a unit, and agrees with `BENCHMARK.json`.

use pmp_benchmark::layers::PER_LAYER;
use pmp_benchmark::{result_json, run, Size, END_TO_END, WORKLOADS};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn every_workload_passes_and_reports_every_end_to_end_metric() {
    for &w in WORKLOADS {
        let r = run(w, 7, 0.0, false, Size::Tiny);
        assert!(r.correct, "{w}: {:#?}", r.report);
        assert!(r.attempted > 0, "{w}");
        assert_eq!(r.failed, 0, "{w}");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{w}");
        for (name, v, unit) in &r.metrics {
            assert!(valid_name(name) && valid_unit(unit), "{w}: {name} {unit}");
            assert!(v.is_finite() && *v > 0.0, "{w}: {name} = {v}");
        }
        let line = result_json(&r);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    for &w in WORKLOADS {
        let r = run(w, 7, 0.0, true, Size::Tiny);
        assert!(r.correct, "{w}: {:#?}", r.report);
        assert_eq!(r.metrics.len(), PER_LAYER.len(), "{w}");
        for ((name, v, unit), (want, want_unit, _)) in r.metrics.iter().zip(PER_LAYER) {
            assert_eq!((name, unit), (want, want_unit));
            assert!(valid_name(name) && valid_unit(unit), "{w}: {name} {unit}");
            assert!(v.is_finite() && *v >= 0.0, "{w}: {name} = {v}");
        }
        let spans = r.spans.expect("traced run keeps spans");
        assert!(spans.all().iter().any(|s| s.name == "pump"), "{w}");
        assert!(
            r.report.iter().any(|l| l.starts_with("tracing overhead")),
            "{w}"
        );
        assert!(r.telemetry.contains("\"type\":\"counter\""), "{w}");
    }
}

#[test]
fn seeds_change_inputs_not_shapes() {
    for w in ["hall_calls", "hall_churn"] {
        let a = run(w, 7, 0.0, false, Size::Tiny);
        let b = run(w, 8, 0.0, false, Size::Tiny);
        assert!(a.correct && b.correct, "{w}");
        assert_eq!(a.attempted, b.attempted, "{w}: same shape");
        assert_ne!(a.digests, b.digests, "{w}: another seed, other inputs");
        assert_eq!(
            a.digests,
            run(w, 7, 0.0, false, Size::Tiny).digests,
            "{w}: same seed, same run"
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let flat: String = json.split_whitespace().collect();
    let gated: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| flat.contains(&format!("{{\"name\":\"{w}\",\"why\":")))
        .collect();
    assert_eq!(gated, ["hall_calls", "hall_churn"]);
    for &(name, unit) in END_TO_END {
        assert!(
            flat.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",")),
            "{name}"
        );
    }
    for &(name, unit, _) in PER_LAYER {
        assert!(
            flat.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",")),
            "{name}"
        );
    }
    let listed = flat.matches("{\"name\":").count();
    assert_eq!(
        listed,
        gated.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names only known workloads and metrics"
    );
}
