//! Smoke-size self-test of the benchmark: every workload at tiny size,
//! traced, so every pass (measured, layer-by-layer, serve replay and TCP)
//! and every answer check runs, in seconds.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::collections::BTreeSet;

use perfbench::{run, Metric, Options, Scale, Workload, END_TO_END, PER_LAYER};

fn names(metrics: &[Metric]) -> BTreeSet<&'static str> {
    metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for workload in Workload::ALL {
        let out = run(&Options {
            workload,
            seed: 7,
            seconds: 0.3,
            trace: true,
            scale: Scale::Tiny,
        });
        let name = workload.name();
        assert!(out.correct(), "{name}: {:?}", out.failures);
        assert!(out.attempted > 2, "{name}: too few checked answers");
        assert_eq!(
            names(&out.end_to_end),
            END_TO_END.iter().map(|(n, _)| *n).collect(),
            "{name}: end-to-end metrics"
        );
        assert_eq!(
            names(&out.per_layer),
            PER_LAYER.iter().map(|(n, _)| *n).collect(),
            "{name}: per-layer metrics"
        );
        for m in out.end_to_end.iter().chain(&out.per_layer) {
            assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
        }
        for m in &out.end_to_end {
            assert!(m.value > 0.0, "{name}: end-to-end {} is 0", m.name);
        }
        assert!(out.spans_jsonl.lines().count() > out.attempted / 2);
    }
}
