//! `compare` on synthetic runs, and the metric declarations the runs are
//! checked against.

use bddmin_perfbench::compare::{compare, judge, Verdict};
use bddmin_perfbench::config::{Declared, Sizes};
use bddmin_perfbench::trace::Tracer;

const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

fn scaled(by: f64) -> Vec<f64> {
    STEADY.iter().map(|v| v * by).collect()
}

#[test]
fn judge_applies_the_bound_and_the_nine_tenths_rule() {
    // Lower is better.
    assert_eq!(judge(&STEADY, &STEADY, false, 0.1), Verdict::Unchanged);
    assert_eq!(
        judge(&STEADY, &scaled(1.05), false, 0.1),
        Verdict::Unchanged
    );
    assert_eq!(judge(&STEADY, &scaled(1.3), false, 0.1), Verdict::Worse);
    assert_eq!(judge(&STEADY, &scaled(0.8), false, 0.1), Verdict::Better);
    // Higher is better: the same numbers mean the opposite.
    assert_eq!(judge(&STEADY, &scaled(0.8), true, 0.1), Verdict::Worse);
    assert_eq!(judge(&STEADY, &scaled(1.3), true, 0.1), Verdict::Better);
    // Four wins in five pairs is short of nine tenths.
    let mixed = [80.0, 80.0, 80.0, 80.0, 120.0];
    assert_eq!(judge(&STEADY, &mixed, false, 0.25), Verdict::Unchanged);
    // A gain inside the parent's own quartile distance is not a gain.
    let noisy_parent = [90.0, 95.0, 100.0, 105.0, 110.0];
    let slightly_better = [89.0, 94.0, 99.0, 104.0, 109.0];
    assert_eq!(
        judge(&noisy_parent, &slightly_better, false, 0.25),
        Verdict::Unchanged
    );
}

#[test]
fn a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate() {
    let wide = [50.0, 80.0, 100.0, 120.0, 150.0];
    assert_eq!(
        judge(&wide, &[60.0, 90.0, 100.0, 110.0, 140.0], false, 0.1),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&wide, &[10.0, 11.0, 12.0, 13.0, 14.0], false, 0.1),
        Verdict::Better
    );
    // A threefold slowdown of a noisy metric still regresses.
    assert_eq!(judge(&wide, &scaled(3.0), false, 0.1), Verdict::Worse);
    assert_eq!(judge(&wide, &scaled(0.3), true, 0.1), Verdict::Worse);
    // Every run slower, but the median within the bound: not shown worse.
    let just_above = [151.0, 152.0, 153.0, 154.0, 155.0];
    assert_eq!(judge(&wide, &just_above, false, 0.6), Verdict::Unresolved);
    // One overlapping run keeps it unresolved.
    let overlapping = [140.0, 300.0, 300.0, 300.0, 300.0];
    assert_eq!(judge(&wide, &overlapping, false, 0.1), Verdict::Unresolved);
    assert_eq!(
        judge(&wide[..1], &wide, false, 0.1),
        Verdict::Unresolved,
        "one run has no spread"
    );
}

fn line(workload: &str, ops: u64, failed: u64, ops_per_s: f64) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":1,\"commit\":\"x\",\"trace\":0,\"ops\":{ops},\
         \"failed\":{failed},\"metrics\":{{\"ops_per_s\":{{\"value\":{ops_per_s},\"unit\":\"1/s\"}}}}}}\n"
    )
}

#[test]
fn compare_exits_non_zero_on_a_regression_or_a_higher_failure_rate() {
    let declared = Declared::load().expect("BENCHMARK.json parses");
    let side = |failed: u64, by: f64| -> String {
        STEADY
            .iter()
            .map(|v| line("serve_burst", 1000, failed, v * by))
            .collect()
    };
    assert_eq!(compare(&side(0, 1.0), &side(0, 1.0), &declared), Ok(0));
    assert_eq!(
        compare(&side(0, 1.0), &side(0, 1.5), &declared),
        Ok(0),
        "faster is fine"
    );
    assert_eq!(
        compare(&side(0, 1.0), &side(0, 0.5), &declared),
        Ok(1),
        "slower regresses"
    );
    assert_eq!(
        compare(&side(0, 1.0), &side(1, 1.0), &declared),
        Ok(1),
        "more failures regress"
    );
    assert!(compare("not json", &side(0, 1.0), &declared).is_err());
}

#[test]
fn the_code_emits_exactly_the_declared_metrics() {
    let declared = Declared::load().expect("BENCHMARK.json parses");
    Sizes::load().expect("workloads.json parses");
    assert_eq!(
        declared.workloads,
        ["paper_table3", "equiv_check", "serve_burst", "serve_open"]
    );
    let mut per_layer: Vec<String> = Tracer::new(true).metrics().into_keys().collect();
    per_layer.extend(["op.wait_pct".into(), "trace.overhead_pct".into()]);
    per_layer.sort();
    let mut want: Vec<String> = declared.per_layer.iter().map(|m| m.name.clone()).collect();
    want.sort();
    assert_eq!(per_layer, want);
    let mut end_to_end: Vec<&str> = declared
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    end_to_end.sort_unstable();
    assert_eq!(
        end_to_end,
        [
            "latency_p50_ms",
            "latency_p99_ms",
            "ops_per_s",
            "peak_rss_mb",
            "setup_s"
        ]
    );
    assert!(declared
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}
