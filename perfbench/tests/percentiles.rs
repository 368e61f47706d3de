//! The order statistics behind the latency metrics and `compare`.

use bddmin_perfbench::config::Sizes;
use bddmin_perfbench::serve::ServeWorkload;
use bddmin_perfbench::stats::{
    median, percentile, quartiles, rank, samples_beyond, MIN_SAMPLES_BEYOND,
};

#[test]
fn nearest_rank_percentiles() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 50), 50.0);
    assert_eq!(percentile(&hundred, 99), 99.0);
    assert_eq!(percentile(&hundred, 100), 100.0);
    // The smallest sample with at least p% at or below it.
    assert_eq!(percentile(&[3.0, 7.0, 9.0], 50), 7.0);
    assert_eq!(percentile(&[3.0, 7.0, 9.0], 34), 7.0);
    assert_eq!(percentile(&[3.0, 7.0, 9.0], 33), 3.0);
    assert_eq!(rank(1, 99), 1);
    assert_eq!(rank(7, 0), 1, "ranks start at 1");
}

#[test]
fn a_p99_needs_a_thousand_samples_for_ten_beyond() {
    assert_eq!(samples_beyond(1000, 99), MIN_SAMPLES_BEYOND);
    assert_eq!(samples_beyond(999, 99), MIN_SAMPLES_BEYOND - 1);
    assert_eq!(samples_beyond(2400, 99), 24);
    assert_eq!(samples_beyond(100, 50), 50);
    // The open loop refuses streams whose p99 would rest on fewer.
    let mix = Sizes::load().expect("workloads.json parses").open_mix;
    assert!(ServeWorkload::open(&mix, 999, 200.0, 1.0, 1).is_err());
    assert!(ServeWorkload::open(&mix, 1000, 200.0, 1.0, 1).is_ok());
}

#[test]
fn median_and_quartiles_match_pythons_statistics_module() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
}
