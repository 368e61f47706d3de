//! Latency accounting of the open loop: the reader's schedule, the
//! writer's stamps, and the latency they give, on a 20-job stream through
//! the real service.

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

use bddmin_perfbench::config::JobMix;
use bddmin_perfbench::serve::{
    check_results, cover_agrees, generate_jobs, latencies_ms, poisson_schedule, PacedReader,
    StampedWriter,
};
use bddmin_serve::{process_stream, ServeOpts};

fn mix(repeat_share: f64) -> JobMix {
    JobMix {
        vars: (3, 5),
        filters: vec!["osm_bt".into(), "restr".into()],
        repeat_share,
    }
}

#[test]
fn twenty_job_stream_is_paced_stamped_and_timed_from_the_due_time() {
    let jobs = generate_jobs(&mix(0.3), 20, 7);
    let rate = 2000.0;
    let schedule: Vec<Duration> = (0..20)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    let mut reader = PacedReader::new(&jobs, start, Some(&schedule));
    let mut out = StampedWriter::default();
    let summary =
        process_stream(&mut reader, &mut out, &ServeOpts::default()).expect("in-memory io");
    assert_eq!(summary.jobs, 20);
    assert_eq!(check_results(&jobs, &out.bytes, "test"), 0);
    assert_eq!(summary.cache_hits, jobs.iter().filter(|j| j.repeat).count());

    assert_eq!(reader.released.len(), 20);
    assert_eq!(out.stamps.len(), 20);
    for i in 0..20 {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        assert_eq!(reader.due(i), due);
        assert!(reader.released[i] >= due, "line {i} released early");
        assert!(i == 0 || reader.released[i] >= reader.released[i - 1]);
    }
    let due: Vec<Instant> = (0..20).map(|i| reader.due(i)).collect();
    let latencies = latencies_ms(&due, &out.stamps);
    for (i, &ms) in latencies.iter().enumerate() {
        let want = (out.stamps[i] - due[i]).as_secs_f64() * 1e3;
        assert_eq!(ms, want, "job {i}");
        // A result cannot be written before its line was released.
        assert!(out.stamps[i] >= reader.released[i]);
    }
}

#[test]
fn a_burst_is_due_when_released_and_the_writer_stamps_whole_lines() {
    let jobs = generate_jobs(&mix(0.0), 3, 1);
    let mut reader = PacedReader::new(&jobs, Instant::now(), None);
    let mut line = String::new();
    while reader.read_line(&mut line).expect("in-memory io") > 0 {}
    assert_eq!(line.lines().count(), 3);
    assert_eq!(reader.due(2), reader.released[2]);

    let mut w = StampedWriter::default();
    w.write_all(b"{\"a\":").unwrap();
    w.write_all(b"1}\n{\"b\":2}\n{").unwrap();
    assert_eq!(w.stamps.len(), 2, "one stamp per finished line");
    let t = Instant::now();
    assert_eq!(
        latencies_ms(&[t], &[t + Duration::from_millis(3)]),
        vec![3.0]
    );
}

#[test]
fn open_loop_arrivals_are_a_seeded_poisson_process() {
    let schedule = poisson_schedule(4000, 200.0, 9);
    assert_eq!(schedule, poisson_schedule(4000, 200.0, 9));
    assert_ne!(schedule, poisson_schedule(4000, 200.0, 10));
    assert_eq!(schedule[0], Duration::ZERO);
    assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
    // 3999 gaps of mean 5 ms: about 20 s, within a few percent.
    let span = schedule[3999].as_secs_f64();
    assert!((19.0..21.0).contains(&span), "{span} s");
}

#[test]
fn generated_streams_repeat_exactly_and_covers_are_checked_on_care_leaves() {
    let jobs = generate_jobs(&mix(0.5), 200, 3);
    let repeats = jobs.iter().filter(|j| j.repeat).count();
    assert!((60..=140).contains(&repeats), "{repeats} repeats");
    let again = generate_jobs(&mix(0.5), 200, 3);
    assert!(
        jobs.iter().zip(&again).all(|(a, b)| a.line == b.line),
        "same seed, same stream"
    );

    // Leaves left to right: x1 x2 = 00, 01, 10, 11.
    let leaves = [Some(false), None, Some(true), Some(true)];
    assert!(cover_agrees("x1", &leaves));
    assert!(
        cover_agrees("x1 + ¬x1·x2", &leaves),
        "the don't care may be covered"
    );
    assert!(!cover_agrees("x2", &leaves));
    assert!(!cover_agrees("0", &leaves));
    assert!(cover_agrees("1", &[Some(true), None]));
    assert!(
        !cover_agrees("x3", &leaves),
        "unknown variables are rejected"
    );
}
