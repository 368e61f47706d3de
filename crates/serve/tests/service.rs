//! Tier-1 gates for the service determinism and soundness contracts.
//!
//! Everything runs in-process through [`bddmin_serve::process_stream`] —
//! no subprocesses, so the suite is fast and failure output points at
//! engine state, not at a broken pipe. `daemon.rs` drives the binary.

use std::io::{self, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bddmin_serve::{demo_stream, json, process_stream, ServeOpts, ServeSummary};

fn run(input: &str, shards: usize) -> (String, ServeSummary) {
    let mut out = Vec::new();
    let summary = process_stream(
        input.as_bytes(),
        &mut out,
        &ServeOpts {
            shards,
            ..ServeOpts::default()
        },
    )
    .expect("in-memory I/O cannot fail");
    (String::from_utf8(out).expect("output is UTF-8"), summary)
}

/// Parses a result line back through the crate's own JSON module.
fn parsed(line: &str) -> json::Json {
    json::parse(line).unwrap_or_else(|e| panic!("unparsable result line {line:?}: {e}"))
}

fn field_u64(v: &json::Json, key: &str) -> u64 {
    v.get(key)
        .and_then(json::Json::as_u64)
        .unwrap_or_else(|| panic!("missing integer {key:?} in {v:?}"))
}

fn field_str<'a>(v: &'a json::Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(json::Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

#[test]
fn demo_stream_is_byte_identical_across_shard_counts() {
    let input = demo_stream(50);
    let (one, sum1) = run(&input, 1);
    let (four, sum4) = run(&input, 4);
    assert_eq!(one, four, "shard count leaked into the result stream");
    assert_eq!(sum1.jobs, 50);
    assert_eq!((sum1.ok, sum1.errors), (sum4.ok, sum4.errors));
    assert_eq!(sum1.cache_hits, sum4.cache_hits);
    assert!(sum1.cache_hits > 0, "demo stream must exercise the cache");
    // The acceptance-criteria mix: a malformed line and a non-injective
    // map both produce structured error lines; a budget-starved job
    // degrades; nothing panics the stream (process_stream returned).
    assert_eq!(sum1.errors, 2, "{one}");
    assert!(one.contains("malformed job"), "{one}");
    assert!(one.contains("not injective"), "{one}");
    assert!(one.contains("\"degraded\":true"), "{one}");
    // One result line per job, in input order.
    for (i, line) in one.lines().enumerate() {
        assert_eq!(field_u64(&parsed(line), "index"), i as u64);
    }
    assert_eq!(one.lines().count(), 50);
}

#[test]
fn the_golden_stream_gives_its_recorded_results() {
    // 61 seeded jobs of 8 to 14 variables (see tests/golden/README.md);
    // the expected lines pin every cover, size and report byte for byte.
    let input = include_str!("golden/stream.jsonl");
    let expected = include_str!("golden/expected.jsonl");
    for shards in [1, 2] {
        let (out, summary) = run(input, shards);
        assert_eq!((summary.jobs, summary.errors), (61, 0));
        for (i, (got, want)) in out.lines().zip(expected.lines()).enumerate() {
            assert_eq!(got, want, "line {i} at {shards} shards");
        }
        assert_eq!(out, expected, "at {shards} shards");
    }
}

#[test]
fn an_all_dont_care_job_is_answered() {
    // Every function covers an empty care set; the matchers, opt_lv and
    // the schedule answer with the constant 0 instead of panicking.
    let input = concat!(
        r#"{"spec":"dd","heuristic":"all"}"#,
        "\n",
        r#"{"spec":"dddd","heuristic":"osm_bt,opt_lv,sched","step_limit":5}"#,
        "\n",
    );
    let (out, summary) = run(input, 1);
    assert_eq!((summary.ok, summary.errors), (2, 0), "{out}");
    let lines: Vec<json::Json> = out.lines().map(parsed).collect();
    for line in &lines {
        assert_eq!(field_str(line, "status"), "ok");
        assert_eq!(field_u64(line, "min_size"), 1);
    }
    // `all` keeps the first of its equal-size results, f_orig's `1`.
    assert_eq!(field_str(&lines[0], "cover"), "1");
    assert_eq!(field_str(&lines[1], "cover"), "0");
    assert!(out.contains(r#""cover":"0","degraded":false"#), "{out}");
}

#[test]
fn cache_hits_pass_exact_confirmation_and_reuse_the_result() {
    // Same ISF + filter + budget twice, with a different ISF in between.
    let input = "\
{\"id\":\"first\",\"spec\":\"d1 01 1d 01\",\"heuristic\":\"osm_bt\"}\n\
{\"id\":\"other\",\"spec\":\"dd 01 10 11\",\"heuristic\":\"osm_bt\"}\n\
{\"id\":\"again\",\"spec\":\"d1 01 1d 01\",\"heuristic\":\"osm_bt\"}\n\
{\"id\":\"budgeted\",\"spec\":\"d1 01 1d 01\",\"heuristic\":\"osm_bt\",\"step_limit\":99}\n";
    let (out, summary) = run(input, 2);
    let lines: Vec<json::Json> = out.lines().map(parsed).collect();
    assert_eq!(field_str(&lines[0], "cache"), "miss");
    assert_eq!(field_str(&lines[1], "cache"), "miss");
    assert_eq!(field_str(&lines[2], "cache"), "hit");
    // A different budget is a different request: no hit.
    assert_eq!(field_str(&lines[3], "cache"), "miss");
    assert_eq!(summary.cache_hits, 1);
    assert_eq!(summary.sig_collisions, 0);
    // The hit reuses the seeding job's body verbatim.
    for key in ["f_size", "min_size"] {
        assert_eq!(field_u64(&lines[0], key), field_u64(&lines[2], key));
    }
    assert_eq!(field_str(&lines[0], "cover"), field_str(&lines[2], "cover"));
    // But echoes its own id and index.
    assert_eq!(field_str(&lines[2], "id"), "again");
    assert_eq!(field_u64(&lines[2], "index"), 2);
}

#[test]
fn budget_starved_stream_satisfies_the_budget_oracle() {
    // Every spec in the pool under a 1-step budget, all heuristics:
    // every run must degrade to a valid cover no larger than |f|.
    let specs = [
        "d1 01",
        "d1 01 1d 01",
        "01 1d d1 10",
        "01 10 d0 0d 11 1d 00 dd",
    ];
    let mut input = String::new();
    for spec in specs {
        input.push_str(&format!("{{\"spec\":\"{spec}\",\"step_limit\":1}}\n"));
    }
    let (out, summary) = run(&input, 3);
    assert_eq!(
        summary.errors, 0,
        "starvation must degrade, not fail: {out}"
    );
    assert_eq!(summary.ok, specs.len());
    let mut degraded = 0;
    for line in out.lines() {
        let v = parsed(line);
        assert_eq!(field_str(&v, "status"), "ok");
        let f_size = field_u64(&v, "f_size");
        assert!(
            field_u64(&v, "min_size") <= f_size,
            "oracle violated: {line}"
        );
        // Per-heuristic: every reported size obeys the clamp.
        for h in v.get("heuristics").and_then(json::Json::as_array).unwrap() {
            assert!(
                field_u64(h, "size") <= f_size,
                "budgeted result exceeds |f|: {line}"
            );
        }
        if line.contains("\"degraded\":true") {
            degraded += 1;
        }
    }
    assert!(degraded > 0, "a 1-step budget never bit: {out}");
}

#[test]
fn malicious_transfer_job_cannot_kill_the_worker() {
    // One shard, so the poisoned job and the follow-ups share a worker:
    // the bad variable map must produce a structured error line and the
    // worker must keep answering.
    let input = "\
{\"id\":\"evil\",\"spec\":\"d1 01 1d 01\",\"var_map\":[1,1,1]}\n\
{\"id\":\"after1\",\"spec\":\"d1 01\"}\n\
{\"id\":\"after2\",\"spec\":\"dd 01 10 11\",\"heuristic\":\"sched\"}\n";
    let (out, summary) = run(input, 1);
    let lines: Vec<json::Json> = out.lines().map(parsed).collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(field_str(&lines[0], "status"), "error");
    assert!(
        field_str(&lines[0], "error").contains("not injective"),
        "error must name the cause: {out}"
    );
    assert_eq!(field_str(&lines[1], "status"), "ok");
    assert_eq!(field_str(&lines[2], "status"), "ok");
    assert_eq!(summary.ok, 2);
    assert_eq!(summary.errors, 1);
    // An out-of-range map is the other structured transfer error.
    let (out, _) = run("{\"spec\":\"d1 01\",\"var_map\":[0,9]}\n", 1);
    assert!(out.contains("not declared"), "{out}");
    assert!(out.contains("\"status\":\"error\""), "{out}");
}

#[test]
fn emit_shard_is_opt_in_because_it_breaks_invariance() {
    // Two misses, so both lines come from a worker.
    let input = "{\"spec\":\"d1 01\"}\n{\"spec\":\"d1 01 1d 01\"}\n";
    let shards = 2;
    let mut out = Vec::new();
    process_stream(
        input.as_bytes(),
        &mut out,
        &ServeOpts {
            shards,
            emit_shard: true,
        },
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert_eq!(out.lines().count(), 2, "{out}");
    // The shard that ran a job depends on timing, so only its range is
    // fixed.
    for line in out.lines() {
        let shard = field_u64(&parsed(line), "shard");
        assert!(shard < shards as u64, "{line}");
    }
    let (plain, _) = run(input, shards);
    assert!(!plain.contains("\"shard\""), "{plain}");
}

/// A sink that keeps the bytes and reports every finished line.
struct SignallingWriter {
    bytes: Vec<u8>,
    lines: mpsc::Sender<()>,
}

impl Write for SignallingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            let _ = self.lines.send(());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An input that hands out its first line at once and withholds the
/// second until a result line has been written, as a client that waits
/// for its answer before it sends the next job.
struct WaitingClient {
    lines: [Option<&'static str>; 2],
    results: mpsc::Receiver<()>,
}

impl Read for WaitingClient {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let line = if let Some(line) = self.lines[0].take() {
            line
        } else if let Some(line) = self.lines[1].take() {
            self.results
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no result line within 10 s of the first job",
                    )
                })?;
            line
        } else {
            return Ok(0);
        };
        assert!(line.len() <= buf.len(), "the test lines fit one read");
        buf[..line.len()].copy_from_slice(line.as_bytes());
        Ok(line.len())
    }
}

#[test]
fn a_result_is_written_before_the_next_line_arrives() {
    let (tx, rx) = mpsc::channel();
    let client = WaitingClient {
        lines: [
            Some("{\"id\":\"first\",\"spec\":\"d1 01 1d 01\"}\n"),
            Some("{\"id\":\"second\",\"spec\":\"dd 01 10 11\"}\n"),
        ],
        results: rx,
    };
    let mut out = SignallingWriter {
        bytes: Vec::new(),
        lines: tx,
    };
    let summary = process_stream(
        BufReader::new(client),
        &mut out,
        &ServeOpts {
            shards: 2,
            ..ServeOpts::default()
        },
    )
    .expect("the first result must be written while the second line waits");
    assert_eq!((summary.jobs, summary.ok), (2, 2));
    let out = String::from_utf8(out.bytes).unwrap();
    let ids: Vec<String> = out
        .lines()
        .map(|line| field_str(&parsed(line), "id").to_owned())
        .collect();
    assert_eq!(ids, ["first", "second"]);
}

/// A sink whose every write fails.
struct BrokenSink;

impl Write for BrokenSink {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        Err(io::Error::new(io::ErrorKind::BrokenPipe, "sink closed"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An in-memory input that raises a flag when it is dropped, which the
/// reader thread does when it ends.
struct FlaggedInput {
    bytes: io::Cursor<String>,
    dropped: Arc<AtomicBool>,
}

impl Read for FlaggedInput {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.bytes.read(buf)
    }
}

impl Drop for FlaggedInput {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_write_error_ends_the_stream_without_hanging() {
    let dropped = Arc::new(AtomicBool::new(false));
    let input = FlaggedInput {
        bytes: io::Cursor::new(demo_stream(50)),
        dropped: Arc::clone(&dropped),
    };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let opts = ServeOpts {
            shards: 2,
            ..ServeOpts::default()
        };
        let _ = tx.send(process_stream(
            BufReader::new(input),
            &mut BrokenSink,
            &opts,
        ));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("process_stream hung after a write error");
    let err = result.expect_err("a failed write must fail the stream");
    assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    // The scope joined the reader (and the workers) before returning.
    assert!(dropped.load(Ordering::SeqCst), "the reader was not joined");
}
