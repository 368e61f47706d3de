//! The `bddmin-serve` binary as a client sees it: one job written, stdin
//! left open, and the answer read back before the client sends more.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn a_result_line_arrives_while_stdin_stays_open() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bddmin-serve"))
        .args(["--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("bddmin-serve starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line.expect("stdout is UTF-8")).is_err() {
                break;
            }
        }
    });
    writeln!(stdin, "{{\"id\":\"first\",\"spec\":\"d1 01 1d 01\"}}").unwrap();
    stdin.flush().unwrap();
    let line = match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(line) => line,
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            panic!("no result line within 10 s while stdin stayed open");
        }
    };
    assert!(
        line.starts_with("{\"index\":0,\"id\":\"first\",\"status\":\"ok\""),
        "{line}"
    );
    drop(stdin);
    let status = child.wait().expect("bddmin-serve exits");
    assert!(status.success(), "{status}");
    reader.join().expect("stdout reader ends at EOF");
    assert!(rx.try_recv().is_err(), "one job, one result line");
}
