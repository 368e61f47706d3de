//! `bddmin-job` — the client side of the service protocol.
//!
//! Builds well-formed job lines so shell pipelines don't have to
//! hand-quote JSON, and generates the deterministic demo stream the CI
//! stage and the docs use.

use std::fmt::Write as _;

use bddmin_serve::demo_stream;

const USAGE: &str = "\
bddmin-job — build JSON job lines for bddmin-serve

USAGE:
  bddmin-job --demo N
      Emit the deterministic N-job demo stream (spec jobs cycling over a
      fixed pool so repeats hit the result cache, plus one malformed
      line, one non-injective var_map job, one budget-starved job and
      one BLIF job).

  bddmin-job spec <LEAFSPEC> [--id ID] [--heuristic FILTER]
             [--step-limit N] [--node-limit N] [--time-limit MS]
      Emit one spec job line.

  bddmin-job blif <FILE> [--id ID] [--heuristic NAME] [BUDGET...]
      Emit one blif job line with the file contents embedded.
";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    match args.first().map(String::as_str) {
        Some("--demo") => {
            let n: usize = args
                .get(1)
                .unwrap_or_else(|| fail("--demo requires a job count"))
                .parse()
                .unwrap_or_else(|_| fail("bad --demo count"));
            print!("{}", demo_stream(n));
        }
        Some(kind @ ("spec" | "blif")) => {
            let payload = args
                .get(1)
                .unwrap_or_else(|| fail(&format!("{kind}: missing argument")));
            let payload = if kind == "blif" {
                std::fs::read_to_string(payload)
                    .unwrap_or_else(|e| fail(&format!("cannot read {payload:?}: {e}")))
            } else {
                payload.clone()
            };
            println!("{}", job_line(kind, &payload, &args[2..]));
        }
        _ => fail("expected --demo, spec or blif"),
    }
}

/// Renders one job object from the payload and the trailing flags.
fn job_line(kind: &str, payload: &str, flags: &[String]) -> String {
    let value_of = |flag: &str| -> Option<&String> {
        flags
            .iter()
            .position(|a| a == flag)
            .and_then(|i| flags.get(i + 1))
    };
    let mut line = String::from("{");
    if let Some(id) = value_of("--id") {
        let _ = write!(line, "\"id\":\"{}\",", bddmin_serve::json::escape(id));
    }
    let _ = write!(
        line,
        "\"{kind}\":\"{}\"",
        bddmin_serve::json::escape(payload)
    );
    if let Some(filter) = value_of("--heuristic") {
        let _ = write!(
            line,
            ",\"heuristic\":\"{}\"",
            bddmin_serve::json::escape(filter)
        );
    }
    for (flag, key) in [
        ("--step-limit", "step_limit"),
        ("--node-limit", "node_limit"),
        ("--time-limit", "time_limit_ms"),
    ] {
        if let Some(value) = value_of(flag) {
            let n: u64 = value
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad {flag} value {value:?}")));
            let _ = write!(line, ",\"{key}\":{n}");
        }
    }
    line.push('}');
    line
}
