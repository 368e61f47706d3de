//! `bddmin-serve` — the minimization daemon.
//!
//! Reads JSON-lines jobs on stdin, writes one JSON result line per job
//! on stdout (in input order, each as soon as it and every earlier
//! result are ready), and a one-line run summary on stderr.
//! Exit status is 0 even when individual jobs fail — per-job failures
//! are part of the protocol — and 2 on argument errors.

use std::io::{self, BufReader, BufWriter};

use bddmin_serve::{process_stream, ServeOpts};

const USAGE: &str = "\
bddmin-serve — sharded, budget-governed BDD minimization service

USAGE:
  bddmin-job --demo 50 | bddmin-serve [--shards N] [--emit-shard]

OPTIONS:
  --shards N     worker threads, each owning its own BDD managers (default 1);
                 each job goes to the worker with the fewest jobs in hand
  --emit-shard   include the id of the shard that ran the job in result
                 lines (it depends on timing, so this breaks the
                 byte-identical-across-shard-counts contract; off by default)

One JSON job per stdin line; one JSON result line per job on stdout, in
input order, written and flushed as soon as it and every earlier result
are ready; summary on stderr. See DESIGN.md §14 for the job grammar.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ServeOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                let value = it.next().unwrap_or_else(|| {
                    eprintln!("--shards requires a count\n\n{USAGE}");
                    std::process::exit(2);
                });
                opts.shards = value.parse().unwrap_or_else(|_| {
                    eprintln!("bad --shards value {value:?}\n\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--emit-shard" => opts.emit_shard = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    // `StdinLock` is not `Send`, and the engine reads on a thread of its
    // own; stdout stays on this thread, flushed after every batch.
    let mut out = BufWriter::new(io::stdout().lock());
    match process_stream(BufReader::new(io::stdin()), &mut out, &opts) {
        Ok(summary) => eprintln!("{summary}"),
        Err(e) => {
            eprintln!("bddmin-serve: I/O error: {e}");
            std::process::exit(1);
        }
    }
}
