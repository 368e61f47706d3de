//! Strict schema validator for the CI wall-clock artifact.
//!
//! `scripts/ci.sh` rewrites `ci_timings.json` after every stage:
//!
//! ```json
//! [
//!   {"stage": "build", "status": "ok", "ms": 41250},
//!   {"stage": "test", "status": "ok", "ms": 98012}
//! ]
//! ```
//!
//! The perf stage runs this binary against the artifact produced so
//! far, so a malformed writer breaks CI immediately instead of
//! silently producing garbage dashboards. Validation is deliberately
//! strict: top level must be an array of objects, each object must
//! carry exactly the keys `stage` (non-empty string, unique across the
//! file), `status` (`ok`, `fail`, or `skip`), and `ms` (non-negative
//! integer). No other JSON shapes are tolerated — the writer is ours,
//! so any deviation is a bug, not an interop concern.
//!
//! Usage: `check_timings <path>`; exit 0 when valid (prints a one-line
//! summary), exit 1 with a diagnostic otherwise.

use std::process::ExitCode;

use bddmin_core::json::{self, Json};

/// One validated entry.
struct Entry {
    stage: String,
    status: String,
    ms: u64,
}

/// Parses and validates the whole artifact.
fn validate(text: &str) -> Result<Vec<Entry>, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let items = root
        .as_array()
        .ok_or("top level must be an array of entries")?;
    let entries = items
        .iter()
        .enumerate()
        .map(|(i, item)| entry(item).map_err(|e| format!("entry {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut seen = std::collections::HashSet::new();
    for e in &entries {
        if !seen.insert(e.stage.as_str()) {
            return Err(format!("duplicate stage entry {:?}", e.stage));
        }
    }
    Ok(entries)
}

/// Validates one `{"stage": ..., "status": ..., "ms": ...}` object: keys
/// in any order (the parser rejects duplicates), all three present and
/// nothing else.
fn entry(item: &Json) -> Result<Entry, String> {
    let members = item.members().ok_or("expected an object")?;
    if let Some((key, _)) = members
        .iter()
        .find(|(k, _)| !["stage", "status", "ms"].contains(&k.as_str()))
    {
        return Err(format!("unexpected key {key:?}"));
    }
    let field = |key: &str| item.get(key).ok_or(format!("missing key {key:?}"));
    let stage = field("stage")?.as_str().ok_or("stage must be a string")?;
    if stage.is_empty() {
        return Err("empty stage name".to_string());
    }
    let status = field("status")?.as_str().ok_or("status must be a string")?;
    if !["ok", "fail", "skip"].contains(&status) {
        return Err(format!(
            "bad status {status:?} (expected ok, fail, or skip)"
        ));
    }
    let ms = field("ms")?
        .as_u64()
        .ok_or("ms must be a non-negative integer")?;
    Ok(Entry {
        stage: stage.to_owned(),
        status: status.to_owned(),
        ms,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: check_timings <ci_timings.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("check_timings: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&text) {
        Ok(entries) => {
            let total: u64 = entries.iter().map(|e| e.ms).sum();
            let ok = entries.iter().filter(|e| e.status == "ok").count();
            println!(
                "check_timings: {path} valid ({} stage(s), {ok} ok, {total} ms total)",
                entries.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check_timings: {path} INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_writer_format() {
        let text = "[\n  {\"stage\": \"build\", \"status\": \"ok\", \"ms\": 41250},\n  {\"stage\": \"test\", \"status\": \"fail\", \"ms\": 0}\n]\n";
        let entries = validate(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].stage, "build");
        assert_eq!(entries[1].status, "fail");
        assert_eq!(entries[0].ms, 41250);
    }

    #[test]
    fn accepts_an_empty_array() {
        assert!(validate("[]").unwrap().is_empty());
    }

    #[test]
    fn rejects_schema_violations() {
        for bad in [
            "",                                                                      // no array
            "{}",                                                    // wrong top level
            "[{\"stage\": \"a\", \"status\": \"ok\"}]",              // missing ms
            "[{\"stage\": \"a\", \"status\": \"meh\", \"ms\": 1}]",  // bad status
            "[{\"stage\": \"\", \"status\": \"ok\", \"ms\": 1}]",    // empty stage
            "[{\"stage\": \"a\", \"status\": \"ok\", \"ms\": -1}]",  // negative ms
            "[{\"stage\": \"a\", \"status\": \"ok\", \"ms\": 1.5}]", // float ms
            "[{\"stage\": \"a\", \"status\": \"ok\", \"ms\": 1, \"extra\": 2}]", // extra key
            "[{\"stage\": \"a\", \"stage\": \"b\", \"status\": \"ok\", \"ms\": 1}]", // dup key
            "[{\"stage\": \"a\", \"status\": \"ok\", \"ms\": 1}] trailing", // trailing junk
        ] {
            assert!(validate(bad).is_err(), "accepted invalid input: {bad:?}");
        }
        // Duplicate stage across entries.
        let dup = "[{\"stage\": \"a\", \"status\": \"ok\", \"ms\": 1}, {\"stage\": \"a\", \"status\": \"ok\", \"ms\": 2}]";
        assert!(validate(dup).is_err());
    }
}
