//! Shell-level gates for `scripts/ci.sh` argument handling.
//!
//! These run in tier-1 so a refactor of the CI driver can't silently
//! drop the stage-name validation or the `--list-stages` inventory.
//! Only the argument-handling paths run here — no stage bodies, so the
//! tests are fast and build nothing.

use std::path::PathBuf;
use std::process::Command;

fn ci_script() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts/ci.sh")
}

#[test]
fn unknown_stage_names_are_rejected_with_the_inventory() {
    let out = Command::new("bash")
        .arg(ci_script())
        .args(["--stage", "bogus"])
        .output()
        .expect("bash must be runnable");
    assert_eq!(out.status.code(), Some(2), "unknown stage must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown stage 'bogus'"),
        "stderr must name the bad stage: {stderr}"
    );
    // The rejection must list every valid stage, including the opt-in
    // one, so the error message doubles as documentation.
    for stage in [
        "build",
        "test",
        "lint",
        "invariance",
        "determinism",
        "fuzz-smoke",
        "degradation",
        "reorder",
        "image",
        "serve",
        "perf",
        "fuzz-deep",
    ] {
        assert!(
            stderr.contains(stage),
            "stage inventory missing {stage}: {stderr}"
        );
    }
}

#[test]
fn stage_flag_without_a_value_is_rejected() {
    let out = Command::new("bash")
        .arg(ci_script())
        .arg("--stage")
        .output()
        .expect("bash must be runnable");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--stage requires a name"), "{stderr}");
}

#[test]
fn list_stages_prints_the_full_inventory_and_exits_zero() {
    let out = Command::new("bash")
        .arg(ci_script())
        .arg("--list-stages")
        .output()
        .expect("bash must be runnable");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // Default stages first, in run order, then the opt-in extras
    // tagged as such.
    let expected_defaults = [
        "build",
        "test",
        "lint",
        "invariance",
        "determinism",
        "fuzz-smoke",
        "degradation",
        "reorder",
        "image",
        "serve",
        "perf",
    ];
    assert!(lines.len() > expected_defaults.len(), "{stdout}");
    for (line, want) in lines.iter().zip(expected_defaults) {
        assert_eq!(*line, want, "stage order changed: {stdout}");
    }
    assert!(
        lines.contains(&"fuzz-deep (opt-in)"),
        "fuzz-deep must be listed as opt-in: {stdout}"
    );
}

#[test]
fn unknown_arguments_are_rejected() {
    let out = Command::new("bash")
        .arg(ci_script())
        .arg("--frobnicate")
        .output()
        .expect("bash must be runnable");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "{stderr}");
}
