//! Hostile expressions through the real `bddmin` binary. A stack
//! overflow aborts the whole process, which an in-process test cannot
//! observe, so these run the binary as a subprocess and check that it
//! exits with a parse error instead.

use std::process::Command;

fn bddmin_expr(function: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bddmin"))
        .args(["expr", "--vars", "a", "--care", "1", "--function", function])
        .output()
        .expect("bddmin must run")
}

#[test]
fn deeply_nested_parentheses_exit_with_a_parse_error() {
    let n = 30_000;
    let out = bddmin_expr(&format!("{}a{}", "(".repeat(n), ")".repeat(n)));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("nested deeper than"), "{stderr}");
}

#[test]
fn long_negation_run_minimizes() {
    let out = bddmin_expr(&format!("{}a", "!".repeat(100_000)));
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
