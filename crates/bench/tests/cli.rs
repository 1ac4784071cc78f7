//! Command-line errors of the `figures` binary: bad input is a usage error
//! with exit code 2, never a panic.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("run figures")
}

#[test]
fn out_without_a_directory_is_a_usage_error() {
    let out = figures(&["fig3", "--bench-scale", "--out"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out needs a directory"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "no rows before the usage error");
}

#[test]
fn unknown_mode_lists_the_modes() {
    let out = figures(&["no-such-mode"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: no-such-mode"), "{stderr}");
    assert!(stderr.contains("fig3") && stderr.contains("health"), "{stderr}");
}
