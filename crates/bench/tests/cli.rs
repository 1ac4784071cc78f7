//! Command-line behaviour of the `figures` binary: bad input is a usage
//! error with exit code 2, an unusable output directory an error with exit
//! code 1, never a panic, and either stops the run before any mode runs. A
//! run without `--out` writes nothing to disk.

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

#[test]
fn an_unknown_mode_stops_the_run_before_any_mode_runs() {
    let out = figures(&["fig3", "nosuch", "--bench-scale"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: nosuch"), "{stderr}");
    assert!(!stderr.contains("# fig3:"), "fig3 ran before the error: {stderr}");
    assert!(out.stdout.is_empty(), "no rows before the usage error");
}

#[test]
fn an_uncreatable_out_directory_is_an_error() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-cli-not-a-dir");
    std::fs::write(&file, "").expect("write a plain file");
    let dir = file.join("out");
    let out = figures(&["fig3", "--bench-scale", "--out", dir.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot create output directory"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("# fig3:"), "fig3 ran before the error: {stderr}");
    assert!(out.stdout.is_empty(), "no rows before the error");
}

#[test]
fn a_run_without_out_leaves_the_current_directory_empty() {
    let cwd = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-cli-empty-cwd");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create an empty directory");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig5", "--bench-scale"])
        .env("CAGVT_SWEEP_THREADS", "1")
        .current_dir(&cwd)
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!out.stdout.is_empty(), "rows go to stdout");
    let left: Vec<_> = std::fs::read_dir(&cwd).expect("read the directory").collect();
    assert!(left.is_empty(), "figures wrote files into its working directory: {left:?}");
}
