//! Pins the stdout of the result binaries that no figure grid covers:
//! each runs as a user would (`--quick` where it has it, no report files)
//! and its stdout's digest is checked against `golden/published.json`
//! (see the `golden` module).
//!
//! `corun` takes about 7 s in a debug build, so it runs only in release
//! builds, which CI runs with
//! `cargo test --release -p xmem-bench --test published_outputs`.

mod golden;

use std::process::Command;

/// Runs `bin` with `args` and checks its stdout's digest under the check
/// named after the binary.
fn check(name: &str, bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name} does not start: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    golden::verify(name, vec![("stdout".into(), golden::digest(&stdout))], true);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 7 s in a debug build; run with --release"
)]
fn corun() {
    check("corun", env!("CARGO_BIN_EXE_corun"), &["--quick"]);
}

#[test]
fn corun_placement() {
    let bin = env!("CARGO_BIN_EXE_corun_placement");
    check("corun_placement", bin, &["--quick"]);
}

#[test]
fn corun_shared() {
    let bin = env!("CARGO_BIN_EXE_corun_shared");
    check("corun_shared", bin, &["--quick", "--no-report"]);
}

#[test]
fn table1() {
    check("table1", env!("CARGO_BIN_EXE_table1"), &[]);
}

#[test]
fn hybrid() {
    check("hybrid", env!("CARGO_BIN_EXE_hybrid"), &[]);
}

#[test]
fn compression() {
    check("compression", env!("CARGO_BIN_EXE_compression"), &[]);
}

#[test]
fn overheads() {
    let bin = env!("CARGO_BIN_EXE_overheads");
    check("overheads", bin, &["--quick", "--no-report"]);
}
