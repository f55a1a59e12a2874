//! Behaviour of the `glade` command-line tool as a pipeline member.

use std::process::{Command, Stdio};

/// `glade targets | head` must not panic when the reader is gone: the
/// listing ends quietly with success, as other Unix tools do.
#[test]
fn targets_listing_survives_a_closed_pipe() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // The reader closes before the listing starts, so every write fails
    // with a broken pipe.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_glade"))
        .arg("targets")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run glade targets");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.status.success(), "status {:?}, stderr: {stderr}", out.status);
}

/// With a reader that keeps the pipe open, the listing names every target.
#[test]
fn targets_listing_names_every_target() {
    let out = Command::new(env!("CARGO_BIN_EXE_glade")).arg("targets").output().expect("run");
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).expect("utf-8");
    for t in glade_repro::targets::programs::all_targets() {
        assert!(listing.lines().any(|l| l.starts_with(t.name())), "{} missing", t.name());
    }
}
