//! `bench` writing into a pipe whose reader is gone ends quietly with
//! status 0, as under `bench paper fig1 | head -1`.

use std::process::Command;

#[test]
fn closed_stdout_ends_quietly() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["paper", "table2", "table2"])
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}
