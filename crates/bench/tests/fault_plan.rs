//! `GENBASE_FAULTS` is the one way to install a fault plan, so a malformed
//! plan must stop `paper_harness` before it runs anything: exit 2 (a usage
//! error) with a message naming the variable.

use std::process::Command;

#[test]
fn a_malformed_fault_plan_is_a_usage_error_naming_the_variable() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_harness"))
        .args(["fig1", "--scale", "0.001"])
        .env("GENBASE_FAULTS", "worker.cell@2=explode")
        .output()
        .expect("paper_harness runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("paper_harness: GENBASE_FAULTS: "),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
}
