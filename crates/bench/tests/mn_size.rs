//! The multi-node exhibits (fig3, fig4, table1) run on the `--mn-size`
//! dataset, and the harness builds only the `--sizes` datasets. A sweep
//! that plans a cell on any other is a usage error before any cell runs:
//! exit 2, with a message naming both flags, and nothing on stdout.

use std::process::{Command, Output};

/// Run `paper_harness` with the space-separated arguments `line`.
fn paper_harness(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_harness"))
        .args(line.split(' '))
        .output()
        .expect("paper_harness runs")
}

#[test]
fn an_mn_size_outside_sizes_is_refused_before_any_cell_runs() {
    for line in [
        "fig4 --sizes small",
        "fig1 fig4 --sizes small --sim-only --threads 2",
        "all --sizes small --mn-size large",
        "table1 --sizes small,large",
        "coordinate fig3 --sizes small --listen 127.0.0.1:0",
    ] {
        let out = paper_harness(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(
            stderr.starts_with("paper_harness: --mn-size ") && stderr.contains("--sizes"),
            "{line}: {stderr}"
        );
        assert!(!stderr.contains("sweeping"), "{line}: a sweep started");
        assert!(out.stdout.is_empty(), "{line}: printed a figure");
    }
}

#[test]
fn an_mn_size_among_sizes_renders_the_figure() {
    let out =
        paper_harness("fig4 --sizes small --mn-size small --scale 0.012 --sim-only --threads 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 4"), "stdout: {stdout}");
}
