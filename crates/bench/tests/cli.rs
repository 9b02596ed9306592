//! The `repro` command line rejects settings it cannot honour with a
//! message and exit status 2, before it generates anything.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn scale_outside_the_unit_interval_exits_2() {
    for bad in ["inf", "1e6", "1.5", "nan", "0", "-1", "-inf"] {
        let out = repro(&["--scale", bad, "table3"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--scale {bad}: {stderr}");
        assert!(stderr.contains("(0, 1]"), "--scale {bad}: {stderr}");
        assert!(out.stdout.is_empty(), "--scale {bad} ran an experiment");
    }
}

#[test]
fn scale_inside_the_unit_interval_runs() {
    for good in ["1", "1e-3"] {
        let out = repro(&["--scale", good, "table3"]);
        assert!(
            out.status.success(),
            "--scale {good}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("==== table3"));
    }
}
