//! The benchmark's own test: smoke mode runs every workload at a tiny
//! size, traced and untraced, with every correctness check.

use std::process::Command;

fn hostbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hostbench"))
}

#[test]
fn smoke_runs_every_workload_with_all_checks() {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hostbench-smoke");
    let out = hostbench()
        .arg("--smoke")
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("hostbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "three workloads, two modes:\n{stdout}");
    for line in &lines {
        assert!(line.contains("\"correct\": true"), "{line}");
    }
    // The mixed traffic carries one alias-launder fixture per round,
    // which the inspector signs a PASS for: one failed session per
    // round. The burst carries none.
    assert!(
        lines[0].starts_with("cold_distinct trace=0: ")
            && lines[0].contains("\"attempted\": 8, \"failed\": 1,")
    );
    assert!(
        lines[2].starts_with("warm_restart trace=0: ")
            && lines[2].contains("\"attempted\": 8, \"failed\": 1,")
    );
    assert!(
        lines[4].starts_with("same_binary_burst trace=0: ") && lines[4].contains("\"failed\": 0,")
    );
    for name in [
        "core.create_enclave_ms",
        "store.recover_ms",
        "trace.coverage",
        "serve.batches",
    ] {
        assert!(lines[5].contains(&format!("\"{name}\"")), "{name} missing");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--seed", "1"][..],
        &["--workload", "no_such_workload"],
        &["--workload", "cold_distinct", "--trace", "2"],
    ] {
        let out = hostbench().args(args).output().expect("hostbench starts");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
