//! `s2fa_cli` rejects bad arguments at parse time: exit code 2, a
//! message on stderr, and never a panic.

use std::process::Command;

fn rejects(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_s2fa_cli"))
        .args(args)
        .output()
        .expect("s2fa_cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
}

#[test]
fn budget_must_be_positive_and_finite() {
    for budget in ["nan", "inf", "-5", "0"] {
        rejects(
            &["--kernel", "LR", "--budget", budget],
            "--budget must be positive and finite",
        );
    }
    rejects(
        &["profile", "--kernel", "LR", "--budget", "-1"],
        "--budget must be positive and finite",
    );
    rejects(&["--kernel", "LR", "--budget", "soon"], "bad --budget");
}

#[test]
fn profile_has_no_thread_sweep() {
    rejects(
        &["profile", "--kernel", "S-W", "--threads", "1,2,4,8"],
        "unknown argument `--threads`",
    );
}
