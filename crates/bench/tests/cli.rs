//! `s2fa_cli` rejects bad arguments at parse time: exit code 2, a
//! message on stderr, and never a panic. `report` renders saved
//! profiles of either document version.

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
fn counts_must_be_at_least_one() {
    for sub in [&[][..], &["lint"], &["profile"], &["serve"]] {
        let args = [sub, &["--kernel", "S-W", "--tasks", "0"]].concat();
        rejects(&args, "--tasks needs at least 1");
    }
    rejects(
        &["--kernel", "LR", "--eval-threads", "0"],
        "--eval-threads needs at least 1",
    );
    rejects(
        &["profile", "--kernel", "LR", "--eval-threads", "0"],
        "--eval-threads needs at least 1",
    );
}

#[test]
fn profile_has_no_thread_sweep() {
    rejects(
        &["profile", "--kernel", "S-W", "--threads", "1,2,4,8"],
        "unknown argument `--threads`",
    );
}

#[test]
fn metrics_flag_is_gone() {
    rejects(
        &["--kernel", "KMeans", "--metrics", "x.json"],
        "unknown argument `--metrics`",
    );
}

/// Writes `doc` to a scratch file and runs `s2fa_cli report` on it.
fn report(file: &str, doc: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, doc).expect("profile written");
    let out = Command::new(env!("CARGO_BIN_EXE_s2fa_cli"))
        .args(["report", "--profile", path.to_str().unwrap()])
        .output()
        .expect("s2fa_cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

const SPAN_TREE: &str = r#"[{"children": [{"children": [], "count": 1, "name": "tune",
    "self_ns": 700, "total_ns": 700}], "count": 1, "name": "dse", "self_ns": 300,
    "total_ns": 1000}]"#;

#[test]
fn report_renders_a_version_3_profile() {
    let doc = format!(r#"{{"kernel": "S-W", "span_tree": {SPAN_TREE}, "version": 3}}"#);
    let text = report("profile_v3.json", &doc);
    assert!(text.starts_with("flight record: S-W\n"), "{text}");
    assert!(text.contains("- dse"), "{text}");
    assert!(text.contains("  - tune"), "{text}");
}

#[test]
fn report_still_renders_a_version_2_profile() {
    let doc = format!(
        r#"{{"kernel": "S-W", "metrics": {{"counters": {{"pool_jobs": 3}}, "gauges": {{}},
            "histograms": {{}}}}, "mode": "full", "span_tree": {SPAN_TREE}, "version": 2}}"#
    );
    let text = report("profile_v2.json", &doc);
    assert!(text.starts_with("flight record: S-W\n"), "{text}");
    assert!(text.contains("  - tune"), "{text}");
    assert!(
        !text.contains("pool_jobs"),
        "registry dumps are not rendered: {text}"
    );
}
