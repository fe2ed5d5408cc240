//! Process-level contract of the `redundancy` binary: exit code 0 with the
//! report on stdout for valid invocations, exit code 2 with an `error:`
//! line on stderr for invalid ones.

use std::process::Command;

fn redundancy(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn valid_faults_sweep_exits_zero() {
    let out = redundancy(&[
        "faults",
        "--tasks",
        "200",
        "--epsilon",
        "0.5",
        "--campaigns",
        "1",
        "--steps",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fault sweep"), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn drop_rate_above_one_exits_two() {
    let out = redundancy(&[
        "faults",
        "--tasks",
        "200",
        "--epsilon",
        "0.5",
        "--drop-rate",
        "1.5",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("--drop-rate"), "{stderr}");
}

#[test]
fn zero_timeout_exits_two() {
    let out = redundancy(&[
        "faults",
        "--tasks",
        "200",
        "--epsilon",
        "0.5",
        "--timeout",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--timeout"), "{stderr}");
}

#[test]
fn zero_chunk_size_exits_two_naming_the_flag() {
    let out = redundancy(&[
        "simulate",
        "--tasks",
        "200",
        "--epsilon",
        "0.5",
        "--chunk-size",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("--chunk-size"), "{stderr}");
}

/// `--campaigns 0` would print an estimate from no trials (and `faults`
/// a verdict on it); every Monte-Carlo command rejects it, naming the flag.
#[test]
fn zero_campaigns_exits_two_naming_the_flag() {
    for command in ["simulate", "faults", "churn"] {
        let out = redundancy(&[
            command,
            "--tasks",
            "200",
            "--epsilon",
            "0.5",
            "--campaigns",
            "0",
        ]);
        assert_eq!(out.status.code(), Some(2), "{command}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error:"), "{command}: {stderr}");
        assert!(stderr.contains("--campaigns"), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command} must not print a report");
    }
}

#[test]
fn unknown_command_exits_two() {
    let out = redundancy(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"), "{stderr}");
}

/// `--trials-scale 0` is rejected at the process level with exit code 2
/// and an error naming the flag, before any exhibit runs.
#[test]
fn trials_scale_zero_exits_2_naming_the_flag() {
    let args = ["repro", "appendix_a_collusion", "--trials-scale", "0"];
    let out = redundancy(&args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "redundancy {args:?} should exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trials-scale"),
        "redundancy stderr must name the flag: {stderr}"
    );
    assert!(out.stdout.is_empty(), "redundancy must not print a report");
}

/// `redundancy serve` flag validation at the process level: a bad shard
/// count or an out-of-range port exits with code 2 and an error naming
/// the flag, before any listener is bound or any session is built.
#[test]
fn serve_flag_validation_exits_2_naming_the_flag() {
    for (flag, value) in [("--shards", "0"), ("--port", "70000")] {
        let out = redundancy(&["serve", flag, value]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "serve {flag} {value} should exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "stderr must name the flag {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "must not print a report");
    }
}

/// Journal flag validation at the process level, matching the exit-code
/// convention above: a missing or unreadable journal path — and
/// `--recover` without a journal at all — exits 2 with an error naming
/// the flag, before any session is built; nothing is printed to stdout.
#[test]
fn journal_flag_validation_exits_2_naming_the_flag() {
    let missing = "/nonexistent/journal.bin";
    let cases: [(&[&str], &str); 4] = [
        (&["journal-inspect", "--journal", missing], "--journal"),
        (&["journal-inspect"], "--journal"),
        (
            &["serve", "--tasks", "100", "--journal", missing, "--recover"],
            "--journal",
        ),
        (&["serve", "--tasks", "100", "--recover"], "--recover"),
    ];
    for (args, flag) in cases {
        let out = redundancy(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "stderr must name the flag {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "must not print a report");
    }
}

/// `redundancy churn` flag validation at the process level: a bad flag
/// value exits with code 2 and an error naming the flag, matching the
/// established exit-code conventions.
#[test]
fn churn_flag_validation_exits_2_naming_the_flag() {
    for (flag, value) in [("--enter-rate", "-1"), ("--threads", "0")] {
        let out = redundancy(&["churn", flag, value]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "churn {flag} {value} should exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "stderr must name the flag {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "must not print a report");
    }
}
