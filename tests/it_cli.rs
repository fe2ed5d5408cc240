//! Integration: the `redundancy` CLI drives the whole stack end to end.

use redundancy_cli::run;

fn cli(parts: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    run(&argv)
}

#[test]
fn plan_analyze_simulate_pipeline() {
    // Plan a computation, analyze it, and simulate it — the three commands
    // must tell a consistent story at eps = 0.75.
    let plan = cli(&["plan", "--tasks", "100000", "--epsilon", "0.75"]).unwrap();
    assert!(plan.contains("factor 1.84"), "{plan}");
    let analyze = cli(&[
        "analyze",
        "--tasks",
        "100000",
        "--epsilon",
        "0.75",
        "--proportion",
        "0.1",
    ])
    .unwrap();
    // Proposition 3 at p = 0.1: 1 - 0.25^0.9 ≈ 0.7128.
    assert!(analyze.contains("0.7129"), "{analyze}");
    let simulate = cli(&[
        "simulate",
        "--tasks",
        "20000",
        "--epsilon",
        "0.75",
        "--proportion",
        "0.1",
        "--campaigns",
        "10",
        "--seed",
        "42",
    ])
    .unwrap();
    // The simulated k = 1 rate appears and is near 0.71.
    let line = simulate
        .lines()
        .find(|l| l.trim_start().starts_with('1') && l.contains('['))
        .expect("k = 1 row present");
    assert!(line.contains("0.7"), "{line}");
}

#[test]
fn simulate_output_is_pinned_byte_for_byte() {
    // The default bit-compat campaign kernel must replay the seed's draws
    // exactly: these bytes were recorded before threshold-count binning
    // and group-once experiments replaced the per-draw loop.
    let out = cli(&[
        "simulate",
        "--tasks",
        "100000",
        "--epsilon",
        "0.5",
        "--proportion",
        "0.1",
        "--threads",
        "2",
        "--campaigns",
        "20",
        "--seed",
        "1",
    ])
    .unwrap();
    let expected = "\
simulated 20 campaigns of balanced (100,000 tasks each, adversary share 0.1, seed 1)
k  attacks  detected    rate            95% CI
----------------------------------------------
1   258772    120184  0.4644  [0.4625, 0.4664]
2     8900      4117  0.4626  [0.4522, 0.4730]
3      226       113  0.5000  [0.4354, 0.5646]
4        5         4  0.8000  [0.3755, 0.9638]
wrong results accepted: 143485; false flags: 0
";
    assert_eq!(out, expected);
}

#[test]
fn errors_propagate_as_messages() {
    let err = cli(&["plan", "--tasks", "0", "--epsilon", "0.5"]).unwrap_err();
    assert!(err.contains("task"), "{err}");
    let err2 = cli(&["nonsense"]).unwrap_err();
    assert!(err2.contains("unknown command"), "{err2}");
}

#[test]
fn help_is_always_available() {
    let out = cli(&["help"]).unwrap();
    assert!(out.contains("USAGE"));
    let out2 = cli(&["help", "solve-sm"]).unwrap();
    assert!(out2.contains("--min-precompute"));
    let out3 = cli(&["help", "faults"]).unwrap();
    assert!(out3.contains("--drop-rate"), "{out3}");
    let out4 = cli(&["help", "churn"]).unwrap();
    assert!(out4.contains("--leave-rate"), "{out4}");
    assert!(out4.contains("--soak"), "{out4}");
    let out5 = cli(&["help", "serve"]).unwrap();
    assert!(out5.contains("--stdio"), "{out5}");
    assert!(out5.contains("--shards"), "{out5}");
    assert!(out5.contains("--clients"), "{out5}");
}

#[test]
fn faults_table_snapshot() {
    // Full-output snapshot: the sweep is deterministic for a fixed seed
    // and independent of worker thread count, so the rendered table is
    // stable byte for byte.
    let out = cli(&[
        "faults",
        "--tasks",
        "500",
        "--epsilon",
        "0.5",
        "--proportion",
        "0.2",
        "--campaigns",
        "2",
        "--seed",
        "3",
        "--drop-rate",
        "0.4",
        "--steps",
        "2",
        "--retries",
        "1",
    ])
    .unwrap();
    let expected = "\
fault sweep: balanced over 500 tasks, 2 campaigns/row, adversary share 0.2, seed 3
timeout 8 ticks, 1 retries, straggler rate 0 (mean delay 4)
closed-form detection with lossless delivery: 0.4257
drop rate  detection            95% CI  delivered  eff. mult  retries  unresolved
---------------------------------------------------------------------------------
0.00          0.4038  [0.3460, 0.4645]     1.0000      1.405        0           0
0.20          0.4093  [0.3511, 0.4701]     0.9638      1.354      291          24
0.40          0.3932  [0.3328, 0.4570]     0.8409      1.182      536         118
(detection below the closed form means fault pressure ate into the guarantee; \
raise --retries or the timeout to recover it)
";
    assert_eq!(out, expected);
}

#[test]
fn churn_table_snapshot() {
    // Full-output snapshot: the churn sweep is deterministic for a fixed
    // seed and independent of worker thread count, so the rendered table
    // is stable byte for byte.  Row 0 is the static pool and matches the
    // faults snapshot's zero-fault detection on the same seed exactly —
    // both degenerate to the same batched kernel draws.
    let out = cli(&[
        "churn",
        "--tasks",
        "500",
        "--epsilon",
        "0.5",
        "--proportion",
        "0.2",
        "--campaigns",
        "2",
        "--seed",
        "3",
        "--leave-rate",
        "0.004",
        "--workers",
        "120",
        "--horizon",
        "600",
        "--census-interval",
        "200",
        "--steps",
        "2",
    ])
    .unwrap();
    let expected = "\
churn sweep: balanced over 500 tasks, 2 campaigns/row, adversary share 0.2, seed 3
120 initial workers, horizon 600 ticks, census every 200 ticks, arrival rate 0.6, failure rate 0
closed-form detection with a static pool: 0.4257
leave rate  detection            95% CI  realized factor  live workers  reassigned/trial  lost/trial
----------------------------------------------------------------------------------------------------
0.0000         0.4038  [0.3460, 0.4645]            1.408         120.0               0.0         0.0
0.0020         0.4224  [0.3883, 0.4572]            3.009         253.0             809.5         0.0
0.0040         0.4418  [0.4079, 0.4763]            4.543         155.0            1573.0         0.0
(departures reassign their copies — detection holds but the realized factor inflates; \
failures destroy copies and eat into the detection guarantee)
";
    assert_eq!(out, expected);
}

#[test]
fn serve_drain_snapshot() {
    // Full-output snapshot: the default mode drains the session in
    // process and checks the batched-kernel oracle, so the stats dump —
    // checksum included — is stable byte for byte for a fixed seed.
    let out = cli(&[
        "serve",
        "--tasks",
        "500",
        "--epsilon",
        "0.5",
        "--proportion",
        "0.2",
        "--seed",
        "3",
        "--shards",
        "2",
    ])
    .unwrap();
    let expected = "\
serve: balanced over 500 tasks, 2 shard(s), adversary share 0.2, seed 3
timeout 8 ticks, 3 retries per copy
tasks-total 501
tasks-activated 501
tasks-completed 501
copies-total 704
issued 704
returned 704
in-flight 0
requeued 0
lost 0
timeouts 0
retries 0
cheats-attempted 130
cheats-detected 73
wrong-accepted 57
false-flags 0
unresolved-tasks 0
detection 0.5615
realized-factor 1.4052
checksum 0x4ae1da86d4a8f6ca
batched-kernel oracle: bit-identical
";
    assert_eq!(out, expected);
}

#[test]
fn churn_rejects_invalid_parameters_with_messages() {
    let err = cli(&["churn", "--leave-rate", "1.5"]).unwrap_err();
    assert!(err.contains("probability in [0, 1]"), "{err}");
    let err2 = cli(&["churn", "--census-interval", "0"]).unwrap_err();
    assert!(err2.contains("positive number of ticks"), "{err2}");
}

#[test]
fn faults_rejects_invalid_parameters_with_messages() {
    let err = cli(&[
        "faults",
        "--tasks",
        "500",
        "--epsilon",
        "0.5",
        "--drop-rate",
        "1.5",
    ])
    .unwrap_err();
    assert!(err.contains("probability in [0, 1]"), "{err}");
    let err2 = cli(&[
        "faults",
        "--tasks",
        "500",
        "--epsilon",
        "0.5",
        "--timeout",
        "0",
    ])
    .unwrap_err();
    assert!(err2.contains("positive number of ticks"), "{err2}");
}
