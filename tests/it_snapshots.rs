//! Golden snapshots: every repro exhibit's stdout is pinned byte-for-byte.
//!
//! See `tests/src/snapshot.rs` for the harness and `docs/TESTING.md` for
//! the update workflow.  One test per exhibit so failures name the drifted
//! exhibit directly and the suite parallelizes across exhibits; each test
//! runs its exhibit at `--threads` 1 and 4.

use redundancy_integration::snapshot::check_exhibit;

macro_rules! snapshot_tests {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            check_exhibit(stringify!($name));
        }
    )+};
}

snapshot_tests!(
    fig1_detection_vs_p,
    fig2_minimizing_table,
    fig3_redundancy_factors,
    fig4_assignment_table,
    sec6_implementation,
    sec7_extension,
    theory_checks,
    appendix_a_collusion,
    empirical_detection,
    ext_survival,
    ext_faults,
    ext_churn,
    ext_serve,
);

/// The macro above must cover exactly the canonical exhibit list.
#[test]
fn all_exhibits_have_a_snapshot_test() {
    assert_eq!(redundancy_integration::snapshot::EXHIBITS.len(), 13);
}

/// The 14th snapshot: the `redundancy repro --list` registry index.
/// Pinning it means the exhibit catalogue (names, paper references,
/// summaries) cannot drift from what the docs describe without a visible
/// snapshot diff.
#[test]
fn repro_list() {
    let index = redundancy_cli::run(&["repro".to_string(), "--list".to_string()])
        .expect("`redundancy repro --list` succeeds");
    redundancy_integration::snapshot::check_actual("repro_list", &index);
}
