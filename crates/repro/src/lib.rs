#![warn(missing_docs)]

//! # redundancy-repro — the declarative exhibit registry
//!
//! Every table and figure of the paper is an [`Exhibit`]: a named entry in
//! the static [`registry`] that turns an [`ExhibitCtx`] (seed, trials
//! scale, thread budget) into a structured [`Report`].  One shared pipeline
//! renders that report as plain text (pinned byte-for-byte by the golden
//! snapshots), as CSV (`--csv`), and as a versioned `repro-report/v1` JSON
//! document (`redundancy repro --json`, schema in docs/REPORTS.md).
//!
//! `redundancy repro <name>` is the one front door (plus `--list`,
//! `--all`, `--json <path>`).
//!
//! The authoritative exhibit index is [`render_index`] (what
//! `redundancy repro --list` prints, snapshot-pinned under
//! `tests/snapshots/repro_list.txt`); in summary:
//!
//! | Exhibit | Paper ref | Output |
//! |---|---|---|
//! | `fig1_detection_vs_p` | Figure 1 | detection vs adversary proportion, Balanced vs `S₉`/`S₂₆` |
//! | `fig2_minimizing_table` | Figure 2 | per-dimension precompute / factor / min `P_{k,p}` table |
//! | `fig3_redundancy_factors` | Figure 3 | redundancy factor vs ε for all four curves |
//! | `fig4_assignment_table` | Figure 4 | per-multiplicity task counts, Balanced vs GS vs simple |
//! | `sec6_implementation` | §6 | worked tail/ringer examples |
//! | `sec7_extension` | §7 | minimum-multiplicity redundancy factors |
//! | `theory_checks` | Thm 1, Props 1–3 | numeric verification of every analytic claim |
//! | `appendix_a_collusion` | Appendix A | two-phase `p²N` law and `1/√N` threshold |
//! | `empirical_detection` | (ours) | simulated `P̂_{k,p}` vs closed forms |
//! | `ext_survival` | (ours) | free cheats before first detection vs the geometric law |
//! | `ext_faults` | (ours) | detection vs drop/straggler rate, with and without retries |
//! | `ext_churn` | (ours) | detection and realized redundancy drift under worker churn |
//! | `ext_serve` | (ours) | drained live-serve sessions vs the batched kernel, bit for bit |
//!
//! All randomized exhibits take `--seed <u64>` (default [`DEFAULT_SEED`],
//! the CLUSTER 2005 conference date) so EXPERIMENTS.md is exactly
//! replayable.

use std::fmt;

mod exhibits;
pub mod report;

pub use report::{Block, CsvRows, Report, SCHEMA};

/// Default RNG seed: 20050926, the CLUSTER 2005 conference date.
pub const DEFAULT_SEED: u64 = 20_050_926;

/// One registry entry: a named generator for a paper table or figure.
///
/// Implementations are stateless unit structs in `src/exhibits/`; adding a
/// workload means adding one module and one registry line, not a binary.
pub trait Exhibit: Sync {
    /// Registry name, as given to `redundancy repro <name>`.
    fn name(&self) -> &'static str;
    /// One-line summary for `redundancy repro --list`.
    fn summary(&self) -> &'static str;
    /// Which part of the paper (or which extension) this reproduces.
    fn paper_ref(&self) -> &'static str;
    /// Generate the report.  Must be deterministic in `ctx` — including
    /// across `ctx.threads` values — because the text rendering is pinned
    /// by the golden snapshots.
    fn run(&self, ctx: &ExhibitCtx) -> Report;
}

/// The full registry, in paper order.
pub fn registry() -> &'static [&'static dyn Exhibit] {
    exhibits::REGISTRY
}

/// Look up an exhibit by registry name.
pub fn find(name: &str) -> Option<&'static dyn Exhibit> {
    registry().iter().copied().find(|e| e.name() == name)
}

/// Shared execution context for every exhibit, parsed from the
/// `redundancy repro` flags by [`ExhibitCtx::parse_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExhibitCtx {
    /// RNG seed (`--seed`).
    pub seed: u64,
    /// Optional CSV output path (`--csv`).
    pub csv: Option<String>,
    /// Scale factor for Monte-Carlo effort (`--trials-scale`), ≥ 1.
    pub trials_scale: u64,
    /// Thread budget (`--threads`), 0 = auto.  Shared by the sweep-level
    /// pool and the per-point Monte-Carlo runners (see
    /// `redundancy_stats::sweep_thread_split`); results are byte-identical
    /// at every value.
    pub threads: usize,
}

impl Default for ExhibitCtx {
    fn default() -> Self {
        ExhibitCtx {
            seed: DEFAULT_SEED,
            csv: None,
            trials_scale: 1,
            threads: 0,
        }
    }
}

/// Failures from the shared exhibit flag parser.  Rendered messages match
/// the `redundancy` CLI's conventions (name the flag, say what was
/// expected) and drive the established exit-code-2 path.
#[derive(Debug, Clone, PartialEq)]
pub enum CtxError {
    /// Flag present but no value followed.
    MissingValue(String),
    /// Value failed to parse or was out of range.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// The rejected value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// Unknown flag.
    UnknownFlag(String),
}

impl fmt::Display for CtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtxError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CtxError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for `{flag}` (expected {expected})"),
            CtxError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}` for `repro`"),
        }
    }
}

impl std::error::Error for CtxError {}

impl ExhibitCtx {
    /// Parse the shared exhibit flags from an argv slice (program name
    /// excluded).
    ///
    /// Every flag is validated: an unknown flag, `--trials-scale 0` or a
    /// malformed `--seed` is an error naming the flag, never a silent
    /// fallback.
    pub fn parse_from(args: &[String]) -> Result<Self, CtxError> {
        fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, CtxError> {
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| CtxError::MissingValue(flag.into()))
        }
        fn parse<T: std::str::FromStr>(
            raw: &str,
            flag: &'static str,
            expected: &'static str,
        ) -> Result<T, CtxError> {
            raw.parse().map_err(|_| CtxError::BadValue {
                flag,
                value: raw.into(),
                expected,
            })
        }
        let mut ctx = ExhibitCtx::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    ctx.seed = parse(value(args, i, "--seed")?, "--seed", "a 64-bit integer")?;
                    i += 1;
                }
                "--csv" => {
                    ctx.csv = Some(value(args, i, "--csv")?.to_string());
                    i += 1;
                }
                "--trials-scale" => {
                    let raw = value(args, i, "--trials-scale")?;
                    let scale: u64 = parse(raw, "--trials-scale", "a positive integer")?;
                    if scale == 0 {
                        return Err(CtxError::BadValue {
                            flag: "--trials-scale",
                            value: raw.into(),
                            expected: "a positive integer (scales Monte-Carlo effort up)",
                        });
                    }
                    ctx.trials_scale = scale;
                    i += 1;
                }
                "--threads" => {
                    let raw = value(args, i, "--threads")?;
                    let threads: usize = parse(raw, "--threads", "a thread count (0 = auto)")?;
                    if threads > redundancy_stats::MAX_THREADS {
                        return Err(CtxError::BadValue {
                            flag: "--threads",
                            value: raw.into(),
                            expected: "a thread count of at most 1024 (0 = auto)",
                        });
                    }
                    ctx.threads = threads;
                    i += 1;
                }
                other => return Err(CtxError::UnknownFlag(other.into())),
            }
            i += 1;
        }
        Ok(ctx)
    }
}

/// The exhibit index `redundancy repro --list` prints.
///
/// Generated from the registry itself (names, paper references, and
/// summaries come from the `Exhibit` impls), and snapshot-pinned in
/// `tests/snapshots/repro_list.txt`, so the documented index can never
/// drift from the code.
pub fn render_index() -> String {
    use redundancy_stats::table::Table;
    let mut out = String::new();
    out.push_str(
        "repro exhibits — every table and figure of the paper, one registry entry each\n\n",
    );
    let mut table = Table::new(&["name", "paper ref", "summary"]);
    for exhibit in registry() {
        table.row(&[exhibit.name(), exhibit.paper_ref(), exhibit.summary()]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(
        "Run `redundancy repro <name>` for one exhibit, `--all` for every exhibit;\n\
         shared flags: --seed, --csv, --trials-scale, --threads; add --json <path>\n\
         for a repro-report/v1 document (see docs/REPORTS.md).\n",
    );
    out
}

/// Render a report's text and perform its CSV side effect, returning the
/// exact bytes the exhibit prints on stdout.
///
/// When `ctx.csv` is set and the write succeeds, the historical
/// `\n[csv written to <path>]` note is appended; a failed write warns on
/// stderr and leaves stdout untouched.
pub fn emit_text(report: &Report, ctx: &ExhibitCtx) -> String {
    let mut out = report.render_text();
    if let (Some(path), Some(body)) = (&ctx.csv, report.render_csv()) {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("warning: could not write CSV to {path}: {e}");
        } else {
            out.push_str(&format!("\n[csv written to {path}]\n"));
        }
    }
    out
}

/// Print a wall-time / throughput footer for a Monte-Carlo exhibit.
///
/// Goes to **stderr**: stdout of every repro exhibit is pinned
/// byte-for-byte by the golden snapshots, so diagnostics that vary
/// run-to-run must stay off it.  Rates are simulated tasks and assignments
/// per wall second across every campaign the exhibit ran.
pub fn throughput_footer(
    exhibit: &str,
    tasks: u64,
    assignments: u64,
    elapsed: std::time::Duration,
) {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return;
    }
    eprintln!(
        "[{exhibit}] {secs:.2}s wall — {:.2}M tasks/s, {:.2}M assignments/s",
        tasks as f64 / secs / 1e6,
        assignments as f64 / secs / 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_ctx() {
        let ctx = ExhibitCtx::default();
        assert_eq!(ctx.seed, DEFAULT_SEED);
        assert!(ctx.csv.is_none());
        assert_eq!(ctx.trials_scale, 1);
        assert_eq!(ctx.threads, 0);
    }

    #[test]
    fn parses_all_shared_flags() {
        let ctx = ExhibitCtx::parse_from(&argv(&[
            "--seed",
            "7",
            "--csv",
            "out.csv",
            "--trials-scale",
            "3",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(ctx.seed, 7);
        assert_eq!(ctx.csv.as_deref(), Some("out.csv"));
        assert_eq!(ctx.trials_scale, 3);
        assert_eq!(ctx.threads, 2);
    }

    #[test]
    fn rejects_zero_trials_scale_naming_the_flag() {
        let err = ExhibitCtx::parse_from(&argv(&["--trials-scale", "0"])).unwrap_err();
        assert!(err.to_string().contains("--trials-scale"), "{err}");
        assert!(matches!(err, CtxError::BadValue { flag, .. } if flag == "--trials-scale"));
    }

    #[test]
    fn rejects_malformed_values_instead_of_silent_defaults() {
        for flags in [["--seed", "banana"], ["--threads", "many"]] {
            let err = ExhibitCtx::parse_from(&argv(&flags)).unwrap_err();
            assert!(err.to_string().contains(flags[0]), "{err}");
        }
        let err = ExhibitCtx::parse_from(&argv(&["--threads", "99999"])).unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let parsed = ExhibitCtx::parse_from(&argv(&["--seed", "9", "--bogus", "1"]));
        assert_eq!(parsed, Err(CtxError::UnknownFlag("--bogus".into())));
    }

    #[test]
    fn missing_value_is_reported() {
        let err = ExhibitCtx::parse_from(&argv(&["--seed"])).unwrap_err();
        assert_eq!(err, CtxError::MissingValue("--seed".into()));
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<_> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 13);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13, "duplicate registry names");
        for exhibit in registry() {
            assert!(find(exhibit.name()).is_some());
            assert!(!exhibit.summary().is_empty());
            assert!(!exhibit.paper_ref().is_empty());
        }
        assert!(find("no_such_exhibit").is_none());
    }

    #[test]
    fn index_lists_every_registry_entry() {
        let index = render_index();
        for exhibit in registry() {
            assert!(index.contains(exhibit.name()), "{} missing", exhibit.name());
        }
        assert!(index.contains("docs/REPORTS.md"));
    }

    #[test]
    fn footer_is_silent_on_zero_elapsed() {
        // Only stderr is touched, so this just must not panic or divide
        // by zero.
        throughput_footer("test", 100, 200, std::time::Duration::ZERO);
        throughput_footer("test", 100, 200, std::time::Duration::from_millis(5));
    }

    #[test]
    fn csv_side_effect_writes_and_notes() {
        let path = std::env::temp_dir().join("repro_ctx_test.csv");
        let ctx = ExhibitCtx {
            csv: Some(path.to_string_lossy().into_owned()),
            ..ExhibitCtx::default()
        };
        let mut report = Report::new("demo", "Demo", "d");
        report.set_csv("a,b", vec![vec!["1".into(), "2".into()]]);
        let out = emit_text(&report, &ctx);
        assert!(out.ends_with(&format!("\n[csv written to {}]\n", path.display())));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        let _ = std::fs::remove_file(&path);
        // Without --csv, stdout is exactly the text rendering.
        let plain = ExhibitCtx::default();
        assert_eq!(emit_text(&report, &plain), report.render_text());
    }
}
