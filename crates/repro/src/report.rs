//! The structured artifact every exhibit produces.
//!
//! A [`Report`] is an ordered list of [`Block`]s (tables, text paragraphs,
//! blank separator lines) plus machine-oriented extras: key/value facts, an
//! optional CSV row set, Monte-Carlo throughput counters, and a pass/fail
//! verdict.  One report renders three ways:
//!
//! * [`Report::render_text`] — the plain-text exhibit that
//!   `redundancy repro <name>` prints (and the golden snapshots under
//!   `tests/snapshots/` pin);
//! * [`Report::render_csv`] — the `--csv` payload;
//! * [`Report::to_json`] — a versioned [`SCHEMA`] (`repro-report/v1`)
//!   document for dashboards and benchmarking pipelines, documented in
//!   docs/REPORTS.md.

use crate::ExhibitCtx;
use redundancy_json::{num_u64, obj, Json};
use redundancy_stats::table::Table;
use std::fmt::Write as _;

/// Schema identifier stamped into every JSON report.
pub const SCHEMA: &str = "repro-report/v1";

/// One ordered element of a report body.
#[derive(Debug, Clone)]
pub enum Block {
    /// A rendered fixed-width table (see `redundancy_stats::table`).
    Table(Table),
    /// One text paragraph; may contain embedded newlines.  Rendered with a
    /// trailing newline, exactly like the `println!` it replaces.
    Text(String),
    /// A blank separator line.
    Blank,
}

/// A machine-readable CSV row set attached to a report.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvRows {
    /// Comma-joined header line (no trailing newline).
    pub header: String,
    /// Data rows; each cell is pre-formatted.
    pub rows: Vec<Vec<String>>,
}

/// The structured output of one exhibit run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Registry name.
    pub exhibit: String,
    /// Banner title, e.g. `Figure 1`.
    pub title: String,
    /// Banner description printed under the title.
    pub description: String,
    /// Ordered body blocks.
    pub blocks: Vec<Block>,
    /// Key/value facts for the JSON document (not rendered to text).
    pub facts: Vec<(String, Json)>,
    /// CSV row set, if the exhibit has one.
    pub csv: Option<CsvRows>,
    /// `false` when a self-checking exhibit (theory_checks) found a
    /// violated claim; `redundancy repro` then exits non-zero.
    pub passed: bool,
    /// Simulated tasks, for the stderr throughput footer (0 = no footer).
    pub tasks: u64,
    /// Simulated assignments, for the stderr throughput footer.
    pub assignments: u64,
}

impl Report {
    /// Start a report with its banner fields.
    pub fn new(
        exhibit: impl Into<String>,
        title: impl Into<String>,
        description: impl Into<String>,
    ) -> Self {
        Report {
            exhibit: exhibit.into(),
            title: title.into(),
            description: description.into(),
            blocks: Vec::new(),
            facts: Vec::new(),
            csv: None,
            passed: true,
            tasks: 0,
            assignments: 0,
        }
    }

    /// Append a table block.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.blocks.push(Block::Table(table));
        self
    }

    /// Append a text paragraph (one `println!` worth of output).
    pub fn text(&mut self, line: impl Into<String>) -> &mut Self {
        self.blocks.push(Block::Text(line.into()));
        self
    }

    /// Append a blank separator line.
    pub fn blank(&mut self) -> &mut Self {
        self.blocks.push(Block::Blank);
        self
    }

    /// Record a key/value fact for the JSON document.
    pub fn fact(&mut self, key: impl Into<String>, value: Json) -> &mut Self {
        self.facts.push((key.into(), value));
        self
    }

    /// Attach the CSV row set.
    pub fn set_csv(&mut self, header: impl Into<String>, rows: Vec<Vec<String>>) -> &mut Self {
        self.csv = Some(CsvRows {
            header: header.into(),
            rows,
        });
        self
    }

    /// Record Monte-Carlo throughput counters for the stderr footer.
    pub fn counters(&mut self, tasks: u64, assignments: u64) -> &mut Self {
        self.tasks = tasks;
        self.assignments = assignments;
        self
    }

    /// Render the plain-text exhibit: banner, then every block in order.
    ///
    /// Byte-identical to the historical per-binary `println!` sequences —
    /// this is the surface the golden snapshots pin.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        let _ = writeln!(out, "{}", self.description);
        out.push('\n');
        for block in &self.blocks {
            match block {
                Block::Table(t) => out.push_str(&t.render()),
                Block::Text(s) => {
                    out.push_str(s);
                    out.push('\n');
                }
                Block::Blank => out.push('\n'),
            }
        }
        out
    }

    /// Render the CSV payload (`header` line plus one line per row), if the
    /// exhibit carries one.
    pub fn render_csv(&self) -> Option<String> {
        let csv = self.csv.as_ref()?;
        let mut out = String::new();
        out.push_str(&csv.header);
        out.push('\n');
        for row in &csv.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        Some(out)
    }

    /// Build the versioned `repro-report/v1` JSON document.
    ///
    /// Field-by-field schema in docs/REPORTS.md.  `ctx` contributes the
    /// reproducibility envelope (seed, trials scale, thread budget).
    pub fn to_json(&self, ctx: &ExhibitCtx) -> Json {
        let sections: Vec<Json> = self
            .blocks
            .iter()
            .filter_map(|block| match block {
                Block::Blank => None,
                Block::Text(s) => Some(obj(vec![
                    ("kind", Json::Str("text".into())),
                    ("text", Json::Str(s.clone())),
                ])),
                Block::Table(t) => Some(obj(vec![
                    ("kind", Json::Str("table".into())),
                    (
                        "columns",
                        Json::Arr(t.headers().iter().map(|h| Json::Str(h.clone())).collect()),
                    ),
                    (
                        "rows",
                        Json::Arr(
                            t.rows()
                                .iter()
                                .map(|row| {
                                    Json::Arr(row.iter().map(|c| Json::Str(c.clone())).collect())
                                })
                                .collect(),
                        ),
                    ),
                ])),
            })
            .collect();
        let csv = match &self.csv {
            None => Json::Null,
            Some(csv) => obj(vec![
                (
                    "header",
                    Json::Arr(
                        csv.header
                            .split(',')
                            .map(|h| Json::Str(h.to_string()))
                            .collect(),
                    ),
                ),
                (
                    "rows",
                    Json::Arr(
                        csv.rows
                            .iter()
                            .map(|row| {
                                Json::Arr(row.iter().map(|c| Json::Str(c.clone())).collect())
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        obj(vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("exhibit", Json::Str(self.exhibit.clone())),
            ("title", Json::Str(self.title.clone())),
            ("seed", num_u64(ctx.seed)),
            ("trials_scale", num_u64(ctx.trials_scale)),
            ("threads", num_u64(ctx.threads as u64)),
            ("passed", Json::Bool(self.passed)),
            (
                "facts",
                Json::Obj(
                    self.facts
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
            ("sections", Json::Arr(sections)),
            ("csv", csv),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_stats::table::fnum;

    fn sample() -> Report {
        let mut r = Report::new("demo_exhibit", "Demo", "A two-line\ndescription.");
        let mut t = Table::new(&["k", "v"]);
        t.numeric();
        t.row(&["a", &fnum(1.5, 2)]);
        r.table(t);
        r.blank();
        r.text("closing remark");
        r.fact("n", num_u64(42));
        r.set_csv("k,v", vec![vec!["a".into(), "1.50".into()]]);
        r
    }

    #[test]
    fn text_rendering_matches_the_legacy_print_sequence() {
        let text = sample().render_text();
        assert!(text.starts_with("=== Demo ===\nA two-line\ndescription.\n\n"));
        assert!(text.ends_with("\nclosing remark\n"));
        // Exactly one blank line between the table and the remark.
        assert!(text.contains("1.50\n\nclosing remark\n"), "{text}");
    }

    #[test]
    fn csv_rendering_matches_maybe_write_csv() {
        assert_eq!(sample().render_csv().unwrap(), "k,v\na,1.50\n");
        let mut r = sample();
        r.csv = None;
        assert!(r.render_csv().is_none());
    }

    #[test]
    fn json_document_carries_the_envelope_and_sections() {
        let ctx = ExhibitCtx {
            seed: 7,
            ..ExhibitCtx::default()
        };
        let doc = sample().to_json(&ctx);
        assert_eq!(doc.field_str("schema").unwrap(), SCHEMA);
        assert_eq!(doc.field_str("exhibit").unwrap(), "demo_exhibit");
        assert_eq!(doc.field_u64("seed").unwrap(), 7);
        assert_eq!(doc.field_u64("trials_scale").unwrap(), 1);
        assert!(doc.field("passed").unwrap().as_bool().unwrap());
        assert_eq!(doc.field("facts").unwrap().field_u64("n").unwrap(), 42);
        let sections = doc.field_arr("sections").unwrap();
        // Blank blocks are dropped; table + text survive in order.
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].field_str("kind").unwrap(), "table");
        assert_eq!(sections[1].field_str("kind").unwrap(), "text");
        let csv = doc.field("csv").unwrap();
        assert_eq!(csv.field_arr("header").unwrap().len(), 2);
        // The document round-trips through the strict parser.
        let text = redundancy_json::to_string(&doc);
        assert_eq!(redundancy_json::parse(&text).unwrap(), doc);
    }
}
