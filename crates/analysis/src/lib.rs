//! dgc-analysis — the project's correctness-analysis plane.
//!
//! A self-contained lint pass (no external parser, no proc macros)
//! that walks the workspace source and enforces the invariants the
//! compiler can't see:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `wall-clock` | all time flows through the `TimeSource` seam |
//! | `unordered-iter` | no hash-order nondeterminism in protocol/oracle code |
//! | `hot-path-panic` | no panic sites in the PR 9 hot-path modules and the node kernel |
//! | `lock-across-send` | no shim-mutex guard held across a blocking call |
//!
//! Intentional violations carry an inline
//! `// dgc-analysis: allow(<rule>): <reason>` (see [`report`]); the
//! workspace gate (`tests/workspace_clean.rs`) requires zero
//! unannotated findings. The runtime half of the plane — the
//! lock-order cycle detector — lives in the vendored `parking_lot`
//! shim (`parking_lot::lockcheck`), enabled with `DGC_LOCK_CHECK=1`.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{Finding, RULES};

/// Result of an analysis pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings (including `bad-allow`), sorted by
    /// path, line, rule.
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(f, "{} finding(s)", self.findings.len())
    }
}

/// Runs every rule over in-memory sources: `(repo-relative path,
/// contents)` pairs. This is the engine behind both the golden tests
/// and the workspace pass.
pub fn analyze_sources(sources: &[(String, String)]) -> Report {
    let files: Vec<rules::SourceFile> = sources
        .iter()
        .map(|(path, src)| rules::SourceFile::new(path, src))
        .collect();

    let mut findings = Vec::new();
    let mut allows = Vec::new();
    for f in &files {
        findings.extend(rules::per_file_rules(f));
        // The analysis crate documents the directive syntax in prose;
        // no rule fires there, so don't parse its comments as
        // directives.
        if f.path.starts_with("crates/analysis/") {
            continue;
        }
        let (file_allows, bad) = report::collect_allows(&f.path, &f.tokens);
        findings.extend(bad);
        allows.push((f.path.clone(), file_allows));
    }

    let mut findings = report::suppress(findings, &allows);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup();
    Report { findings }
}

/// Walks the repo from this crate's manifest location and runs the
/// full pass. Used by the workspace gate test and by
/// `cargo run -p dgc-analysis --bin dgc-lint` locally.
pub fn analyze_workspace() -> Report {
    let root = workspace::repo_root();
    let sources = workspace::collect_sources(&root);
    analyze_sources(&sources)
}
