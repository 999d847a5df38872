//! Golden-file tests: every rule demonstrably fires, every escape
//! hatch demonstrably works.
//!
//! Each directory under `tests/golden/` is one case: `.rs` fixtures
//! (whose first line `//! virtual-path: <path>` places them in the
//! rule's scope) analyzed together, with the findings compared against
//! `expected.txt`. Regenerate after an intentional rule change with
//! `BLESS=1 cargo test -p dgc-analysis --test golden`.

use std::fs;
use std::path::Path;

fn run_case(case: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(case);
    let mut sources = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing golden case dir {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in &entries {
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = fs::read_to_string(path).expect("readable fixture");
        let first = text.lines().next().unwrap_or("");
        let virtual_path = first
            .strip_prefix("//! virtual-path: ")
            .unwrap_or_else(|| {
                panic!(
                    "{} must start with `//! virtual-path: <repo-relative path>`",
                    path.display()
                )
            })
            .trim()
            .to_string();
        sources.push((virtual_path, text));
    }
    assert!(!sources.is_empty(), "golden case `{case}` has no fixtures");

    let report = dgc_analysis::analyze_sources(&sources);
    let mut actual = String::new();
    for f in &report.findings {
        actual.push_str(&f.to_string());
        actual.push('\n');
    }

    let expected_path = dir.join("expected.txt");
    if std::env::var_os("BLESS").is_some() {
        fs::write(&expected_path, &actual).expect("write blessed expectations");
        return;
    }
    let expected = fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with BLESS=1 to create it",
            expected_path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for `{case}` — if the rule change is intentional, \
         re-bless with BLESS=1 cargo test -p dgc-analysis --test golden"
    );
}

#[test]
fn wall_clock() {
    run_case("wall_clock");
}

#[test]
fn unordered_iter() {
    run_case("unordered_iter");
}

#[test]
fn hot_path_panic() {
    run_case("hot_path_panic");
}

#[test]
fn lock_across_send() {
    run_case("lock_across_send");
}

#[test]
fn bad_allow() {
    run_case("bad_allow");
}
