//! Findings, allow directives, and the suppression pass.
//!
//! Every finding is keyed `file:line` so it is one click away in an
//! editor. Intentional violations are silenced *in the source they
//! occur in* with an inline escape hatch:
//!
//! ```text
//! // dgc-analysis: allow(wall-clock): reconnect backoff is wall-time by design
//! ```
//!
//! A directive covers the line it ends on and the line immediately
//! after it (so it can trail the offending expression or sit on its own
//! line above). The reason is **mandatory** — an allow without one, or
//! naming an unknown rule, is itself reported (`bad-allow`) and cannot
//! be allowed away: the annotation layer stays honest.

use crate::lexer::{TokKind, Token};

/// Every rule the pass knows, in report order.
pub const RULES: &[&str] = &[
    "wall-clock",
    "unordered-iter",
    "hot-path-panic",
    "lock-across-send",
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`RULES`], or `bad-allow`).
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What and why.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed `dgc-analysis: allow(...)` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the directive's comment ends on; it suppresses findings on
    /// this line and the next.
    pub line: u32,
    /// Rules it silences.
    pub rules: Vec<String>,
}

/// Extracts allow directives from a file's comments. Malformed or
/// reason-less directives come back as `bad-allow` findings instead.
pub fn collect_allows(path: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for tok in tokens {
        if !matches!(tok.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let Some(at) = tok.text.find("dgc-analysis") else {
            continue;
        };
        let rest = &tok.text[at + "dgc-analysis".len()..];
        match parse_directive(rest) {
            Ok(rules) => allows.push(Allow {
                line: tok.end_line,
                rules,
            }),
            Err(why) => bad.push(Finding {
                rule: "bad-allow",
                path: path.to_string(),
                line: tok.end_line,
                message: why,
            }),
        }
    }
    (allows, bad)
}

/// Parses `: allow(rule[, rule…]): reason` (the text after
/// `dgc-analysis`). The reason — any non-empty text after the closing
/// paren, optionally introduced by `:`/`-`/`—` — is required.
fn parse_directive(rest: &str) -> Result<Vec<String>, String> {
    let rest = rest.trim_start_matches(':').trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Err(format!(
            "unrecognized dgc-analysis directive (expected `dgc-analysis: allow(<rule>): <reason>`): `{}`",
            rest.trim()
        ));
    };
    let Some((list, reason)) = args.split_once(')') else {
        return Err("allow directive is missing its closing paren".to_string());
    };
    let rules: Vec<String> = list
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("allow() names no rules".to_string());
    }
    for r in &rules {
        if !RULES.contains(&r.as_str()) {
            return Err(format!(
                "allow names unknown rule `{r}` (known: {})",
                RULES.join(", ")
            ));
        }
    }
    let reason = reason.trim_start_matches([':', '-', '—', ' ']).trim();
    if reason.is_empty() {
        return Err("allow directive has no reason — every escape hatch must say why".to_string());
    }
    Ok(rules)
}

/// Drops findings covered by an allow for their rule on their line or
/// the line above.
pub fn suppress(findings: Vec<Finding>, allows: &[(String, Vec<Allow>)]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !allows.iter().any(|(path, list)| {
                *path == f.path
                    && list.iter().any(|a| {
                        (a.line == f.line || a.line + 1 == f.line)
                            && a.rules.iter().any(|r| r == f.rule)
                    })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn directive_roundtrip() {
        let tokens =
            lex("// dgc-analysis: allow(wall-clock): reconnect pacing is wall time\nlet t = 1;");
        let (allows, bad) = collect_allows("x.rs", &tokens);
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rules, ["wall-clock"]);
        assert_eq!(allows[0].line, 1);
    }

    #[test]
    fn reasonless_allow_is_reported() {
        let (allows, bad) = collect_allows("x.rs", &lex("// dgc-analysis: allow(wall-clock)\n"));
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("no reason"), "{}", bad[0].message);
    }

    #[test]
    fn unknown_rule_is_reported() {
        let (_, bad) = collect_allows("x.rs", &lex("// dgc-analysis: allow(warp-core): why"));
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unknown rule"));
    }

    #[test]
    fn multi_rule_allow_and_line_coverage() {
        let tokens = lex("// dgc-analysis: allow(wall-clock, hot-path-panic): both intended\nx();");
        let (allows, _) = collect_allows("x.rs", &tokens);
        let f = |rule, line| Finding {
            rule,
            path: "x.rs".into(),
            line,
            message: String::new(),
        };
        let allows = vec![("x.rs".to_string(), allows)];
        // Same line and next line suppressed; two lines down not.
        assert!(suppress(vec![f("wall-clock", 1)], &allows).is_empty());
        assert!(suppress(vec![f("hot-path-panic", 2)], &allows).is_empty());
        assert_eq!(suppress(vec![f("wall-clock", 3)], &allows).len(), 1);
        assert_eq!(suppress(vec![f("unordered-iter", 2)], &allows).len(), 1);
    }
}
