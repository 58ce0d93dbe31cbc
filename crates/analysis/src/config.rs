//! The `analysis.toml` allowlist: parsing, matching, staleness.
//!
//! The workspace carries no external dependencies, so this is a strict
//! parser for the *subset* of TOML the allowlist needs: `[[allow]]`
//! table arrays with basic-string values and `#` comments. Strictness
//! is a feature — an allowlist that silently ignored a typoed key would
//! be a hole in the gate, so unknown sections, unknown keys, bare
//! values, and duplicate keys are all hard errors.
//!
//! Every entry must carry a non-empty `reason`: suppressions without
//! recorded justification rot instantly. Entries that no longer match
//! any finding are *stale* and also hard errors — the allowlist shrinks
//! as hazards are fixed, never accretes.

use crate::lints::{is_known_lint, Finding};

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint id the entry suppresses (`"D001"`, ...).
    pub lint: String,
    /// Workspace-relative file path, or a directory prefix ending in
    /// `/` which suppresses for the whole subtree.
    pub path: String,
    /// Optional substring that must appear in the finding's line text,
    /// scoping the entry to specific call forms (e.g. `"expect("`).
    pub contains: Option<String>,
    /// 1-based line of the entry's `[[allow]]` header, for stale
    /// reporting.
    pub line: u32,
}

impl AllowEntry {
    /// True when this entry suppresses `f`.
    pub fn matches(&self, f: &Finding) -> bool {
        if self.lint != f.lint {
            return false;
        }
        let path_ok = if self.path.ends_with('/') {
            f.path.starts_with(&self.path)
        } else {
            f.path == self.path
        };
        if !path_ok {
            return false;
        }
        match &self.contains {
            Some(needle) => f.line_text.contains(needle.as_str()),
            None => true,
        }
    }
}

/// Parses allowlist text. Returns every entry or the first error,
/// with its 1-based line number.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<PartialEntry> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = current.take() {
                entries.push(p.finish()?);
            }
            current = Some(PartialEntry::new(lineno));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "analysis.toml:{lineno}: unsupported section `{line}` (only [[allow]] \
                 table arrays are recognized)"
            ));
        }
        let Some(p) = current.as_mut() else {
            return Err(format!(
                "analysis.toml:{lineno}: key outside any [[allow]] entry"
            ));
        };
        let Some(eq) = line.find('=') else {
            return Err(format!(
                "analysis.toml:{lineno}: expected `key = \"value\"`"
            ));
        };
        let key = line[..eq].trim();
        let value = parse_basic_string(line[eq + 1..].trim())
            .map_err(|e| format!("analysis.toml:{lineno}: {e}"))?;
        p.set(key, value, lineno)?;
    }
    if let Some(p) = current.take() {
        entries.push(p.finish()?);
    }
    Ok(entries)
}

/// Parses a TOML basic string (`"..."` with `\"`/`\\` escapes),
/// tolerating a trailing `#` comment after the closing quote.
fn parse_basic_string(s: &str) -> Result<String, String> {
    let mut chars = s.chars();
    if chars.next() != Some('"') {
        return Err(format!("expected a quoted string value, got `{s}`"));
    }
    let mut out = String::new();
    let mut closed = false;
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("unsupported escape `\\{}`", other.unwrap_or(' '))),
            },
            '"' => {
                closed = true;
                break;
            }
            _ => out.push(c),
        }
    }
    if !closed {
        return Err("unterminated string".to_string());
    }
    let rest = chars.as_str().trim();
    if !rest.is_empty() && !rest.starts_with('#') {
        return Err(format!("trailing content after string: `{rest}`"));
    }
    Ok(out)
}

#[derive(Debug)]
struct PartialEntry {
    line: u32,
    lint: Option<String>,
    path: Option<String>,
    contains: Option<String>,
    reason: Option<String>,
}

impl PartialEntry {
    fn new(line: u32) -> Self {
        PartialEntry {
            line,
            lint: None,
            path: None,
            contains: None,
            reason: None,
        }
    }

    fn set(&mut self, key: &str, value: String, lineno: u32) -> Result<(), String> {
        let slot = match key {
            "lint" => &mut self.lint,
            "path" => &mut self.path,
            "contains" => &mut self.contains,
            "reason" => &mut self.reason,
            other => {
                return Err(format!(
                    "analysis.toml:{lineno}: unknown key `{other}` (expected lint/path/contains/reason)"
                ))
            }
        };
        if slot.is_some() {
            return Err(format!("analysis.toml:{lineno}: duplicate key `{key}`"));
        }
        *slot = Some(value);
        Ok(())
    }

    fn finish(self) -> Result<AllowEntry, String> {
        let line = self.line;
        let lint = self
            .lint
            .ok_or_else(|| format!("analysis.toml:{line}: [[allow]] entry is missing `lint`"))?;
        if !is_known_lint(&lint) {
            return Err(format!("analysis.toml:{line}: unknown lint id `{lint}`"));
        }
        let path = self
            .path
            .ok_or_else(|| format!("analysis.toml:{line}: [[allow]] entry is missing `path`"))?;
        // Every entry carries a non-empty justification; it is read by
        // people, so it is checked here and not kept.
        let reason = self
            .reason
            .ok_or_else(|| format!("analysis.toml:{line}: [[allow]] entry is missing `reason`"))?;
        if reason.trim().is_empty() {
            return Err(format!(
                "analysis.toml:{line}: `reason` must be non-empty — every suppression \
                 records why it is sound"
            ));
        }
        Ok(AllowEntry {
            lint,
            path,
            contains: self.contains,
            line,
        })
    }
}

/// The result of applying an allowlist to a finding set.
#[derive(Debug)]
pub struct Applied {
    /// Findings no entry suppressed — these fail the gate.
    pub unsuppressed: Vec<Finding>,
    /// How many findings were suppressed.
    pub suppressed: usize,
    /// Entries that matched nothing: stale, and themselves an error.
    pub stale: Vec<AllowEntry>,
}

/// Partitions `findings` by the allowlist and reports stale entries.
pub fn apply(findings: Vec<Finding>, entries: &[AllowEntry]) -> Applied {
    let mut used = vec![false; entries.len()];
    let mut unsuppressed = Vec::new();
    let mut suppressed = 0usize;
    for f in findings {
        let mut hit = false;
        for (i, e) in entries.iter().enumerate() {
            if e.matches(&f) {
                used[i] = true;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            unsuppressed.push(f);
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    Applied {
        unsuppressed,
        suppressed,
        stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lint: &str, path: &str, contains: Option<&str>) -> AllowEntry {
        AllowEntry {
            lint: lint.into(),
            path: path.into(),
            contains: contains.map(|s| s.into()),
            line: 1,
        }
    }

    fn finding(lint: &'static str, path: &str, text: &str) -> Finding {
        Finding {
            lint,
            path: path.into(),
            line: 10,
            message: String::new(),
            hint: "",
            line_text: text.into(),
        }
    }

    #[test]
    fn parses_entries_and_comments() {
        let text = "# top comment\n\n[[allow]]\nlint = \"D002\"\npath = \"crates/core/src/sim.rs\"\nreason = \"summary-only\"  # trailing\n\n[[allow]]\nlint = \"P001\"\npath = \"crates/network/src/flow.rs\"\ncontains = \"expect(\"\nreason = \"documented invariants\"\n";
        let entries = parse(text).expect("parses");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].lint, "D002");
        assert_eq!(entries[1].contains.as_deref(), Some("expect("));
    }

    #[test]
    fn empty_reason_is_an_error() {
        let text = "[[allow]]\nlint = \"D001\"\npath = \"x.rs\"\nreason = \"  \"\n";
        assert!(parse(text).unwrap_err().contains("non-empty"));
    }

    #[test]
    fn missing_reason_unknown_lint_unknown_key() {
        assert!(parse("[[allow]]\nlint = \"D001\"\npath = \"x.rs\"\n")
            .unwrap_err()
            .contains("missing `reason`"));
        assert!(
            parse("[[allow]]\nlint = \"Z999\"\npath = \"x\"\nreason = \"r\"\n")
                .unwrap_err()
                .contains("unknown lint id")
        );
        assert!(
            parse("[[allow]]\nlint = \"D001\"\nfile = \"x\"\nreason = \"r\"\n")
                .unwrap_err()
                .contains("unknown key")
        );
    }

    #[test]
    fn bare_values_and_foreign_sections_rejected() {
        assert!(parse("[[allow]]\nlint = D001\n").is_err());
        assert!(parse("[lints]\n")
            .unwrap_err()
            .contains("unsupported section"));
    }

    #[test]
    fn matching_path_prefix_and_contains() {
        let f = finding("P001", "crates/network/src/flow.rs", "x.expect(\"live\")");
        assert!(entry("P001", "crates/network/src/flow.rs", None).matches(&f));
        assert!(entry("P001", "crates/network/src/", None).matches(&f));
        assert!(entry("P001", "crates/network/src/flow.rs", Some("expect(")).matches(&f));
        assert!(!entry("P001", "crates/network/src/flow.rs", Some("unwrap(")).matches(&f));
        assert!(!entry("D001", "crates/network/src/flow.rs", None).matches(&f));
        assert!(!entry("P001", "crates/network/", None).matches(&finding(
            "P001",
            "crates/net",
            ""
        )));
    }

    #[test]
    fn apply_reports_stale_entries() {
        let entries = vec![
            entry("P001", "crates/network/src/flow.rs", None),
            entry("D001", "crates/nowhere.rs", None),
        ];
        let findings = vec![finding("P001", "crates/network/src/flow.rs", "a.unwrap()")];
        let applied = apply(findings, &entries);
        assert_eq!(applied.suppressed, 1);
        assert!(applied.unsuppressed.is_empty());
        assert_eq!(applied.stale.len(), 1);
        assert_eq!(applied.stale[0].path, "crates/nowhere.rs");
    }
}
