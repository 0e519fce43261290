//! Repo-invariant source lint.
//!
//! Four static rules over the workspace source (scanned roots and
//! allowlists configured in `crates/check/lint.toml`):
//!
//! 1. **`relaxed-justified`** — every `Ordering::Relaxed` site must carry
//!    an `// ordering:` justification comment on the same line or within
//!    the five lines above it, or be allowlisted with a written
//!    justification.
//! 2. **`hot-path-unwrap`** — `.unwrap()` is banned in the configured
//!    hot-path files; `.expect("invariant message")` is the sanctioned
//!    replacement.  Test regions (`#[cfg(test)]` or `#[cfg(all(test, …))]`
//!    onwards) are exempt.
//! 3. **`trace-paired`** — every `TraceEvent` emission
//!    (`emit(TraceEvent::X)` / `control(TraceEvent::X)`) of a variant in
//!    the configured pairing map must have its counter token within ±10
//!    lines: the source-level form of the flight recorder's
//!    exact-reconstruction invariant (a drained trace re-derives the
//!    metric totals, so an emission without its counter — or vice versa —
//!    silently breaks reconstruction).
//! 4. **`layering-ban`** — a configured line substring is banned under a
//!    path prefix, each ban with a written justification: the checkable
//!    form of the architecture's layering (e.g. the simulator calls the
//!    core traversal step and never restates it with `.next_child()`).
//!    Test regions are exempt.
//!
//! Violations carry `file:line` so CI output names the offending site
//! exactly.  The config parser enforces that every allowlist entry has a
//! non-empty `justification`.
//!
//! The config format is the small TOML subset parsed by [`parse_config`]:
//! `[[section]]` array-of-table headers, `key = "string"` pairs, and `#`
//! comments — no external TOML dependency.

use std::fmt;
use std::path::{Path, PathBuf};

/// A single lint violation, pointing at the offending source site.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One allowlist entry; `file` is matched as a path suffix and `contains`
/// as a line substring.  `justification` is mandatory (enforced at parse).
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub file: String,
    pub contains: String,
    pub justification: String,
}

/// One banned line substring under a path prefix; `justification` (why
/// the layering forbids it) is mandatory and printed with each violation.
#[derive(Debug, Clone)]
pub struct BanEntry {
    pub path: String,
    pub contains: String,
    pub justification: String,
}

/// One `TraceEvent` variant → counter-token pairing.
#[derive(Debug, Clone)]
pub struct TracePair {
    pub variant: String,
    pub counter: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Directories scanned for `.rs` files (workspace-relative).
    pub scan_roots: Vec<String>,
    /// Path prefixes where the unwrap ban applies.
    pub hot_paths: Vec<String>,
    pub allow_relaxed: Vec<AllowEntry>,
    pub allow_unwrap: Vec<AllowEntry>,
    pub trace_pairs: Vec<TracePair>,
    pub bans: Vec<BanEntry>,
}

/// How many lines above a `Relaxed` site the `// ordering:` comment may
/// sit (multi-line call chains put the comment above the expression).
const ORDERING_COMMENT_WINDOW: usize = 5;
/// Half-window for the emission/counter pairing rule.
const TRACE_PAIR_WINDOW: usize = 10;

// ---------------------------------------------------------------------------
// Config parsing (minimal TOML subset)
// ---------------------------------------------------------------------------

enum Section {
    Scan,
    HotPath,
    AllowRelaxed,
    AllowUnwrap,
    TracePair,
    Ban,
}

/// Parse the `lint.toml` subset: `[[section]]` headers, `key = "value"`
/// string pairs, `#` comments.  Rejects unknown sections/keys and allow or
/// ban entries without a written justification.
pub fn parse_config(text: &str) -> Result<LintConfig, String> {
    let mut cfg = LintConfig::default();
    let mut section: Option<Section> = None;
    // Pending entry fields, flushed when the next header (or EOF) arrives.
    let mut path = String::new();
    let mut file = String::new();
    let mut contains = String::new();
    let mut justification = String::new();
    let mut variant = String::new();
    let mut counter = String::new();

    #[allow(clippy::too_many_arguments)] // one slot per pending-entry field
    fn flush(
        cfg: &mut LintConfig,
        section: &Option<Section>,
        path: &mut String,
        file: &mut String,
        contains: &mut String,
        justification: &mut String,
        variant: &mut String,
        counter: &mut String,
    ) -> Result<(), String> {
        match section {
            None => {}
            Some(Section::Scan) => {
                if path.is_empty() {
                    return Err("[[scan]] entry missing `path`".to_string());
                }
                cfg.scan_roots.push(std::mem::take(path));
            }
            Some(Section::HotPath) => {
                if path.is_empty() {
                    return Err("[[hot_path]] entry missing `path`".to_string());
                }
                cfg.hot_paths.push(std::mem::take(path));
            }
            Some(Section::AllowRelaxed) | Some(Section::AllowUnwrap) => {
                if file.is_empty() || contains.is_empty() {
                    return Err("allow entry missing `file` or `contains`".to_string());
                }
                if justification.trim().is_empty() {
                    return Err(format!(
                        "allow entry for `{file}` / `{contains}` has no written justification"
                    ));
                }
                let entry = AllowEntry {
                    file: std::mem::take(file),
                    contains: std::mem::take(contains),
                    justification: std::mem::take(justification),
                };
                if matches!(section, Some(Section::AllowRelaxed)) {
                    cfg.allow_relaxed.push(entry);
                } else {
                    cfg.allow_unwrap.push(entry);
                }
            }
            Some(Section::TracePair) => {
                if variant.is_empty() || counter.is_empty() {
                    return Err("[[trace_pair]] entry missing `variant` or `counter`".to_string());
                }
                cfg.trace_pairs.push(TracePair {
                    variant: std::mem::take(variant),
                    counter: std::mem::take(counter),
                });
            }
            Some(Section::Ban) => {
                if path.is_empty() || contains.is_empty() {
                    return Err("[[ban]] entry missing `path` or `contains`".to_string());
                }
                if justification.trim().is_empty() {
                    return Err(format!(
                        "ban of `{contains}` under `{path}` has no written justification"
                    ));
                }
                cfg.bans.push(BanEntry {
                    path: std::mem::take(path),
                    contains: std::mem::take(contains),
                    justification: std::mem::take(justification),
                });
            }
        }
        Ok(())
    }

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            flush(
                &mut cfg,
                &section,
                &mut path,
                &mut file,
                &mut contains,
                &mut justification,
                &mut variant,
                &mut counter,
            )?;
            section = Some(match name {
                "scan" => Section::Scan,
                "hot_path" => Section::HotPath,
                "allow_relaxed" => Section::AllowRelaxed,
                "allow_unwrap" => Section::AllowUnwrap,
                "trace_pair" => Section::TracePair,
                "ban" => Section::Ban,
                other => return Err(format!("line {}: unknown section [[{other}]]", idx + 1)),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = \"value\"`", idx + 1));
        };
        let key = key.trim();
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("line {}: value must be a double-quoted string", idx + 1))?
            .to_string();
        match key {
            "path" => path = value,
            "file" => file = value,
            "contains" => contains = value,
            "justification" => justification = value,
            "variant" => variant = value,
            "counter" => counter = value,
            other => return Err(format!("line {}: unknown key `{other}`", idx + 1)),
        }
    }
    flush(
        &mut cfg,
        &section,
        &mut path,
        &mut file,
        &mut contains,
        &mut justification,
        &mut variant,
        &mut counter,
    )?;
    Ok(cfg)
}

// ---------------------------------------------------------------------------
// Per-file scanning
// ---------------------------------------------------------------------------

fn allowlisted(entries: &[AllowEntry], file: &str, line: &str) -> bool {
    entries
        .iter()
        .any(|e| file.ends_with(&e.file) && line.contains(&e.contains))
}

fn extract_variant(line: &str) -> Option<&str> {
    let start = line.find("TraceEvent::")? + "TraceEvent::".len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Lint one file's content.  `file` is the workspace-relative path used in
/// violation messages and allowlist matching.
pub fn lint_file(file: &str, content: &str, cfg: &LintConfig) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    // Test modules sit at the end of files in this workspace; everything
    // from the first `#[cfg(test)]` or `#[cfg(all(test, …))]` on is exempt
    // from all four rules.
    let test_start = lines
        .iter()
        .position(|l| {
            let l = l.trim_start();
            l.starts_with("#[cfg(test)]") || l.starts_with("#[cfg(all(test,")
        })
        .unwrap_or(lines.len());
    let hot = cfg.hot_paths.iter().any(|p| file.starts_with(p.as_str()));
    let mut violations = Vec::new();

    for (i, raw) in lines.iter().enumerate().take(test_start) {
        let line = raw.trim_start();
        let lineno = i + 1;
        let is_comment = line.starts_with("//");

        if !is_comment && line.contains("Ordering::Relaxed") {
            let lo = i.saturating_sub(ORDERING_COMMENT_WINDOW);
            let justified = lines[lo..=i].iter().any(|l| l.contains("ordering:"));
            if !justified && !allowlisted(&cfg.allow_relaxed, file, raw) {
                violations.push(Violation {
                    file: file.to_string(),
                    line: lineno,
                    rule: "relaxed-justified",
                    message: "Ordering::Relaxed without an `// ordering:` justification \
                              comment (or crates/check/lint.toml allowlist entry)"
                        .to_string(),
                });
            }
        }

        if hot
            && !is_comment
            && line.contains(".unwrap()")
            && !allowlisted(&cfg.allow_unwrap, file, raw)
        {
            violations.push(Violation {
                file: file.to_string(),
                line: lineno,
                rule: "hot-path-unwrap",
                message: "unwrap() in a hot path: use expect(\"<invariant>\") or return \
                          an Error (or allowlist with justification)"
                    .to_string(),
            });
        }

        if !is_comment {
            for ban in &cfg.bans {
                if file.starts_with(ban.path.as_str()) && line.contains(&ban.contains) {
                    violations.push(Violation {
                        file: file.to_string(),
                        line: lineno,
                        rule: "layering-ban",
                        message: format!(
                            "`{}` is banned here: {}",
                            ban.contains, ban.justification
                        ),
                    });
                }
            }
        }

        if !is_comment
            && (line.contains("emit(TraceEvent::") || line.contains("control(TraceEvent::"))
        {
            if let Some(variant) = extract_variant(line) {
                if let Some(pair) = cfg.trace_pairs.iter().find(|p| p.variant == variant) {
                    let lo = i.saturating_sub(TRACE_PAIR_WINDOW);
                    let hi = (i + TRACE_PAIR_WINDOW).min(test_start.saturating_sub(1));
                    let paired = lines[lo..=hi].iter().any(|l| l.contains(&pair.counter));
                    if !paired {
                        violations.push(Violation {
                            file: file.to_string(),
                            line: lineno,
                            rule: "trace-paired",
                            message: format!(
                                "TraceEvent::{variant} emission without its `{}` counter \
                                 within {TRACE_PAIR_WINDOW} lines (exact-reconstruction \
                                 invariant)",
                                pair.counter
                            ),
                        });
                    }
                }
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan the configured roots under `workspace_root`, returning all
/// violations in deterministic (path, line) order.
pub fn scan(workspace_root: &Path, cfg: &LintConfig) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for root in &cfg.scan_roots {
        let dir = workspace_root.join(root);
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        for path in files {
            let rel = path
                .strip_prefix(workspace_root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let content = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            violations.extend(lint_file(&rel, &content, cfg));
        }
    }
    Ok(violations)
}

/// Load `crates/check/lint.toml` under `workspace_root` and run the scan.
pub fn run(workspace_root: &Path) -> Result<Vec<Violation>, String> {
    let config_path = workspace_root.join("crates/check/lint.toml");
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("read {}: {e}", config_path.display()))?;
    let cfg = parse_config(&text)?;
    scan(workspace_root, &cfg)
}
