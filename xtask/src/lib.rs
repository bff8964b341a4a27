//! Offline repo-invariant lint: dependency-free lexical checks over
//! `crates/*/src` and `src/` (test code excluded; `tests/` is read only to
//! find which `RAVEN_*` variables are still in use), run as
//! `cargo run -p xtask -- lint` and wired into CI ahead of the test suite.
//!
//! Three rules, each enforcing a convention the codebase already relies on:
//!
//! * **`env-read`** — every `RAVEN_*` environment variable must be read
//!   through the central cached-accessor registry
//!   (`crates/columnar/src/envcfg.rs`). A raw `std::env::var("RAVEN_…")`
//!   anywhere else re-reads the environment (taking the process-wide env
//!   lock) on paths that run per query — the double-read drift this PR
//!   fixed in `cost.rs` / `pool.rs` / `flat.rs`.
//! * **`serve-panic`** — no `.unwrap()` / `.expect(` in non-test
//!   `crates/serve` code: a panic on the serving hot path poisons the locks
//!   every worker shares. The poison-recovering helpers in
//!   `crates/serve/src/sync.rs` are the sanctioned replacements
//!   (`unwrap_or…` / `unreachable!` remain allowed — they don't panic on
//!   `Err`/`None` data).
//! * **`env-doc`** — every `RAVEN_*` variable mentioned anywhere in the
//!   sources must have a row in the authoritative environment-variable
//!   table in the facade crate's `src/lib.rs` (the section starting
//!   `//! ## Environment variables`), and every row of that table must name
//!   a variable that some file under `crates/*/src` or `tests/` still
//!   mentions, so the table can go stale in neither direction (a deleted
//!   knob cannot leave its row behind).
//!
//! The scanner is lexical, not syntactic: comments and string/char literals
//! are blanked by a small Rust lexer (newlines preserved, so reported line
//! numbers are exact) and `#[cfg(test)]`-attached blocks are stripped by
//! brace matching before the rules run.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`env-read`, `serve-panic`, `env-doc`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Lint the repository rooted at `root`. Returns every violation found;
/// an empty vector means the tree is clean.
pub fn lint_repo(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_rs(&facade_src, &mut files)?;
    }

    let tests_dir = root.join("tests");
    if tests_dir.is_dir() {
        collect_rs(&tests_dir, &mut files)?;
    }
    files.sort();

    let doc_table = std::fs::read_to_string(root.join("src/lib.rs")).unwrap_or_default();
    let documented = documented_env_vars(&doc_table);

    let mut out = Vec::new();
    // every RAVEN_* token anywhere (tests and comments included) in the
    // files a table row may be kept alive by
    let mut mentioned: Vec<String> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let is_test = rel.starts_with("tests");
        if is_test || rel.starts_with("crates") {
            mentioned.extend(raven_tokens(&text));
        }
        if !is_test {
            out.extend(lint_file(&rel, &text, &documented));
        }
    }
    out.extend(stale_env_rows(&doc_table, &mentioned));
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one file's text. `rel` is the repo-relative path (used for rule
/// scoping and reports); `documented` is the set of `RAVEN_*` names the
/// facade table declares. Exposed for the unit tests, which feed seeded
/// violations as strings.
pub fn lint_file(rel: &Path, text: &str, documented: &[String]) -> Vec<Violation> {
    let blanked = blank_comments_and_strings(text);
    let code = strip_cfg_test(&blanked);
    // Same test regions removed from the original text (strings intact) for
    // the rules that need literal contents.
    let original_nontest = apply_blanks(text, &blanked, &code);

    let mut out = Vec::new();
    rule_env_read(rel, text, &code, &mut out);
    rule_serve_panic(rel, &code, &mut out);
    rule_env_doc(rel, &original_nontest, documented, &mut out);
    out
}

/// The env-var table section of the facade `src/lib.rs`: from
/// `//! ## Environment variables` to the next `//! ##` heading (or end of
/// file), with its byte offset in `lib_rs`.
fn env_table_section(lib_rs: &str) -> Option<(usize, &str)> {
    let start = lib_rs.find("//! ## Environment variables")?;
    let section = &lib_rs[start..];
    let end = section[4..]
        .find("//! ##")
        .map(|i| i + 4)
        .unwrap_or(section.len());
    Some((start, &section[..end]))
}

/// The `RAVEN_*` names declared in the facade `src/lib.rs` env-var table:
/// every token in its doc section.
pub fn documented_env_vars(lib_rs: &str) -> Vec<String> {
    let Some((_, section)) = env_table_section(lib_rs) else {
        return Vec::new();
    };
    let mut vars = raven_tokens(section);
    vars.sort();
    vars.dedup();
    vars
}

/// The reverse `env-doc` direction: one violation (reported at the row's
/// line in `src/lib.rs`) per variable the env-var table documents that no
/// entry of `mentioned` — the `RAVEN_*` tokens found under `crates/*/src`
/// and `tests/` — names any more.
pub fn stale_env_rows(lib_rs: &str, mentioned: &[String]) -> Vec<Violation> {
    let Some((start, section)) = env_table_section(lib_rs) else {
        return Vec::new();
    };
    raven_tokens(section)
        .into_iter()
        .filter(|var| !mentioned.contains(var))
        .map(|var| {
            let pos = start + section.find(&var).unwrap_or(0);
            Violation {
                file: PathBuf::from("src/lib.rs"),
                line: line_of(lib_rs, pos),
                rule: "env-doc",
                message: format!(
                    "`{var}` has a row in the environment-variable table but no file under \
                     crates/*/src or tests/ mentions it; delete the stale row"
                ),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// rules
// ---------------------------------------------------------------------------

/// Files allowed to read `RAVEN_*` from the environment directly.
const ENV_READ_ALLOWED: &str = "crates/columnar/src/envcfg.rs";

fn rule_env_read(rel: &Path, text: &str, code: &str, out: &mut Vec<Violation>) {
    if rel == Path::new(ENV_READ_ALLOWED) {
        return;
    }
    let mut from = 0;
    while let Some(i) = code[from..].find("env::var") {
        let pos = from + i;
        from = pos + "env::var".len();
        // the call's argument lives in the original text (strings were
        // blanked); look a short window ahead for a RAVEN_ literal
        let window = &text[pos..(pos + 120).min(text.len())];
        if window.contains("\"RAVEN_") {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: line_of(text, pos),
                rule: "env-read",
                message: format!(
                    "raw RAVEN_* environment read; use a raven_columnar::envcfg \
                     accessor ({ENV_READ_ALLOWED})"
                ),
            });
        }
    }
}

fn rule_serve_panic(rel: &Path, code: &str, out: &mut Vec<Violation>) {
    // the crates on the serving path: a panic inside them poisons shared
    // locks (serve) or turns an injectable I/O fault into a process abort
    // instead of a typed error (storage)
    if !rel.starts_with("crates/serve/src") && !rel.starts_with("crates/storage/src") {
        return;
    }
    for needle in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(i) = code[from..].find(needle) {
            let pos = from + i;
            from = pos + needle.len();
            out.push(Violation {
                file: rel.to_path_buf(),
                line: line_of(code, pos),
                rule: "serve-panic",
                message: format!(
                    "`{needle}` in non-test serving-path code; a panic here poisons \
                     shared locks or escalates injectable I/O faults to aborts — \
                     use plock-style helpers or surface a typed error"
                ),
            });
        }
    }
}

fn rule_env_doc(
    rel: &Path,
    original_nontest: &str,
    documented: &[String],
    out: &mut Vec<Violation>,
) {
    for var in raven_tokens(original_nontest) {
        if !documented.iter().any(|d| d == &var) {
            let pos = original_nontest.find(&var).unwrap_or(0);
            out.push(Violation {
                file: rel.to_path_buf(),
                line: line_of(original_nontest, pos),
                rule: "env-doc",
                message: format!(
                    "`{var}` is not documented in the src/lib.rs environment-variable table"
                ),
            });
        }
    }
}

/// Every distinct `RAVEN_[A-Z0-9_]+` token in `text`, in first-seen order.
fn raven_tokens(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out: Vec<String> = Vec::new();
    let mut from = 0;
    while let Some(i) = text[from..].find("RAVEN_") {
        let start = from + i;
        // must not be the tail of a longer identifier (e.g. `MY_RAVEN_X`)
        let standalone =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let mut end = start + "RAVEN_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        from = end;
        if !standalone || end == start + "RAVEN_".len() {
            continue; // bare "RAVEN_" prefix (e.g. in this lint's own docs)
        }
        let tok = text[start..end].trim_end_matches('_').to_string();
        if !out.contains(&tok) {
            out.push(tok);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// lexical preprocessing
// ---------------------------------------------------------------------------

/// 1-based line number of byte offset `pos`.
fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()[..pos]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Replace the contents of comments and string/char literals with spaces,
/// preserving every newline so byte offsets map to the same lines.
pub fn blank_comments_and_strings(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    let blank = |out: &mut [u8], range: std::ops::Range<usize>| {
        for j in range {
            if out[j] != b'\n' {
                out[j] = b' ';
            }
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = text[i..].find('\n').map(|n| i + n).unwrap_or(b.len());
                blank(&mut out, i..end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i..j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    if b[j] == b'\\' {
                        j += 2;
                    } else if b[j] == b'"' {
                        j += 1;
                        break;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i + 1..j.saturating_sub(1).max(i + 1));
                i = j;
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // raw string r"..." / r#"..."# / r##"..."## ...
                let mut hashes = 0;
                let mut j = i + 1;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    let open = j + 1;
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    let close = text[open..]
                        .find(std::str::from_utf8(&closer).unwrap_or("\""))
                        .map(|n| open + n)
                        .unwrap_or(b.len());
                    blank(&mut out, open..close);
                    i = (close + closer.len()).min(b.len());
                } else {
                    i += 1; // identifier starting with r
                }
            }
            b'\'' => {
                // char literal or lifetime: a lifetime is ' + ident with no
                // closing quote right after
                if i + 2 < b.len()
                    && (b[i + 1].is_ascii_alphanumeric() || b[i + 1] == b'_')
                    && b[i + 2] != b'\''
                {
                    i += 2; // lifetime like 'a or 'static
                } else {
                    let mut j = i + 1;
                    if j < b.len() && b[j] == b'\\' {
                        j += 2;
                    } else {
                        j += 1;
                    }
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    let end = (j + 1).min(b.len());
                    blank(&mut out, i + 1..end.saturating_sub(1).max(i + 1));
                    i = end;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| text.to_string())
}

/// Blank every `#[cfg(test)]`-attached item (attribute through the matching
/// close brace or terminating semicolon) in already-blanked text.
pub fn strip_cfg_test(blanked: &str) -> String {
    let mut out = blanked.as_bytes().to_vec();
    let b = blanked.as_bytes();
    let mut from = 0;
    while let Some(i) = blanked[from..].find("#[cfg(test)]") {
        let start = from + i;
        let mut j = start + "#[cfg(test)]".len();
        // scan to the item's opening brace (skipping further attributes and
        // the item header) or a semicolon (e.g. `mod tests;`)
        let mut depth = 0usize;
        let mut opened = false;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    depth += 1;
                    opened = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        j += 1;
                        break;
                    }
                }
                b';' if !opened => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for k in start..j.min(out.len()) {
            if out[k] != b'\n' {
                out[k] = b' ';
            }
        }
        from = j.min(blanked.len());
    }
    String::from_utf8(out).unwrap_or_else(|_| blanked.to_string())
}

/// Project the blanking that `strip_cfg_test` applied onto the ORIGINAL
/// text: wherever `code` differs from `blanked` (a stripped test region),
/// blank the original too — leaving non-test original text (strings and
/// comments included) for rules that need literal contents.
fn apply_blanks(text: &str, blanked: &str, code: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    for (i, (bb, cb)) in blanked.bytes().zip(code.bytes()).enumerate() {
        if bb != cb && i < out.len() && out[i] != b'\n' {
            out[i] = b' ';
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<String> {
        vec!["RAVEN_SCORER".into(), "RAVEN_VERIFY".into()]
    }

    #[test]
    fn blanking_preserves_lines_and_code() {
        let src = "let a = 1; // RAVEN_X in comment\nlet s = \"RAVEN_Y\";\n";
        let blanked = blank_comments_and_strings(src);
        assert_eq!(blanked.lines().count(), src.lines().count());
        assert!(blanked.contains("let a = 1;"));
        assert!(!blanked.contains("RAVEN_X"));
        assert!(!blanked.contains("RAVEN_Y"));
    }

    #[test]
    fn cfg_test_blocks_are_stripped() {
        let src = "fn live() { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap() }\n}\nfn also_live() {}\n";
        let code = strip_cfg_test(&blank_comments_and_strings(src));
        assert!(code.contains("fn live"));
        assert!(code.contains("fn also_live"));
        assert!(!code.contains("fn t()"));
    }

    #[test]
    fn env_read_rule_flags_raw_reads_and_spares_envcfg() {
        let bad = "fn f() { let v = std::env::var(\"RAVEN_SCORER\"); }\n";
        let v = lint_file(Path::new("crates/ml/src/x.rs"), bad, &docs());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "env-read");
        assert_eq!(v[0].line, 1);
        // same text inside the registry is allowed
        let ok = lint_file(Path::new("crates/columnar/src/envcfg.rs"), bad, &docs());
        assert!(ok.iter().all(|v| v.rule != "env-read"), "{ok:?}");
        // non-RAVEN env reads are fine anywhere
        let other = "fn f() { let v = std::env::var(\"HOME\"); }\n";
        assert!(lint_file(Path::new("crates/ml/src/x.rs"), other, &docs()).is_empty());
        // test code is exempt
        let test_only =
            "#[cfg(test)]\nmod tests {\n  fn f() { let _ = std::env::var(\"RAVEN_SCORER\"); }\n}\n";
        assert!(lint_file(Path::new("crates/ml/src/x.rs"), test_only, &docs()).is_empty());
    }

    #[test]
    fn serve_panic_rule_scopes_to_serve_nontest() {
        let bad = "fn f() { q.lock().unwrap(); r.lock().expect(\"oops\"); }\n";
        let v = lint_file(Path::new("crates/serve/src/server.rs"), bad, &[]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "serve-panic"));
        // the durable-storage crate is on the serving path too: every I/O
        // fault must surface as a typed error, never a panic
        let sv = lint_file(Path::new("crates/storage/src/store.rs"), bad, &[]);
        assert_eq!(sv.len(), 2, "{sv:?}");
        // other crates may unwrap
        assert!(lint_file(Path::new("crates/ml/src/x.rs"), bad, &[]).is_empty());
        // unwrap_or / unreachable are allowed in serve
        let ok = "fn f() { q.recv().unwrap_or(0); unreachable!(); }\n";
        assert!(lint_file(Path::new("crates/serve/src/server.rs"), ok, &[]).is_empty());
        // `.expect(` mentioned in a doc comment is not a violation
        let doc = "//! callers used to `.expect(\"poisoned\")` here\nfn f() {}\n";
        assert!(lint_file(Path::new("crates/serve/src/sync.rs"), doc, &[]).is_empty());
    }

    #[test]
    fn env_doc_rule_requires_table_rows() {
        let src = "fn f() { let _ = (\"RAVEN_SCORER\", \"RAVEN_UNDOCUMENTED\"); }\n";
        let v = lint_file(Path::new("crates/ml/src/x.rs"), src, &docs());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "env-doc");
        assert!(v[0].message.contains("RAVEN_UNDOCUMENTED"));
    }

    #[test]
    fn env_doc_rule_flags_stale_table_rows() {
        let lib = "//! ## Environment variables\n//!\n//! | `RAVEN_SCORER=interpreted` | x |\n//! | `RAVEN_GONE=on` | y |\n//!\n//! ## Quickstart\n";
        let mentioned = vec!["RAVEN_SCORER".to_string(), "RAVEN_ELSEWHERE".into()];
        let v = stale_env_rows(lib, &mentioned);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "env-doc");
        assert_eq!(v[0].file, PathBuf::from("src/lib.rs"));
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("RAVEN_GONE"));
        // every row still mentioned: clean
        let all = vec!["RAVEN_SCORER".to_string(), "RAVEN_GONE".into()];
        assert!(stale_env_rows(lib, &all).is_empty());
    }

    #[test]
    fn documented_vars_parse_from_table_section() {
        let lib = "//! # raven\n//!\n//! ## Environment variables\n//!\n//! | `RAVEN_SCORER` | x |\n//! | `RAVEN_VERIFY` | y |\n//!\n//! ## Quickstart\n//! RAVEN_NOT_A_ROW\n";
        let vars = documented_env_vars(lib);
        assert_eq!(
            vars,
            vec!["RAVEN_SCORER".to_string(), "RAVEN_VERIFY".into()]
        );
    }

    #[test]
    fn raven_token_extraction() {
        let toks = raven_tokens("RAVEN_A, MY_RAVEN_B, RAVEN_, RAVEN_C_ RAVEN_A");
        assert_eq!(toks, vec!["RAVEN_A".to_string(), "RAVEN_C".into()]);
    }

    #[test]
    fn the_repo_itself_is_clean() {
        // xtask sits one level under the workspace root
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .to_path_buf();
        let violations = lint_repo(&root).expect("lint walks the repo");
        assert!(
            violations.is_empty(),
            "repo lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
