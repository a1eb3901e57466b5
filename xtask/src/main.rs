//! Repo automation tasks (`cargo run -p xtask -- <task>`).
//!
//! `sync-lint` — static source pass over the modules ported onto the
//! `retroweb_sync` facade. Those modules must stay on the facade so the
//! model checker (`crates/conc-check`, built with `--cfg conc_check`)
//! keeps seeing every synchronisation op; a direct `std::sync` /
//! `std::thread` use there is an instrumentation hole, invisible to the
//! checker. The pass also flags `Ordering::Relaxed` on any atomic not
//! annotated as a counter: `Relaxed` is only sound here for monotonic
//! stats counters that no control flow depends on, and the annotation
//! (`// sync-lint: counter`) makes that claim reviewable in place.
//!
//! Escapes:
//! - `#[cfg(test)]` (or any test-gated) modules are skipped — tests may
//!   use real std primitives for timing-based assertions.
//! - `// sync-lint: counter` on the offending line or the line above
//!   allows a `Relaxed` access (monotonic counter claim).
//! - `// sync-lint: allow(std)` on the offending line or the line above
//!   allows a direct std use (must say why next to it).
//!
//! `sync-lint --all` additionally audits every crate source file in the
//! repo and prints an advisory inventory of files still using raw
//! `std::sync`/`std::thread` outside the facade (exit code unaffected:
//! only ported-module violations fail the build).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Modules ported onto the `retroweb_sync` facade; the lint is a hard
/// gate for these (CI runs it). Extend this list when porting more.
const PORTED: &[&str] = &["crates/core/src/store.rs", "crates/core/src/wal.rs"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sync-lint") => sync_lint(args.iter().any(|a| a == "--all")),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (try `sync-lint`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("xtask: no task given (try `sync-lint`)");
            ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // xtask lives at <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask has a parent dir").to_path_buf()
}

fn sync_lint(audit_all: bool) -> ExitCode {
    let root = repo_root();
    let mut violations = Vec::new();
    for rel in PORTED {
        let path = root.join(rel);
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("sync-lint: cannot read {rel}: {err}");
                return ExitCode::FAILURE;
            }
        };
        violations.extend(lint_file(rel, &source));
    }

    if audit_all {
        audit_repo(&root);
    }

    if violations.is_empty() {
        println!("sync-lint: {} ported module(s) clean", PORTED.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("sync-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Advisory inventory: every crate source file (outside the facade and
/// the ported set) still using raw std sync/thread primitives.
fn audit_repo(root: &Path) {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    files.sort();
    let mut hits = 0usize;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        if PORTED.contains(&rel.as_str()) || rel.starts_with("crates/conc-check/") {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(&path) else { continue };
        let mut uses = 0usize;
        for (line, _) in code_lines(&source) {
            if line.contains("std::sync") || line.contains("std::thread") {
                uses += 1;
            }
        }
        if uses > 0 {
            println!("audit: {rel}: {uses} raw std sync/thread use(s) (not yet on the facade)");
            hits += 1;
        }
    }
    if hits == 0 {
        println!("audit: no raw std sync/thread uses outside the ported modules");
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Yields `(line, 1-based number)` for non-test, non-comment source
/// lines. Test-gated modules are tracked by brace depth from the
/// `#[cfg(...test...)] mod` header to its closing brace.
fn code_lines(source: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut test_gate_pending = false;
    let mut test_mod_depth: Option<i32> = None;
    for (idx, raw) in source.lines().enumerate() {
        let line = strip_comment(raw);
        let trimmed = line.trim();
        if test_mod_depth.is_none() {
            if trimmed.starts_with("#[cfg(") && trimmed.contains("test") {
                test_gate_pending = true;
            } else if test_gate_pending
                && (trimmed.starts_with("mod ") || trimmed.starts_with("pub mod "))
            {
                test_mod_depth = Some(depth);
                test_gate_pending = false;
            } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                test_gate_pending = false;
            }
        }
        let in_test = test_mod_depth.is_some();
        depth += braces(line);
        if test_mod_depth.is_some_and(|entry| depth <= entry) {
            test_mod_depth = None;
        }
        if !in_test && !trimmed.is_empty() {
            out.push((line, idx + 1));
        }
    }
    out
}

/// Net brace delta of a line, ignoring braces inside string literals
/// (good enough for rustfmt-formatted source).
fn braces(line: &str) -> i32 {
    let mut delta = 0i32;
    let mut in_str = false;
    let mut prev = '\0';
    for c in line.chars() {
        match c {
            '"' if prev != '\\' => in_str = !in_str,
            '{' if !in_str => delta += 1,
            '}' if !in_str => delta -= 1,
            _ => {}
        }
        prev = if prev == '\\' && c == '\\' { '\0' } else { c };
    }
    delta
}

/// The line with any trailing `//` comment removed (string-literal
/// aware), so commented-out or documented mentions never trip the lint
/// — markers are read from the *raw* line elsewhere.
fn strip_comment(raw: &str) -> &str {
    let bytes = raw.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &raw[..i];
            }
            _ => {}
        }
        i += 1;
    }
    raw
}

fn has_marker(source: &str, number: usize, marker: &str) -> bool {
    let lines: Vec<&str> = source.lines().collect();
    let own = lines.get(number - 1).is_some_and(|l| l.contains(marker));
    let above = number >= 2 && lines.get(number - 2).is_some_and(|l| l.contains(marker));
    own || above
}

fn lint_file(rel: &str, source: &str) -> Vec<String> {
    let mut violations = Vec::new();
    for (line, number) in code_lines(source) {
        if (line.contains("std::sync") || line.contains("std::thread"))
            && !has_marker(source, number, "sync-lint: allow(std)")
        {
            violations.push(format!(
                "{rel}:{number}: direct std sync/thread use in a ported module — \
                 go through `retroweb_sync` (or justify with `// sync-lint: allow(std)`)"
            ));
        }
        if line.contains("Ordering::Relaxed") && !has_marker(source, number, "sync-lint: counter") {
            violations.push(format!(
                "{rel}:{number}: `Ordering::Relaxed` on a non-counter atomic — use SeqCst, \
                 or mark a monotonic stats counter with `// sync-lint: counter`"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_raw_std_and_unmarked_relaxed() {
        let src = "use std::sync::Mutex;\nx.load(Ordering::Relaxed);\n";
        let v = lint_file("f.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("f.rs:1"));
        assert!(v[1].contains("f.rs:2"));
    }

    #[test]
    fn markers_allow_counters_and_deliberate_std() {
        let src = "\
// sync-lint: allow(std) — timing helper, not modelled state
use std::thread;
hits.fetch_add(1, Ordering::Relaxed); // sync-lint: counter
";
        assert!(lint_file("f.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    fn t() { x.load(Ordering::Relaxed); }
}
";
        assert!(lint_file("f.rs", src).is_empty());
    }

    #[test]
    fn code_resumes_after_test_module() {
        let src = "\
#[cfg(all(test, unix))]
mod tests {
    use std::thread;
}
use std::sync::Arc;
";
        let v = lint_file("f.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("f.rs:5"));
    }

    #[test]
    fn comments_never_trip_the_lint() {
        let src = "//! plain `std::sync` primitives, no\nlet x = 1; // see std::thread docs\n";
        assert!(lint_file("f.rs", src).is_empty());
    }
}
