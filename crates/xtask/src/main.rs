//! Repo automation tasks. Currently one: `cargo run -p xtask -- lint`.
//!
//! The linter enforces the repo's concurrency-hygiene rules with plain
//! line-oriented text analysis (no proc-macro parsing, no external
//! dependencies — the container has no registry access):
//!
//! * `std-sync` — `std::sync::{Mutex, RwLock, Condvar}` are forbidden
//!   everywhere; use the tracked wrappers in `pmp_common::sync` (or
//!   `parking_lot` where the linter permits it).
//! * `raw-sleep` — `thread::sleep` is forbidden in non-test library code.
//!   Timed waiting belongs to `pmp_rdma::clock` (the simulated-latency
//!   charge point) or `pmp_common::sync::Shutdown` (interruptible waits).
//! * `raw-instant` — `Instant::now` is forbidden in non-test library code;
//!   the simulation charges virtual latency, so real-clock reads in data
//!   paths are almost always a bug.
//! * `raw-parking-lot` — direct `parking_lot` use is forbidden in the
//!   migrated crates (`common`, `engine`, `pmfs`, `storage`): new locks
//!   there must be `Tracked*` with a `LockClass`.
//! * `unsafe-safety` — every `unsafe` must carry a `// SAFETY:` comment
//!   within the three preceding lines.
//! * `direct-page-read` — `PageStore::read` is forbidden in engine library
//!   code: page reads on engine paths must go through the `pmp-io` ring
//!   (`IoRing::read_page`, `submit_with`, or a prefetch) so the charged
//!   storage latency elapses off-thread and loads overlap.
//! * `sequential-fanout` — single-verb `read_u64` / `write_u64` calls (on
//!   the raw or the replicated fabric: each is a doorbell batch of one)
//!   inside `for` loops are forbidden in `pmfs` and `engine` library code:
//!   each iteration charges a full fabric round-trip, so fan-outs over
//!   collections must post into one `batch()` (one doorbell, one charge at
//!   flush). Bare `loop` / `while` bodies are exempt so CAS retry loops
//!   stay idiomatic, and batch receivers (`batch.write_u64`) never match.
//! * `blocking-wait-in-scheduler` — condvar waits (`.wait(` /
//!   `.wait_until(`) and `precise_wait_ns` are forbidden in the transaction
//!   scheduler and session actor (`engine/src/scheduler.rs`,
//!   `engine/src/session.rs`): a scheduler worker that blocks in place
//!   defeats parking — the whole point is that a waiting transaction
//!   releases its thread. The documented exceptions (idle-worker run-queue
//!   park, timer thread, a thread waiter's own suspend, the
//!   `DbFuture::wait` client-side shim) each carry an inline allow naming
//!   why that thread may block.
//! * `undo-reconstruction` — direct undo-chain reads (`undo.read(…)`) are
//!   forbidden in engine library code outside `txn.rs` and `undo.rs`:
//!   version reconstruction must flow through `txn::visible_version` so
//!   every walk consults and back-fills the per-node version store.
//!   Recovery replay carries documented allows.
//!
//! Escape hatches, each requiring a written justification:
//!
//! * inline, same or preceding line:
//!   `// lint: allow(<rule>): <reason>`
//! * whole file: `// lint: allow-file(<rule>): <reason>`
//!
//! An allow with an empty reason does not suppress anything, and an allow
//! that suppresses nothing is itself reported (`unused-allow` — a check on
//! the escape hatches, not a rule, so it has no escape hatch of its own): a
//! stale one would silently cover the next violation written on its line.
//! Files under
//! `tests/`, `benches/`, `examples/`, `tools/`, `target/` and this crate
//! are not scanned, and `#[cfg(test)]` blocks inside library files are
//! skipped.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const RULES: [&str; 11] = [
    "std-sync",
    "raw-sleep",
    "raw-instant",
    "raw-parking-lot",
    "unsafe-safety",
    "direct-page-read",
    "sequential-fanout",
    "undo-reconstruction",
    "blocking-wait-in-scheduler",
    "relaxed-atomic",
    "uncompressed-storage-append",
];

/// Crates migrated to `pmp_common::sync`; direct `parking_lot` is banned.
const PARKING_LOT_BANNED: [&str; 5] = [
    "crates/common/src/",
    "crates/engine/src/",
    "crates/io/src/",
    "crates/pmfs/src/",
    "crates/storage/src/",
];

/// Engine library code must read pages through the io ring, never straight
/// from the `PageStore`.
const PAGE_READ_BANNED: &str = "crates/engine/src/";

/// Undo-chain reconstruction (walking `undo.read(..)` records to rebuild a
/// row version) is the visibility slow path; it lives behind
/// `txn::visible_version` so every walk feeds the per-node version store.
/// Outside these two files a direct walk silently bypasses the store (no
/// fill, no hit accounting). Recovery's walks carry documented allows: they
/// rebuild pre-crash state where version-store caching is meaningless.
const UNDO_WALK_BANNED: &str = "crates/engine/src/";
const UNDO_WALK_ALLOWED_FILES: [&str; 2] =
    ["crates/engine/src/txn.rs", "crates/engine/src/undo.rs"];

/// Crates whose `for` loops must not issue single-verb fabric calls; a loop
/// of `read_u64`/`write_u64` charges one round-trip per iteration where a
/// `Fabric::batch()` would charge one for the whole doorbell.
const FANOUT_BANNED: [&str; 2] = ["crates/pmfs/src/", "crates/engine/src/"];

/// The simulated-latency charge point is the one legitimate home of real
/// sleeps and real clock reads.
const CLOCK_EXEMPT: &str = "crates/rdma/src/clock.rs";

/// Files where in-place blocking waits defeat the parking design: a
/// scheduler worker or session actor that blocks holds a thread a parked
/// transaction was supposed to release. Every legitimate block (idle-worker
/// park, timer thread, a thread waiter's suspend, the client-side
/// `DbFuture::wait` shim) must say so with an inline allow.
const SCHED_BLOCKING_BANNED: [&str; 2] = [
    "crates/engine/src/scheduler.rs",
    "crates/engine/src/session.rs",
];

/// `Ordering::Relaxed` needs a justification where cross-thread protocols
/// live: the engine, and the tracked-sync layer itself. Relaxed is correct
/// for monotonic counters and statistics, but on a flag or handoff it is
/// exactly the kind of bug the model checker exists to catch — each use
/// must say which kind it is.
const RELAXED_BANNED_DIR: &str = "crates/engine/src/";
const RELAXED_BANNED_FILES: [&str; 1] = ["crates/common/src/sync.rs"];

/// Engine library code must not push raw bytes at shared storage: page
/// writes go through `SharedStorage::write_page*` and redo records through
/// `Wal::log_atomic` — the codec-aware wrappers that keep compression and
/// the logical/physical byte accounting honest. A raw `PageStore::write` or
/// `LogStream::append`/`reserve`/`fill` silently stores uncompressed bytes.
/// `wal.rs` *is* the log wrapper; basebackup-style raw copies carry
/// documented allows.
const STORAGE_APPEND_BANNED: &str = "crates/engine/src/";
const STORAGE_APPEND_ALLOWED_FILES: [&str; 1] = ["crates/engine/src/wal.rs"];

#[derive(Debug, PartialEq, Eq)]
struct Violation {
    line: usize,
    rule: &'static str,
    message: String,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

fn run_lint() -> ExitCode {
    let root = repo_root();
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();

    let mut total = 0usize;
    for rel in &files {
        let text = match std::fs::read_to_string(root.join(rel)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: unreadable: {e}", rel.display());
                total += 1;
                continue;
            }
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        for v in lint_source(&rel_str, &text) {
            println!("{rel_str}:{}: [{}] {}", v.line, v.rule, v.message);
            total += 1;
        }
    }
    if total > 0 {
        eprintln!(
            "lint: {total} violation(s) in {} file(s) scanned",
            files.len()
        );
        ExitCode::FAILURE
    } else {
        println!("lint: clean ({} files scanned)", files.len());
        ExitCode::SUCCESS
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .components()
        .collect()
}

/// Recursively collect `.rs` files under `dir`, recording paths relative to
/// `root`. Skips test/bench/example trees, build output, VCS metadata and
/// this crate itself.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `tools/` holds standalone std-only harnesses built with bare
            // rustc (no cargo registry); they are benchmarks, not library
            // code, and deliberately use std primitives.
            if matches!(
                name.as_ref(),
                "target" | ".git" | "tests" | "benches" | "examples" | "tools" | "xtask"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// Lint one file's contents. `rel_path` uses forward slashes and is
/// relative to the repo root; rule applicability depends on it.
fn lint_source(rel_path: &str, text: &str) -> Vec<Violation> {
    let lines: Vec<&str> = text.lines().collect();
    let clock_exempt = rel_path.ends_with(CLOCK_EXEMPT) || rel_path == CLOCK_EXEMPT;
    let parking_lot_banned = PARKING_LOT_BANNED.iter().any(|p| rel_path.starts_with(p));
    let page_read_banned = rel_path.starts_with(PAGE_READ_BANNED);
    let undo_walk_banned =
        rel_path.starts_with(UNDO_WALK_BANNED) && !UNDO_WALK_ALLOWED_FILES.contains(&rel_path);
    let sched_blocking_banned = SCHED_BLOCKING_BANNED.contains(&rel_path);
    let relaxed_banned =
        rel_path.starts_with(RELAXED_BANNED_DIR) || RELAXED_BANNED_FILES.contains(&rel_path);
    let storage_append_banned = rel_path.starts_with(STORAGE_APPEND_BANNED)
        && !STORAGE_APPEND_ALLOWED_FILES.contains(&rel_path);

    let mut file_allows: Vec<&'static str> = Vec::new();
    for line in &lines {
        for rule in RULES {
            if has_allow(line, rule, "allow-file") {
                file_allows.push(rule);
            }
        }
    }

    let test_lines = cfg_test_lines(&lines);
    let mut out = Vec::new();
    // Which escape hatches suppressed something: `(line index, rule)` of
    // inline allows, and the rules of allow-file pragmas.
    let mut used_inline: Vec<(usize, &'static str)> = Vec::new();
    let mut used_file: Vec<&'static str> = Vec::new();

    // sequential-fanout state: brace depth plus the depths at which `for`
    // bodies opened. `while`/bare `loop` are deliberately untracked so CAS
    // retry loops stay idiomatic.
    let fanout_banned = FANOUT_BANNED.iter().any(|p| rel_path.starts_with(p));
    let mut depth: i64 = 0;
    let mut for_stack: Vec<i64> = Vec::new();
    let mut pending_for = false;

    for (idx, raw) in lines.iter().enumerate() {
        let line_no = idx + 1;
        if test_lines[idx] {
            continue;
        }
        let code = strip_comment(raw);
        if code.trim().is_empty() {
            continue;
        }

        let mut report = |rule: &'static str, message: String| {
            if file_allows.contains(&rule) {
                used_file.push(rule);
                return;
            }
            if has_allow(raw, rule, "allow") {
                used_inline.push((idx, rule));
                return;
            }
            if idx > 0 && has_allow(lines[idx - 1], rule, "allow") {
                used_inline.push((idx - 1, rule));
                return;
            }
            out.push(Violation {
                line: line_no,
                rule,
                message,
            });
        };

        if code.contains("std::sync::")
            && ["Mutex", "RwLock", "Condvar"]
                .iter()
                .any(|t| contains_token(code, t))
        {
            report(
                "std-sync",
                "std::sync lock primitive; use pmp_common::sync::Tracked* instead".into(),
            );
        }

        if !clock_exempt && code.contains("thread::sleep") {
            report(
                "raw-sleep",
                "raw thread::sleep in library code; use Shutdown::sleep_until_triggered, \
                 a condvar wait, or pmp_rdma::clock"
                    .into(),
            );
        }

        if !clock_exempt && code.contains("Instant::now") {
            report(
                "raw-instant",
                "raw Instant::now in library code; the simulation charges virtual time".into(),
            );
        }

        if parking_lot_banned && code.contains("parking_lot") {
            report(
                "raw-parking-lot",
                "direct parking_lot use in a migrated crate; use pmp_common::sync::Tracked*".into(),
            );
        }

        if page_read_banned {
            // Catch both single-line calls and rustfmt-split method chains
            // (`.page_store()` on one line, `.read(` on the next).
            let prev_code = if idx > 0 {
                strip_comment(lines[idx - 1])
            } else {
                ""
            };
            let same_line = code.contains("page_store()") && code.contains(".read(");
            let split_chain = code.trim_start().starts_with(".read(")
                && prev_code.contains("page_store()")
                && !prev_code.contains(".read(");
            if same_line || split_chain {
                report(
                    "direct-page-read",
                    "direct PageStore::read in engine code; go through the pmp-io ring \
                     (IoRing::read_page / submit_with / prefetch) so loads overlap"
                        .into(),
                );
            }
        }

        if storage_append_banned {
            let prev_code = if idx > 0 {
                strip_comment(lines[idx - 1])
            } else {
                ""
            };
            // Raw page-store writes, single-line or rustfmt-split chains.
            let ps_same = code.contains("page_store()")
                && (code.contains(".write(") || code.contains(".write_sized"));
            let ps_split = (code.trim_start().starts_with(".write(")
                || code.trim_start().starts_with(".write_sized"))
                && prev_code.contains("page_store()");
            // Raw log-stream append verbs. The receiver must name a stream:
            // `store.append(` / `undo.append(` (the undo store) never match.
            let log_same = ["append(", "reserve(", "fill(", "fill_prefix("]
                .iter()
                .any(|v| {
                    code.contains(&format!("stream.{v}")) || code.contains(&format!("stream().{v}"))
                });
            let log_split = code.trim_start().starts_with(".append(") && {
                let prev = prev_code.trim_end();
                prev.ends_with("stream") || prev.ends_with("stream()")
            };
            if ps_same || ps_split || log_same || log_split {
                report(
                    "uncompressed-storage-append",
                    "raw storage append bypasses the compression layer; write \
                     pages through SharedStorage::write_page and redo through \
                     Wal::log_atomic (the codec-aware wrappers), or add a \
                     documented allow for a deliberate raw copy"
                        .into(),
                );
            }
        }

        if undo_walk_banned {
            // Catch `….undo.read(…)` on one line and rustfmt-split chains
            // (`…undo` ending one line, `.read(` opening the next).
            let prev_code = if idx > 0 {
                strip_comment(lines[idx - 1])
            } else {
                ""
            };
            let same_line = code.contains("undo.read(");
            let split_chain =
                code.trim_start().starts_with(".read(") && prev_code.trim_end().ends_with("undo");
            if same_line || split_chain {
                report(
                    "undo-reconstruction",
                    "direct undo-chain read outside txn.rs/undo.rs bypasses the \
                     per-node version store; resolve through txn::visible_version \
                     (or add a documented allow for recovery-style replay)"
                        .into(),
                );
            }
        }

        if fanout_banned {
            // A `for … in …` header (not `impl Trait for Type`, which has
            // no `in` token; `while`/`loop` intentionally don't match).
            let is_for_header = contains_token(code, "for")
                && contains_token(code, "in")
                && !contains_token(code, "impl");
            let prev_raw = if idx > 0 { lines[idx - 1] } else { "" };
            if let Some(verb_at) = fanout_verb_pos(code, prev_raw) {
                let single_line_body = is_for_header && code.find('{').is_some_and(|b| verb_at > b);
                if !for_stack.is_empty() || single_line_body {
                    report(
                        "sequential-fanout",
                        "single-verb fabric call inside a for loop charges one \
                         round-trip per iteration; use Fabric::batch() for the \
                         fan-out (one doorbell, one charge at flush)"
                            .into(),
                    );
                }
            }
            if is_for_header {
                pending_for = true;
            }
            let delta = brace_delta(raw);
            if pending_for {
                if delta > 0 {
                    for_stack.push(depth + 1);
                    pending_for = false;
                } else if code.contains(';') {
                    pending_for = false; // single-line or abandoned header
                }
            }
            depth += delta;
            while for_stack.last().is_some_and(|&d| depth < d) {
                for_stack.pop();
            }
        }

        if sched_blocking_banned
            && (code.contains(".wait(")
                || code.contains(".wait_until(")
                || code.contains("precise_wait_ns"))
        {
            report(
                "blocking-wait-in-scheduler",
                "in-place blocking wait on a scheduler/session path; parked \
                 transactions must release their worker thread — park on the \
                 scheduler (or add a documented allow naming why this thread \
                 may block)"
                    .into(),
            );
        }

        if relaxed_banned && code.contains("Ordering::Relaxed") {
            report(
                "relaxed-atomic",
                "Ordering::Relaxed on an engine/sync atomic; if this is a \
                 statistic or monotonic counter say so with an allow, \
                 otherwise use Acquire/Release — a relaxed flag or handoff \
                 is invisible to other threads' ordering"
                    .into(),
            );
        }

        if contains_token(code, "unsafe") && !code.trim_start().starts_with("#[") {
            let documented = (idx.saturating_sub(3)..=idx).any(|i| lines[i].contains("SAFETY:"));
            if !documented {
                report(
                    "unsafe-safety",
                    "unsafe without a // SAFETY: comment in the 3 preceding lines".into(),
                );
            }
        }
    }

    for (idx, line) in lines.iter().enumerate() {
        if !line.contains("lint: allow") {
            continue;
        }
        for rule in RULES {
            let stale_inline =
                has_allow(line, rule, "allow") && !used_inline.contains(&(idx, rule));
            let stale_file = has_allow(line, rule, "allow-file") && !used_file.contains(&rule);
            if stale_inline || stale_file {
                out.push(Violation {
                    line: idx + 1,
                    rule: "unused-allow",
                    message: format!("this allow({rule}) suppresses nothing; delete it"),
                });
            }
        }
    }
    out
}

/// `true` at index i ⇔ line i+1 belongs to a `#[cfg(test)]` item (the
/// attribute line itself, and the braced block it introduces).
fn cfg_test_lines(lines: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut pending_attr = false;
    let mut depth: i64 = 0;
    let mut in_block = false;
    for (i, line) in lines.iter().enumerate() {
        if in_block {
            flags[i] = true;
            depth += brace_delta(line);
            if depth <= 0 {
                in_block = false;
            }
            continue;
        }
        if let Some(pos) = line.find("#[cfg(test)]") {
            flags[i] = true;
            // The attribute may share its line with the item it gates.
            let rest = &line[pos + "#[cfg(test)]".len()..];
            let delta = brace_delta(rest);
            if delta > 0 {
                depth = delta;
                in_block = true;
            } else if !rest.contains(';') {
                pending_attr = true;
            }
            continue;
        }
        if pending_attr {
            flags[i] = true;
            // Further attributes between #[cfg(test)] and the item.
            if line.trim_start().starts_with("#[") {
                continue;
            }
            let delta = brace_delta(line);
            if delta > 0 {
                pending_attr = false;
                depth = delta;
                in_block = true;
            } else if line.contains(';') {
                pending_attr = false; // e.g. `#[cfg(test)] mod tests;`
            }
        }
    }
    flags
}

/// Net `{`/`}` balance of a line, ignoring braces inside line comments.
fn brace_delta(line: &str) -> i64 {
    let code = strip_comment(line);
    let mut d = 0i64;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Everything before a `//` comment (good enough for line-oriented rules;
/// over-stripping a `//` inside a string only risks a missed match).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Byte offset of a single-verb fabric call (`.read_u64(` / `.write_u64(`)
/// in `code` whose receiver is not a batch builder. `prev_raw` supplies the
/// receiver for rustfmt-split chains where `.read_u64(` starts the line.
fn fanout_verb_pos(code: &str, prev_raw: &str) -> Option<usize> {
    let ident_start = |s: &str| {
        s.rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map(|i| i + 1)
            .unwrap_or(0)
    };
    for verb in [".read_u64(", ".write_u64("] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(verb) {
            let abs = from + pos;
            let recv = &code[ident_start(&code[..abs])..abs];
            let recv: &str = if recv.is_empty() {
                // `.read_u64(` opens the line: the receiver identifier
                // ended the previous line.
                let prev = strip_comment(prev_raw).trim_end();
                &prev[ident_start(prev)..]
            } else {
                recv
            };
            if !recv.contains("batch") {
                return Some(abs);
            }
            from = abs + verb.len();
        }
    }
    None
}

/// Does `line` carry `// lint: <kind>(<rule>): <non-empty reason>`?
fn has_allow(line: &str, rule: &str, kind: &str) -> bool {
    let needle = format!("lint: {kind}({rule}):");
    match line.find(&needle) {
        Some(i) => !line[i + needle.len()..].trim().is_empty(),
        None => false,
    }
}

/// Substring match where the match is not preceded by an identifier
/// character (so `TrackedMutex` does not match `Mutex`).
fn contains_token(haystack: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(token) {
        let abs = from + pos;
        let ok_before = abs == 0
            || !haystack[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = haystack[abs + token.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if ok_before && after_ok {
            return true;
        }
        from = abs + token.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn std_sync_primitives_flagged() {
        assert_eq!(
            rules_hit("crates/core/src/x.rs", "use std::sync::Mutex;\n"),
            vec!["std-sync"]
        );
        assert_eq!(
            rules_hit("crates/core/src/x.rs", "use std::sync::{Arc, RwLock};\n"),
            vec!["std-sync"]
        );
        assert!(rules_hit("crates/core/src/x.rs", "use std::sync::Arc;\n").is_empty());
        // Tracked wrappers on an unrelated std::sync line must not match.
        assert!(rules_hit(
            "crates/core/src/x.rs",
            "use std::sync::Arc; type T = TrackedMutex<u8>;\n"
        )
        .is_empty());
    }

    #[test]
    fn raw_sleep_and_instant_flagged_outside_clock() {
        let src = "fn f() { std::thread::sleep(d); let t = Instant::now(); }\n";
        let mut hits = rules_hit("crates/engine/src/x.rs", src);
        hits.sort();
        assert_eq!(hits, vec!["raw-instant", "raw-sleep"]);
        assert!(rules_hit("crates/rdma/src/clock.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_requires_reason() {
        let ok = "std::thread::sleep(d); // lint: allow(raw-sleep): admin drain poll\n";
        assert!(rules_hit("crates/engine/src/x.rs", ok).is_empty());
        let prev_line = "// lint: allow(raw-sleep): admin drain poll\nstd::thread::sleep(d);\n";
        assert!(rules_hit("crates/engine/src/x.rs", prev_line).is_empty());
        let no_reason = "std::thread::sleep(d); // lint: allow(raw-sleep):\n";
        assert_eq!(
            rules_hit("crates/engine/src/x.rs", no_reason),
            vec!["raw-sleep"]
        );
        let wrong_rule = "std::thread::sleep(d); // lint: allow(raw-instant): nope\n";
        assert_eq!(
            rules_hit("crates/engine/src/x.rs", wrong_rule),
            vec!["raw-sleep", "unused-allow"]
        );
    }

    #[test]
    fn allow_that_suppresses_nothing_is_reported() {
        // The violation it excused is gone (or was never there).
        let stale = "let x = 1; // lint: allow(raw-sleep): admin drain poll\n";
        assert_eq!(
            rules_hit("crates/engine/src/x.rs", stale),
            vec!["unused-allow"]
        );
        // Two lines above the violation is out of an inline allow's reach.
        let far = "// lint: allow(raw-sleep): admin drain poll\n\nstd::thread::sleep(d);\n";
        assert_eq!(
            rules_hit("crates/engine/src/x.rs", far),
            vec!["raw-sleep", "unused-allow"]
        );
        // The rule does not apply to this file at all.
        let elsewhere = "x.load(Ordering::Relaxed); // lint: allow(relaxed-atomic): counter\n";
        assert_eq!(
            rules_hit("crates/pmfs/src/x.rs", elsewhere),
            vec!["unused-allow"]
        );
        assert!(rules_hit("crates/engine/src/x.rs", elsewhere).is_empty());
        // Inside a skipped test block nothing is scanned, so nothing is excused.
        let in_test = "#[cfg(test)]\nmod tests {\n    \
                       fn t() { std::thread::sleep(d); } // lint: allow(raw-sleep): test\n}\n";
        assert_eq!(
            rules_hit("crates/engine/src/x.rs", in_test),
            vec!["unused-allow"]
        );
        let file_wide = "// lint: allow-file(raw-parking-lot): wrapper impl\nfn f() {}\n";
        assert_eq!(
            rules_hit("crates/common/src/x.rs", file_wide),
            vec!["unused-allow"]
        );
        // One allow between two violations of its rule excuses both, once.
        let both = "a.load(Ordering::Relaxed); // lint: allow(relaxed-atomic): counters\n\
                    b.load(Ordering::Relaxed);\n";
        assert!(rules_hit("crates/engine/src/x.rs", both).is_empty());
    }

    #[test]
    fn parking_lot_banned_only_in_migrated_crates() {
        let src = "use parking_lot::Mutex;\n";
        for p in PARKING_LOT_BANNED {
            let path = format!("{p}x.rs");
            assert_eq!(rules_hit(&path, src), vec!["raw-parking-lot"], "{path}");
        }
        assert!(rules_hit("crates/baselines/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_file_pragma_suppresses_whole_file() {
        let src = "// lint: allow-file(raw-parking-lot): wrapper impl\n\
                   use parking_lot::Mutex;\n\
                   type G = parking_lot::MutexGuard<'static, u8>;\n";
        assert!(rules_hit("crates/common/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use parking_lot::Mutex;\n\
                       fn t() { std::thread::sleep(d); }\n\
                   }\n";
        assert!(rules_hit("crates/engine/src/x.rs", src).is_empty());
        // …but code after the block is still linted.
        let trailing = format!("{src}fn late() {{ std::thread::sleep(d); }}\n");
        assert_eq!(
            rules_hit("crates/engine/src/x.rs", &trailing),
            vec!["raw-sleep"]
        );
    }

    #[test]
    fn direct_page_read_flagged_in_engine_only() {
        let one_line = "let p = self.shared.storage.page_store().read(id)?;\n";
        assert_eq!(
            rules_hit("crates/engine/src/node.rs", one_line),
            vec!["direct-page-read"]
        );
        // The rule is scoped to the engine: storage itself and other crates
        // may call read directly.
        assert!(rules_hit("crates/storage/src/page_store.rs", one_line).is_empty());
        assert!(rules_hit("crates/core/src/cluster.rs", one_line).is_empty());

        // rustfmt-split chains are caught via the previous line.
        let split = "let p = storage\n    .page_store()\n    .read(id)?;\n";
        assert_eq!(
            rules_hit("crates/engine/src/node.rs", split),
            vec!["direct-page-read"]
        );

        // Writes belong to uncompressed-storage-append, not this rule;
        // unrelated reads match nothing.
        assert_eq!(
            rules_hit(
                "crates/engine/src/node.rs",
                "storage.page_store().write(id, page)?;\n"
            ),
            vec!["uncompressed-storage-append"]
        );
        assert!(rules_hit("crates/engine/src/node.rs", "let x = frame.page.read();\n").is_empty());

        // The escape hatch works on the read line.
        let allowed = "let p = storage.page_store().read(id)?; \
                       // lint: allow(direct-page-read): offline tool path\n";
        assert!(rules_hit("crates/engine/src/node.rs", allowed).is_empty());
    }

    #[test]
    fn uncompressed_storage_append_flagged_in_engine_only() {
        // Raw page-store writes, single-line and rustfmt-split.
        let write = "storage.page_store().write(id, page)?;\n";
        assert_eq!(
            rules_hit("crates/engine/src/node.rs", write),
            vec!["uncompressed-storage-append"]
        );
        let split = "storage\n    .page_store()\n    .write_sized_uncharged(id, p, l, l);\n";
        assert_eq!(
            rules_hit("crates/engine/src/standby.rs", split),
            vec!["uncompressed-storage-append"]
        );
        // Raw log-stream append verbs, including split chains.
        for src in [
            "self.stream.append(&bytes);\n",
            "let res = wal.stream().reserve(len);\n",
            "self.stream.fill_prefix(res, &frame, raw);\n",
            "wal.stream()\n    .append(&bytes);\n",
        ] {
            assert_eq!(
                rules_hit("crates/engine/src/node.rs", src),
                vec!["uncompressed-storage-append"],
                "{src}"
            );
        }

        // The codec-aware wrappers and the undo store never match.
        assert!(rules_hit(
            "crates/engine/src/node.rs",
            "shared.storage.write_page(id, page)?;\n"
        )
        .is_empty());
        assert!(rules_hit(
            "crates/engine/src/txn.rs",
            "let ptr = engine.shared.undo.append(node_id, rec);\n"
        )
        .is_empty());
        assert!(rules_hit(
            "crates/engine/src/undo.rs",
            "let ptr = store.append(n, r);\n"
        )
        .is_empty());

        // wal.rs is the log wrapper; other crates are out of scope.
        assert!(rules_hit("crates/engine/src/wal.rs", "self.stream.reserve(len);\n").is_empty());
        assert!(rules_hit("crates/storage/src/lib.rs", write).is_empty());

        // The escape hatch works.
        let allowed = "storage.page_store().write(id, page)?; \
                       // lint: allow(uncompressed-storage-append): basebackup raw copy\n";
        assert!(rules_hit("crates/engine/src/standby.rs", allowed).is_empty());
    }

    #[test]
    fn undo_reconstruction_flagged_outside_txn_and_undo() {
        let one_line = "let Some(rec) = shared.undo.read(&fabric, node, ptr) else {\n";
        assert_eq!(
            rules_hit("crates/engine/src/recovery.rs", one_line),
            vec!["undo-reconstruction"]
        );
        // The visibility path and the store itself are the sanctioned homes.
        assert!(rules_hit("crates/engine/src/txn.rs", one_line).is_empty());
        assert!(rules_hit("crates/engine/src/undo.rs", one_line).is_empty());
        // Other crates may model their own undo handling.
        assert!(rules_hit("crates/baselines/src/x.rs", one_line).is_empty());

        // rustfmt-split chains are caught via the previous line.
        let split = "let rec = shared.undo\n    .read(&fabric, node, ptr);\n";
        assert_eq!(
            rules_hit("crates/engine/src/recovery.rs", split),
            vec!["undo-reconstruction"]
        );

        // Unrelated `.read(` receivers don't match.
        assert!(rules_hit(
            "crates/engine/src/recovery.rs",
            "let x = frame.page.read();\n"
        )
        .is_empty());

        // The escape hatch works with a reason.
        let allowed = "let Some(rec) = shared.undo.read(&fabric, node, ptr) else { \
                       // lint: allow(undo-reconstruction): crash replay\n";
        assert!(rules_hit("crates/engine/src/recovery.rs", allowed).is_empty());
    }

    #[test]
    fn sequential_fanout_flagged_in_scoped_for_loops() {
        let src = "for page in pages {\n\
                       fabric.write_u64(&cell, v, Locality::Remote);\n\
                   }\n";
        for scoped in ["crates/pmfs/src/x.rs", "crates/engine/src/x.rs"] {
            assert_eq!(rules_hit(scoped, src), vec!["sequential-fanout"]);
        }
        // A batch of one per iteration on the replication facade is the
        // same per-iteration charge.
        let repl = "for r in regions {\n\
                        self.repl.read_u64(&r.cell, Locality::Remote);\n\
                    }\n";
        assert_eq!(
            rules_hit("crates/pmfs/src/x.rs", repl),
            vec!["sequential-fanout"]
        );
        // Out-of-scope crates (and the fabric impl itself) are exempt.
        assert!(rules_hit("crates/rdma/src/fabric.rs", src).is_empty());
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
        // Single-line bodies are still caught.
        let one = "for f in flags { fabric.write_u64(f, 1, Locality::Remote); }\n";
        assert_eq!(
            rules_hit("crates/pmfs/src/x.rs", one),
            vec!["sequential-fanout"]
        );
        // Calls after the loop closes don't match.
        let after = "for p in ps {\n    collect(p);\n}\nfabric.read_u64(&cell, Locality::Local);\n";
        assert!(rules_hit("crates/pmfs/src/x.rs", after).is_empty());
        // The inner loop closing must not clear the outer frame.
        let nested = "for a in xs {\n\
                          for b in ys {\n        f(b);\n    }\n\
                          fabric.read_u64(a, Locality::Remote);\n\
                      }\n";
        assert_eq!(
            rules_hit("crates/pmfs/src/x.rs", nested),
            vec!["sequential-fanout"]
        );
    }

    #[test]
    fn sequential_fanout_spares_batches_and_retry_loops() {
        // Batch builders ARE the fix — never flagged, even split by rustfmt.
        let batched = "let mut batch = fabric.batch();\n\
                       for page in pages {\n\
                           batch.write_u64(&cell, v, Locality::Remote);\n\
                       }\n\
                       batch.flush();\n";
        assert!(rules_hit("crates/pmfs/src/x.rs", batched).is_empty());
        let split_batch =
            "for p in ps {\n    batch\n        .write_u64(p, 1, Locality::Remote);\n}\n";
        assert!(rules_hit("crates/pmfs/src/x.rs", split_batch).is_empty());
        // …but a split single-verb chain is still a violation.
        let split = "for p in ps {\n    fabric\n        .write_u64(p, 1, Locality::Remote);\n}\n";
        assert_eq!(
            rules_hit("crates/pmfs/src/x.rs", split),
            vec!["sequential-fanout"]
        );
        // CAS retry loops use `loop`/`while` and are deliberately exempt.
        let retry = "loop {\n\
                         let v = fabric.read_u64(&cell, Locality::Remote);\n\
                         if done(v) { break; }\n\
                     }\n";
        assert!(rules_hit("crates/pmfs/src/x.rs", retry).is_empty());
        let advance = "while cur < floor {\n\
                           cur = fabric.read_u64(&cell, Locality::Remote);\n\
                       }\n";
        assert!(rules_hit("crates/pmfs/src/x.rs", advance).is_empty());
        // Escape hatch with a written reason.
        let allowed = "for p in ps {\n\
                           // lint: allow(sequential-fanout): bounded to 2 replicas\n\
                           fabric.write_u64(p, 1, Locality::Remote);\n\
                       }\n";
        assert!(rules_hit("crates/pmfs/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn blocking_wait_flagged_only_in_scheduler_files() {
        for src in [
            "self.cv.wait(&mut q);\n",
            "let _ = self.timer_cv.wait_until(&mut t, at);\n",
            "precise_wait_ns(self.window_ns);\n",
        ] {
            assert_eq!(
                rules_hit("crates/engine/src/scheduler.rs", src),
                vec!["blocking-wait-in-scheduler"],
                "{src}"
            );
            assert_eq!(
                rules_hit("crates/engine/src/session.rs", src),
                vec!["blocking-wait-in-scheduler"],
                "{src}"
            );
        }
        // Other engine files keep their existing blocking idioms (the
        // bounded fallbacks when no parker is installed).
        assert!(rules_hit("crates/engine/src/txn.rs", "w.wait()\n").is_empty());
        assert!(rules_hit("crates/engine/src/wal.rs", "precise_wait_ns(n);\n").is_empty());
        // The documented shim suppresses with a written reason.
        let shim = "// lint: allow(blocking-wait-in-scheduler): client-side shim\n\
                    self.done.wait()\n";
        assert!(rules_hit("crates/engine/src/session.rs", shim).is_empty());
        let no_reason = "self.cv.wait(&mut q); // lint: allow(blocking-wait-in-scheduler):\n";
        assert_eq!(
            rules_hit("crates/engine/src/scheduler.rs", no_reason),
            vec!["blocking-wait-in-scheduler"]
        );
    }

    #[test]
    fn relaxed_atomic_needs_justification_in_engine_and_sync() {
        let bad = "self.stopped.store(true, Ordering::Relaxed);\n";
        assert_eq!(
            rules_hit("crates/engine/src/tso_client.rs", bad),
            vec!["relaxed-atomic"]
        );
        assert_eq!(
            rules_hit("crates/common/src/sync.rs", bad),
            vec!["relaxed-atomic"]
        );
        // Outside the scoped paths the rule does not apply.
        assert!(rules_hit("crates/rdma/src/fabric.rs", bad).is_empty());
        assert!(rules_hit("crates/common/src/hist.rs", bad).is_empty());
        // A documented counter is fine, same line or preceding line.
        let ok = "self.hits.fetch_add(1, Ordering::Relaxed); \
                  // lint: allow(relaxed-atomic): statistics counter\n";
        assert!(rules_hit("crates/engine/src/lbp.rs", ok).is_empty());
        let prev = "// lint: allow(relaxed-atomic): monotonic id allocator\n\
                    let id = self.next.fetch_add(1, Ordering::Relaxed);\n";
        assert!(rules_hit("crates/engine/src/wal.rs", prev).is_empty());
        // An allow without a reason still reports.
        let no_reason = "x.load(Ordering::Relaxed); // lint: allow(relaxed-atomic):\n";
        assert_eq!(
            rules_hit("crates/engine/src/node.rs", no_reason),
            vec!["relaxed-atomic"]
        );
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        assert_eq!(
            rules_hit("crates/common/src/x.rs", bad),
            vec!["unsafe-safety"]
        );
        let good = "// SAFETY: g has no preconditions here\n\
                    fn f() { unsafe { g() } }\n";
        assert!(rules_hit("crates/common/src/x.rs", good).is_empty());
        // "unsafe" as part of an identifier must not match.
        assert!(rules_hit("crates/common/src/x.rs", "fn not_unsafe_fn() {}\n").is_empty());
    }

    #[test]
    fn self_scan_is_clean() {
        let root = repo_root();
        let mut files = Vec::new();
        collect_rs_files(&root, &root, &mut files);
        assert!(
            files.len() > 30,
            "walker found too few files ({}) — wrong root?",
            files.len()
        );
        let mut violations = Vec::new();
        for rel in files {
            let text = std::fs::read_to_string(root.join(&rel)).unwrap();
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            for v in lint_source(&rel_str, &text) {
                violations.push(format!("{rel_str}:{}: [{}] {}", v.line, v.rule, v.message));
            }
        }
        assert!(
            violations.is_empty(),
            "tree must lint clean:\n{}",
            violations.join("\n")
        );
    }
}
