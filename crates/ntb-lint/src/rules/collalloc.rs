//! Rule `collective-alloc`: collective routines in `collectives.rs` and
//! `teams.rs` take their symmetric scratch from the persistent collective
//! workspace, never from per-call `malloc*` / `calloc*` / `free*`.
//!
//! The defect class: every symmetric allocation or free is a hidden
//! `barrier_all`, so a collective that allocates scratch per call pays
//! for barriers its algorithm never needed (four of them per allreduce,
//! eight per tree allreduce, before the workspace). Only `team_split`
//! and `team_destroy` — which create and release a team's workspace —
//! may allocate.

use crate::lexer::TokKind;
use crate::{FileCtx, FileMode, Finding, ScanStats};

/// Functions that own a workspace's lifetime and may allocate.
const EXEMPT_FNS: &[&str] = &["team_split", "team_destroy"];

/// Files holding the collective routines.
fn in_scope(file: &str, mode: FileMode) -> bool {
    if mode == FileMode::Single {
        return true;
    }
    let norm = file.replace('\\', "/");
    norm.ends_with("shmem-core/src/collectives.rs") || norm.ends_with("shmem-core/src/teams.rs")
}

/// `malloc`, `calloc`, `free` and their `_suffixed` variants.
fn is_alloc_name(name: &str) -> bool {
    ["malloc", "calloc", "free"]
        .iter()
        .any(|base| name == *base || name.strip_prefix(base).is_some_and(|r| r.starts_with('_')))
}

pub(crate) fn run(
    ctx: &FileCtx<'_>,
    mode: FileMode,
    out: &mut Vec<Finding>,
    stats: &mut ScanStats,
) {
    if !in_scope(ctx.file, mode) {
        return;
    }
    let toks = &ctx.toks;
    for f in &ctx.fns {
        if ctx.in_test(f.line) || EXEMPT_FNS.contains(&f.name.as_str()) {
            continue;
        }
        stats.collectives_checked += 1;
        for i in f.body_open..=f.body_close {
            let t = &toks[i];
            if t.kind != TokKind::Ident || !is_alloc_name(&t.text) {
                continue;
            }
            // A call or method path: `.free_array(`, `calloc_array::<T>(`,
            // `heap.malloc(` — not a binding or field that merely shares
            // the name.
            let next = toks.get(i + 1).map(|u| u.text.as_str());
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let is_call = matches!(next, Some("(") | Some("::")) || prev == Some(".");
            if !is_call || prev == Some("fn") {
                continue;
            }
            // Nested fns are checked as functions of their own.
            if f.nested.iter().any(|&(a, b)| (a..=b).contains(&i)) {
                continue;
            }
            out.push(Finding {
                file: ctx.file.to_string(),
                line: t.line,
                rule: "collective-alloc",
                message: format!(
                    "collective `{}` calls `{}`: every symmetric allocation or free is a \
                     hidden barrier; take scratch from the persistent collective workspace \
                     (only `team_split`/`team_destroy` may allocate)",
                    f.name, t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{scan_source, FileMode, Finding};

    fn findings(file: &str, src: &str) -> Vec<Finding> {
        scan_source(file, src, FileMode::Workspace)
            .into_iter()
            .filter(|f| f.rule == "collective-alloc")
            .collect()
    }

    const LEAKY: &str = "impl X { fn allreduce(&self) { let s = self.calloc_array::<u64>(4)?; \
                         self.free_array(s)?; } }";

    #[test]
    fn per_call_allocation_in_a_collective_is_flagged() {
        assert_eq!(findings("crates/shmem-core/src/collectives.rs", LEAKY).len(), 2);
        assert_eq!(findings("crates/shmem-core/src/teams.rs", LEAKY).len(), 2);
    }

    #[test]
    fn other_files_and_exempt_fns_pass() {
        assert!(findings("crates/shmem-core/src/ctx.rs", LEAKY).is_empty());
        let split = "impl X { fn team_split(&self) { self.calloc_array::<u64>(8)?; } \
                     fn team_destroy(&self, t: T) { self.free_array(t.flags) } }";
        assert!(findings("crates/shmem-core/src/teams.rs", split).is_empty());
    }

    #[test]
    fn lookalike_names_are_not_calls() {
        let src = "impl X { fn f(&self) { let freeze = 1; let free_slots = freeze; \
                   self.node.freeze(); g(free_slots) } }";
        assert!(findings("crates/shmem-core/src/collectives.rs", src).is_empty());
    }
}
