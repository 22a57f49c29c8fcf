//! Rule `resolution`: lifecycle acquire/resolution pairing, per function.
//!
//! An *acquire* is an `obs.emit(EventKind::<X>, ..)` of a registered
//! acquire-side event ([`manifest::EVENT_PAIRS`]) or a classified
//! protocol-table insert like `pending.register(..)`
//! ([`manifest::CALL_PAIRS`]). Every control-flow exit of the containing
//! function that is reachable *after* the acquire (in token order) must
//! pass a paired resolution first:
//!
//! - an emit of one of the pair's resolution events,
//! - a call to one of the pair's resolver methods, or
//! - a call to a *local* function whose own body contains one of those
//!   (one-level call-graph credit, e.g. `fail_ops_to` resolving for its
//!   callers),
//!
//! or the site carries a `// RESOLVES(<event>): why` annotation — at the
//! acquire line to waive the whole site, or at the exit line to waive
//! that one path.
//!
//! Coverage is a linear token-order approximation (this is a lint, not a
//! verifier): a resolution token anywhere between the acquire and the
//! exit counts. That over-approximates on branches that bypass the
//! resolution, but it reliably catches the real defect class — an early
//! `return` or `?` between acquire and resolve — which is what PRs 2, 6
//! and 7 each fixed by hand.
//!
//! Second check, ownership: a resolution event listed in
//! [`manifest::EMIT_OWNERS`] may be emitted only in its owner's module.
//! The owner emits under the table lock before waking waiters; an emit
//! after `unacked.ack(..)` returns races the woken `quiet`.

use crate::lexer::{Tok, TokKind};
use crate::parse::ExitKind;
use crate::rules::{has_resolves_annotation, in_protocol_scope};
use crate::{manifest, FileCtx, FileMode, Finding, ScanStats};
use std::collections::{HashMap, HashSet};

/// One acquire site found in a function body.
struct Acquire {
    /// Token index of the acquire (the event variant / the method name).
    idx: usize,
    line: u32,
    /// Display name (`GetReqTx`, `pending.register`, ...).
    event: &'static str,
    /// Resolution event names.
    resolve_events: &'static [&'static str],
    /// Resolution call names.
    resolve_calls: &'static [&'static str],
}

pub(crate) fn run(
    ctx: &FileCtx<'_>,
    mode: FileMode,
    out: &mut Vec<Finding>,
    stats: &mut ScanStats,
) {
    if !in_protocol_scope(ctx.file, mode) {
        return;
    }
    let toks = &ctx.toks;
    check_owned_emits(ctx, out);

    // One-level call graph: which resolution tokens does each local fn
    // contain? (event variants emitted + methods called)
    let mut fn_tokens: HashMap<&str, HashSet<&str>> = HashMap::new();
    for f in &ctx.fns {
        let mut set = HashSet::new();
        for t in &toks[f.body_open..=f.body_close.min(toks.len() - 1)] {
            if t.kind == TokKind::Ident {
                set.insert(t.text.as_str());
            }
        }
        // Last definition wins on duplicate names across impls; for
        // resolution credit a union would also be sound, so merge.
        fn_tokens.entry(f.name.as_str()).or_default().extend(set);
    }

    for f in &ctx.fns {
        if ctx.in_test(f.line) || ctx.in_test(toks[f.body_open].line) {
            continue;
        }
        let acquires = find_acquires(toks, f.body_open, f.body_close);
        for a in acquires {
            if ctx.in_test(a.line) {
                continue;
            }
            stats.acquires += 1;
            // An annotation at the acquire waives every exit.
            if has_resolves_annotation(ctx, a.line, Some(a.event)) {
                continue;
            }
            for e in &f.exits {
                // Exits lexically before the acquire can't leak the entry.
                if e.stmt_end < a.idx {
                    continue;
                }
                stats.exits_checked += 1;
                let window_end = e.stmt_end.min(f.body_close);
                if window_covers(toks, a.idx + 1, window_end, &a, &fn_tokens) {
                    continue;
                }
                if has_resolves_annotation(ctx, e.line, Some(a.event)) {
                    continue;
                }
                let how = match e.kind {
                    ExitKind::Return => "an explicit `return`",
                    ExitKind::Try => "a `?` propagation",
                    ExitKind::End => "the end of the function",
                };
                out.push(Finding {
                    file: ctx.file.to_string(),
                    line: e.line,
                    rule: "resolution",
                    message: format!(
                        "`{}` acquires `{}` at line {} but {} leaves it unresolved; \
                         reach one of [{}] on this path, or annotate the acquire or this \
                         exit with `// RESOLVES({}): why`",
                        f.name,
                        a.event,
                        a.line,
                        how,
                        a.resolve_events
                            .iter()
                            .chain(a.resolve_calls.iter())
                            .copied()
                            .collect::<Vec<_>>()
                            .join(", "),
                        a.event
                    ),
                });
            }
        }
    }
}

/// Flag emits of owned resolution events outside their owner's module:
/// `EventKind::<X>` as an argument of an `emit`/`emit_link` call.
fn check_owned_emits(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let norm = ctx.file.replace('\\', "/");
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        let is_path = t.kind == TokKind::Ident
            && t.text == "EventKind"
            && toks.get(i + 1).is_some_and(|u| u.text == ":");
        if !is_path || ctx.in_test(t.line) {
            continue;
        }
        let Some(v) = toks.get(i + 3) else { continue };
        let Some(own) = manifest::EMIT_OWNERS
            .iter()
            .find(|o| o.events.contains(&v.text.as_str()) && !norm.ends_with(o.owner))
        else {
            continue;
        };
        if !matches!(enclosing_call(toks, i), Some("emit" | "emit_link")) {
            continue;
        }
        out.push(Finding {
            file: ctx.file.to_string(),
            line: v.line,
            rule: "resolution",
            message: format!(
                "`{}` is emitted outside `{}`: only `{}` may record it, under its lock and \
                 before waking waiters; call the table's resolver (ack/fail/withdraw) instead",
                v.text, own.owner, own.table
            ),
        });
    }
}

/// Name of the call whose argument list encloses token `idx`, if any.
fn enclosing_call(toks: &[Tok], idx: usize) -> Option<&str> {
    let mut depth = 0usize;
    for j in (0..idx).rev() {
        match toks[j].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" if depth > 0 => depth -= 1,
            "(" => return j.checked_sub(1).map(|p| toks[p].text.as_str()),
            "[" | "{" | ";" => return None,
            _ => {}
        }
    }
    None
}

/// Find acquire sites in `[from, to]`.
fn find_acquires(toks: &[Tok], from: usize, to: usize) -> Vec<Acquire> {
    let mut out = Vec::new();
    for i in from..=to.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Event acquire: `emit ( EventKind :: <X>` — requiring the emit
        // prefix keeps match arms over EventKind (the checker, tests)
        // from reading as acquires.
        if t.text == "EventKind"
            && i >= 2
            && toks[i - 2].text == "emit"
            && toks[i - 1].text == "("
            && toks.get(i + 1).is_some_and(|u| u.text == ":")
            && toks.get(i + 2).is_some_and(|u| u.text == ":")
        {
            if let Some(v) = toks.get(i + 3) {
                if let Some(pair) = manifest::EVENT_PAIRS.iter().find(|p| p.acquire_event == v.text)
                {
                    out.push(Acquire {
                        idx: i + 3,
                        line: v.line,
                        event: pair.acquire_event,
                        resolve_events: pair.resolve_events,
                        resolve_calls: pair.resolve_calls,
                    });
                }
            }
            continue;
        }
        // Table acquire: `<receiver> . <method> (`.
        if let Some(cp) = manifest::CALL_PAIRS.iter().find(|cp| cp.method == t.text) {
            let recv_ok = i >= 2
                && toks[i - 1].text == "."
                && toks[i - 2].kind == TokKind::Ident
                && toks[i - 2].text == cp.receiver;
            let called = toks.get(i + 1).is_some_and(|u| u.text == "(");
            if recv_ok && called {
                out.push(Acquire {
                    idx: i,
                    line: t.line,
                    event: cp.event,
                    resolve_events: &[],
                    resolve_calls: cp.resolutions,
                });
            }
        }
    }
    out
}

/// Does the token window `[from, to]` contain a resolution for `a`?
fn window_covers(
    toks: &[Tok],
    from: usize,
    to: usize,
    a: &Acquire,
    fn_tokens: &HashMap<&str, HashSet<&str>>,
) -> bool {
    for i in from..=to.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Resolution event mention: `EventKind :: <R>`.
        if t.text == "EventKind"
            && toks.get(i + 1).is_some_and(|u| u.text == ":")
            && toks.get(i + 2).is_some_and(|u| u.text == ":")
            && toks.get(i + 3).is_some_and(|u| {
                u.kind == TokKind::Ident && a.resolve_events.contains(&u.text.as_str())
            })
        {
            return true;
        }
        // Resolver call, or one-level local-call credit.
        if toks.get(i + 1).is_some_and(|u| u.text == "(") {
            let name = t.text.as_str();
            if a.resolve_calls.contains(&name) {
                return true;
            }
            if let Some(body) = fn_tokens.get(name) {
                if a.resolve_events.iter().chain(a.resolve_calls.iter()).any(|r| body.contains(r)) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::{scan_source, FileMode, Finding};

    fn findings(src: &str) -> Vec<Finding> {
        scan_source("mem://resolution.rs", src, FileMode::Single)
    }

    #[test]
    fn early_try_exit_after_acquire_is_flagged() {
        let src = "fn f(&self) -> Result<(), E> {\n\
                   let id = self.pending.register(8, target);\n\
                   self.obs.emit(EventKind::GetReqTx, id, [0, 0]);\n\
                   let off = offset32(x)?;\n\
                   self.pending.wait_with_retry_until(id, off, None)\n\
                   }";
        let out = findings(src);
        assert!(out.iter().any(|f| f.rule == "resolution" && f.line == 4), "{out:?}");
    }

    #[test]
    fn resolved_on_every_exit_is_clean() {
        let src = "fn f(&self) -> Result<(), E> {\n\
                   let id = self.pending.register(8, target);\n\
                   self.obs.emit(EventKind::GetReqTx, id, [0, 0]);\n\
                   self.pending.wait_with_retry_until(id, model, None)?;\n\
                   self.obs.emit(EventKind::GetDone, id, [0, 0]);\n\
                   Ok(())\n\
                   }";
        let out = findings(src);
        assert!(out.iter().all(|f| f.rule != "resolution"), "{out:?}");
    }

    #[test]
    fn acquire_annotation_waives_all_exits() {
        let src = "fn f(&self) {\n\
                   // RESOLVES(CreditConsume): the peer re-grants after absorbing the frame.\n\
                   self.obs.emit(EventKind::CreditConsume, 1, [0, 0]);\n\
                   }";
        assert!(findings(src).iter().all(|f| f.rule != "resolution"));
    }

    #[test]
    fn wrong_event_annotation_still_fires() {
        let src = "fn f(&self) {\n\
                   // RESOLVES(PutIssue): mismatched pairing must not waive this.\n\
                   self.obs.emit(EventKind::CreditConsume, 1, [0, 0]);\n\
                   }";
        assert!(findings(src).iter().any(|f| f.rule == "resolution"));
    }

    #[test]
    fn one_level_call_graph_credit() {
        let src = "fn cleanup(&self, pe: u16) { self.pending.fail_dest(pe, err()); }\n\
                   fn f(&self) {\n\
                   self.obs.emit(EventKind::GetReqTx, 1, [0, 0]);\n\
                   self.cleanup(3);\n\
                   }";
        let out = findings(src);
        assert!(out.iter().all(|f| f.rule != "resolution"), "{out:?}");
    }

    #[test]
    fn owned_resolution_emits_outside_the_owner_are_flagged() {
        let src = "fn on_ack(&self, id: u32) {\n\
                   if self.unacked.ack(id) {\n\
                   self.obs.emit(EventKind::PutAcked, u64::from(id), [0, 0]);\n\
                   }\n\
                   }";
        let out = findings(src);
        assert!(out.iter().any(|f| f.rule == "resolution" && f.line == 3), "{out:?}");
        let owned = scan_source("crates/ntb-net/src/pending.rs", src, FileMode::Workspace);
        assert!(owned.iter().all(|f| f.rule != "resolution"), "{owned:?}");
        // Naming the event outside an emit (a checker match arm, a kind
        // handed to the owner) is not an emit.
        let arm = "fn f(k: EventKind) -> bool { matches!(k, EventKind::PutAcked) }";
        assert!(findings(arm).is_empty());
    }

    #[test]
    fn checker_style_match_arms_are_not_acquires() {
        let src = "fn f(kind: EventKind) -> bool {\n\
                   matches!(kind, EventKind::GetReqTx | EventKind::PutIssue)\n\
                   }";
        assert!(findings(src).iter().all(|f| f.rule != "resolution"));
    }
}
