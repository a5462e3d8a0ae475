//! Rule family 1 — scope-aware nondeterminism hazards.
//!
//! Hazard classes (wall clocks / OS entropy calls, iteration over
//! `HashMap`/`HashSet` bindings) are matched against the lexer's
//! per-line code views, with real scope information from the item
//! parser:
//!
//! * `#[cfg(test)]` is skipped at **item** granularity — a test module
//!   in the middle of a file no longer hides the production code below
//!   it, and a `#[cfg(test)]` helper fn anywhere is exempt;
//! * unordered-map bindings are tracked **per scope** — a `let` binding
//!   is only a hazard source inside its enclosing function, while
//!   struct fields and statics stay file-wide.

use crate::parser::{flatten, Item, ItemKind};
use crate::{Finding, ParsedFile};

/// Stable rule id for this family.
pub const RULE: &str = "determinism";

// Built with concat! so the analyzer does not flag its own tables.
const CLOCK_AND_ENTROPY: [&str; 7] = [
    concat!("thread", "_rng"),
    concat!("Instant", "::now"),
    concat!("System", "Time"),
    concat!("rand", "::random"),
    concat!("random", "_state"),
    concat!(".ela", "psed("),
    concat!("UNIX_", "EPOCH"),
];

const UNORDERED_TYPES: [&str; 2] = [concat!("Hash", "Map"), concat!("Hash", "Set")];

const ITER_METHODS: [&str; 7] =
    [".iter()", ".iter_mut()", ".values()", ".values_mut()", ".keys()", ".drain()", ".into_iter()"];

/// Extract the identifier bound on a line declaring an unordered-map
/// value: `foo: HashMap<…>`, `let foo = HashMap::new()`.
fn declared_ident(line: &str) -> Option<String> {
    let pos = UNORDERED_TYPES.iter().filter_map(|t| line.find(t)).min()?;
    let before = &line[..pos];
    // The ident precedes the nearest `:` or `=` left of the type; a `:`
    // that is half of `::` belongs to the type path, not the binding.
    let b = before.as_bytes();
    let mut sep = None;
    let mut i = b.len();
    while i > 0 {
        i -= 1;
        match b[i] {
            b'=' => {
                sep = Some(i);
                break;
            }
            b':' if i > 0 && b[i - 1] == b':' => i -= 1, // skip `::`
            b':' => {
                sep = Some(i);
                break;
            }
            _ => {}
        }
    }
    let head = before[..sep?].trim_end();
    let ident: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let keyword = matches!(ident.as_str(), "" | "let" | "mut" | "pub" | "crate" | "self" | "fn");
    (!keyword && !ident.chars().next().is_some_and(|c| c.is_numeric())).then_some(ident)
}

fn is_word_boundary(text: &str, start: usize) -> bool {
    // `.` is allowed before: `self.pending.iter()` still iterates the
    // tracked field `pending`.
    start == 0
        || !text[..start].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Does `line` iterate the tracked identifier `ident`?
fn iterates(line: &str, ident: &str) -> bool {
    for m in ITER_METHODS {
        let call = format!("{ident}{m}");
        let mut from = 0;
        while let Some(off) = line[from..].find(&call) {
            let at = from + off;
            if is_word_boundary(line, at) {
                return true;
            }
            from = at + 1;
        }
    }
    // `for x in map` / `for (k, v) in &map` / `in &mut self.map`.
    if let Some(pos) = line.find(" in ") {
        let tail = line[pos + 4..].trim_start_matches(['&', ' ']).trim_start_matches("mut ");
        let end = tail
            .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
            .unwrap_or(tail.len());
        // Last path segment: `ctx.barriers` iterates `barriers`.
        if tail[..end].split('.').next_back() == Some(ident) && !tail[end..].starts_with('(') {
            return true;
        }
    }
    false
}

/// A binding that names an unordered map, live over a line range.
struct Tracked {
    ident: String,
    span: (usize, usize),
}

/// Innermost non-test function item whose span contains `line`.
fn enclosing_fn(items: &[&Item], line: usize) -> Option<(usize, usize)> {
    items
        .iter()
        .filter(|i| i.kind == ItemKind::Fn && i.line <= line && line <= i.end_line)
        .map(|i| (i.line, i.end_line))
        .min_by_key(|&(a, b)| b - a)
}

/// Scan one parsed file for hazards (acknowledgement is the caller's
/// job: [`crate::analyze_files`] applies the `lint-ok` markers).
pub fn scan(pf: &ParsedFile) -> Vec<Finding> {
    let fns = flatten(&pf.items);
    let mut tracked: Vec<Tracked> = Vec::new();
    let mut out: Vec<Finding> = Vec::new();
    for (idx, view) in pf.lex.lines.iter().enumerate() {
        let lineno = idx + 1;
        if pf.in_test(lineno) {
            continue;
        }
        let mut hazard = |what: String| {
            out.push(Finding {
                rule: RULE,
                file: pf.path.clone(),
                line: lineno,
                message: format!("{what} — {}", view.raw),
                acknowledged: false,
            });
        };
        let line = view.code.as_str();
        if let Some(ident) = declared_ident(line) {
            // `let` bindings live to the end of the enclosing fn;
            // fields / statics / fn params are file-wide.
            let span = if line.trim_start().starts_with("let ") {
                enclosing_fn(&fns, lineno).unwrap_or((lineno, usize::MAX))
            } else {
                (0, usize::MAX)
            };
            if !tracked.iter().any(|t| t.ident == ident && t.span == span) {
                tracked.push(Tracked { ident, span });
            }
        }
        for pat in CLOCK_AND_ENTROPY {
            if line.contains(pat) {
                hazard(format!("forbidden call {pat}"));
            }
        }
        for t in &tracked {
            if t.span.0 <= lineno && lineno <= t.span.1 && iterates(line, &t.ident) {
                hazard(format!("unordered iteration of `{}`", t.ident));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hazards found in `src`.
    fn open_findings(src: &str) -> Vec<Finding> {
        scan(&ParsedFile::parse(&crate::SourceFile::new("x.rs", src)))
    }

    #[test]
    fn flags_wall_clock_and_entropy() {
        let src = "fn f() {\n    let t = Instant::now();\n    let r = rng.thread_rng();\n}\n";
        let h = open_findings(src);
        assert_eq!(h.len(), 2, "{h:?}");
        assert_eq!(h[0].line, 2);
    }

    #[test]
    fn flags_hashmap_iteration_through_binding() {
        let src = "\
struct S { pending: HashMap<u64, u32> }
fn f(s: &S) {
    for (k, v) in s.pending.iter() {
        use_it(k, v);
    }
}
";
        let h = open_findings(src);
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].message.contains("pending"));
    }

    #[test]
    fn let_binding_scope_ends_with_its_function() {
        // A `let` HashMap in one fn must not taint an unrelated `seen`
        // in a later fn — the scoping the line scanner could not do.
        let src = "\
fn a() {
    let seen: HashMap<u32, u32> = HashMap::new();
    use_it(seen.len());
}
fn b(seen: &[u32]) {
    for v in seen.iter() {
        show(v);
    }
}
";
        let h = open_findings(src);
        assert!(h.is_empty(), "{h:?}");
    }

    #[test]
    fn code_after_test_module_is_still_scanned() {
        // The line scanner stopped at the first #[cfg(test)]; item
        // granularity keeps scanning production code after it.
        let src = "\
fn ok() {}
#[cfg(test)]
mod tests {
    fn t() { Instant::now(); }
}
fn late() {
    let t = Instant::now();
    sink(t);
}
";
        let h = open_findings(src);
        assert_eq!(h.len(), 1, "{h:?}");
        assert_eq!(h[0].line, 7);
    }

    #[test]
    fn cfg_test_fn_mid_file_is_exempt() {
        let src = "\
#[cfg(test)]
fn helper() { Instant::now(); }
fn real() {}
";
        assert!(open_findings(src).is_empty());
    }

    #[test]
    fn hazards_in_strings_and_comments_are_not_findings() {
        let src = "\
// the stopwatch .elapsed( reading happens in the driver
fn f() {
    let msg = \"call Instant::now() to observe drift\";
    let raw = r#\"SystemTime in a raw \"string\" too\"#;
    emit(msg, raw);
}
";
        assert!(open_findings(src).is_empty());
    }
}
