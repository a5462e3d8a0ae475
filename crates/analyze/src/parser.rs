//! Item-level parser over the [`crate::lexer`] token stream.
//!
//! Not a full Rust grammar — just enough structure for whole-workspace
//! lint rules: the item tree (modules, functions, impls, structs, enums,
//! traits, consts) with line spans, and `#[cfg(test)]` scoping at item
//! granularity. Match expressions are [`crate::matchexpr`]'s.

use crate::lexer::{FileLex, TokKind, Token};

/// What kind of item a parsed node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`
    Mod,
    /// `fn name(…) -> … { … }`
    Fn,
    /// `impl Type { … }` / `impl Trait for Type { … }`
    Impl,
    /// `struct` / `union`
    Struct,
    /// `enum`
    Enum,
    /// `trait`
    Trait,
    /// `const` / `static`
    Const,
    /// `type` alias
    TypeAlias,
    /// `use` / `extern crate`
    Use,
    /// `macro_rules!`
    Macro,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item's kind.
    pub kind: ItemKind,
    /// Item (or an ancestor) carries `#[cfg(test)]`.
    pub cfg_test: bool,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// 1-based line of the item's last token.
    pub end_line: usize,
    /// Child items (modules, impl and trait bodies).
    pub children: Vec<Item>,
}

impl Item {
    /// This item and all descendants, depth-first.
    pub fn walk<'a>(&'a self, out: &mut Vec<&'a Item>) {
        out.push(self);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// Parse the item tree of a lexed file.
pub fn parse_items(fx: &FileLex) -> Vec<Item> {
    parse_range(&fx.tokens, 0, fx.tokens.len(), false)
}

/// Every item in the tree, flattened depth-first.
pub fn flatten(items: &[Item]) -> Vec<&Item> {
    let mut out = Vec::new();
    for it in items {
        it.walk(&mut out);
    }
    out
}

/// 1-based line ranges covered by `#[cfg(test)]` items.
pub fn test_line_spans(items: &[Item]) -> Vec<(usize, usize)> {
    flatten(items).into_iter().filter(|it| it.cfg_test).map(|it| (it.line, it.end_line)).collect()
}

/// Is `line` inside any of the given spans?
pub fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

const ITEM_KEYWORDS: [(&str, ItemKind); 12] = [
    ("mod", ItemKind::Mod),
    ("fn", ItemKind::Fn),
    ("impl", ItemKind::Impl),
    ("struct", ItemKind::Struct),
    ("union", ItemKind::Struct),
    ("enum", ItemKind::Enum),
    ("trait", ItemKind::Trait),
    ("const", ItemKind::Const),
    ("static", ItemKind::Const),
    ("type", ItemKind::TypeAlias),
    ("use", ItemKind::Use),
    ("extern", ItemKind::Use),
];

/// Skip a balanced bracket group starting at the opener `toks[i]`;
/// returns the index just past the closer.
pub(crate) fn skip_group(toks: &[Token], i: usize) -> usize {
    let (open, close) = match toks[i].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return i + 1,
    };
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Does the attribute group `[ … ]` starting at index `i` (the `[`)
/// contain `cfg ( test`, possibly with other predicates?
fn attr_is_cfg_test(toks: &[Token], i: usize, end: usize) -> bool {
    (i..end.saturating_sub(2)).any(|k| {
        toks[k].is_ident("cfg")
            && toks[k + 1].is_punct('(')
            && (k + 2..end).take(8).any(|m| toks.get(m).is_some_and(|t| t.is_ident("test")))
    })
}

fn parse_range(toks: &[Token], start: usize, end: usize, inherited_test: bool) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = start;
    let mut pending_test = false;
    while i < end {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.is_punct('#') => {
                // Attribute: `#[ … ]` (outer) or `#![ … ]` (inner).
                let inner = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
                let open = if inner { i + 2 } else { i + 1 };
                if toks.get(open).is_some_and(|n| n.is_punct('[')) {
                    let close = skip_group(toks, open);
                    if !inner {
                        pending_test |= attr_is_cfg_test(toks, open, close);
                    }
                    i = close;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident => {
                let mut j = i;
                if toks[j].is_ident("pub") {
                    j += 1;
                    if toks.get(j).is_some_and(|n| n.is_punct('(')) {
                        j = skip_group(toks, j); // pub(crate) etc
                    }
                }
                // Leading qualifiers before the item keyword.
                while toks
                    .get(j)
                    .is_some_and(|n| ["unsafe", "async", "default"].iter().any(|q| n.is_ident(q)))
                {
                    j += 1;
                }
                let kw = toks.get(j).filter(|n| n.kind == TokKind::Ident).map(|n| n.text.as_str());
                let kind = kw.and_then(|k| {
                    ITEM_KEYWORDS.iter().find(|&&(w, _)| w == k).map(|&(_, knd)| knd)
                });
                // `macro_rules! name { … }`
                let kind = match (kind, kw) {
                    (None, Some("macro_rules")) => Some(ItemKind::Macro),
                    (k, _) => k,
                };
                match kind {
                    Some(kind) if j < end => {
                        let (item, next) =
                            parse_item(toks, j, end, kind, inherited_test || pending_test);
                        items.push(item);
                        pending_test = false;
                        i = next.max(j + 1);
                    }
                    _ => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    items
}

/// Parse one item whose keyword sits at `toks[kw]`; returns the item and
/// the index just past it.
fn parse_item(
    toks: &[Token],
    kw: usize,
    end: usize,
    kind: ItemKind,
    cfg_test: bool,
) -> (Item, usize) {
    let line = toks[kw].line;
    // Scan to the body `{` or the terminating `;` at group depth 0.
    let mut depth = 0i32;
    let mut j = kw + 1;
    let mut body: Option<(usize, usize)> = None;
    let mut past = end;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            j = skip_group(toks, j);
            continue;
        }
        if t.is_punct('<') {
            depth += 1; // generics; `<` in expressions can't start an item sig
        } else if t.is_punct('>') {
            depth = (depth - 1).max(0);
        } else if depth == 0 && t.is_punct(';') && body.is_none() {
            // Bodyless: `use …;`, `const …;`, trait fn decl. Consts may
            // contain `{ … }` block initializers before the `;`.
            past = j + 1;
            break;
        } else if depth == 0 && t.is_punct('{') {
            match kind {
                ItemKind::Const | ItemKind::Use | ItemKind::TypeAlias => {
                    // `const X: T = { … };` — skip the block, keep looking
                    // for the `;`.
                    j = skip_group(toks, j);
                    continue;
                }
                _ => {
                    let close = skip_group(toks, j);
                    body = Some((j + 1, close.saturating_sub(1)));
                    past = close;
                    break;
                }
            }
        }
        j += 1;
    }
    let children = match (kind, body) {
        (ItemKind::Mod | ItemKind::Impl | ItemKind::Trait, Some((b, e))) => {
            parse_range(toks, b, e, cfg_test)
        }
        _ => Vec::new(),
    };
    let end_line = toks.get(past.saturating_sub(1)).map(|t| t.line).unwrap_or(line);
    (Item { kind, cfg_test, line, end_line, children }, past)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn items_and_test_scopes() {
        let src = "\
pub fn documented() {}
#[cfg(test)]
mod tests {
    fn inner() { helper(); }
}
pub struct After;
";
        let fx = lex(src);
        let items = parse_items(&fx);
        let flat = flatten(&items);
        let shape: Vec<_> = flat.iter().map(|i| (i.kind, i.line)).collect();
        assert_eq!(
            shape,
            vec![(ItemKind::Fn, 1), (ItemKind::Mod, 3), (ItemKind::Fn, 4), (ItemKind::Struct, 6)]
        );
        let spans = test_line_spans(&items);
        assert!(in_spans(&spans, 4), "{spans:?}");
        assert!(!in_spans(&spans, 6), "{spans:?}");
        // Code *after* a test module is still parsed (item granularity).
        assert!(flat.iter().any(|i| i.kind == ItemKind::Struct && !i.cfg_test));
    }

    #[test]
    fn impl_blocks_nest_their_members() {
        let src = "\
/// Docs.
pub struct S;
impl S {
    pub(crate) fn a(&self) {}
}
impl std::fmt::Display for S {
    fn fmt(&self) {}
}
";
        let fx = lex(src);
        let items = parse_items(&fx);
        let kinds: Vec<_> = items.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![ItemKind::Struct, ItemKind::Impl, ItemKind::Impl]);
        assert_eq!((items[1].children[0].kind, items[1].children[0].line), (ItemKind::Fn, 4));
        assert_eq!((items[2].children[0].kind, items[2].children[0].line), (ItemKind::Fn, 7));
    }

    #[test]
    fn const_with_block_body_terminates_at_semicolon() {
        let src = "const X: u64 = { 3 + 4 };\npub fn after() {}\n";
        let fx = lex(src);
        let items = parse_items(&fx);
        let shape: Vec<_> = items.iter().map(|i| (i.kind, i.line)).collect();
        assert_eq!(shape, vec![(ItemKind::Const, 1), (ItemKind::Fn, 2)]);
    }
}
