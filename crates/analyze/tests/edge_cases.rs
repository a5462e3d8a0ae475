//! Tokenizer/parser edge cases exercised end-to-end through the public
//! analyzer API: raw strings, nested block comments, lifetimes vs char
//! literals, and multi-line string literals containing hazard patterns
//! must never confuse the rules downstream of the lexer.

use raidx_analyze::lexer::{lex, TokKind};
use raidx_analyze::matchexpr::find_matches;
use raidx_analyze::parser::{flatten, parse_items};
use raidx_analyze::{analyze_files, SourceFile};

fn findings_for(src: &str) -> Vec<String> {
    analyze_files(&[SourceFile::new("sim-core/src/edge.rs", src)])
        .into_iter()
        .filter(|f| !f.acknowledged)
        .map(|f| f.render())
        .collect()
}

#[test]
fn raw_strings_with_hash_depths_hide_hazards_and_acks() {
    // Hazard text and even an ack marker inside raw strings are inert.
    let src = r####"
fn f() -> (&'static str, &'static str) {
    let a = r#"Instant::now() inside raw "text""#;
    let b = r##"SystemTime with // lint-ok(determinism): not an ack"##;
    (a, b)
}
"####;
    assert_eq!(findings_for(src), Vec::<String>::new());
}

#[test]
fn nested_block_comments_swallow_items_and_hazards() {
    let src = "\
/* outer /* inner Instant::now() */ still comment
   more HashMap iteration text */
fn real() {}
";
    assert_eq!(findings_for(src), Vec::<String>::new());
    let items = parse_items(&lex(src));
    assert_eq!(flatten(&items).len(), 1);
}

#[test]
fn lifetimes_do_not_become_char_literals() {
    // `'a` twice, then real char literals including an escaped quote;
    // the hazard after them must still be found at the right line.
    let src = "\
fn f<'a>(x: &'a str) -> char {
    let q = '\"';
    let e = '\\'';
    let t = Instant::now();
    keep(x, t);
    q
}
";
    let f = findings_for(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].contains(":4 "), "{f:?}");
    let fx = lex(src);
    assert_eq!(fx.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
    assert_eq!(fx.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
}

#[test]
fn multiline_strings_containing_hazard_patterns_are_inert() {
    let src = "\
fn f() -> String {
    let msg = \"first line
        calls Instant::now() and iterates a HashMap
        for (k, v) in m.iter() — but only as prose\";
    msg.to_string()
}
";
    assert_eq!(findings_for(src), Vec::<String>::new());
}

#[test]
fn multiline_string_then_real_hazard_keeps_line_numbers() {
    let src = "\
fn f() {
    let s = \"spans
lines\";
    let t = Instant::now();
    keep(s, t);
}
";
    let f = findings_for(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].contains(":4 "), "{f:?}");
}

#[test]
fn byte_and_raw_byte_strings_lex_as_strings() {
    let fx = lex("let a = b\"ab\"; let c = br#\"cd \"e\" f\"#;");
    let strs: Vec<_> =
        fx.tokens.iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text.as_str()).collect();
    assert_eq!(strs, vec!["ab", "cd \"e\" f"]);
}

#[test]
fn match_inside_string_is_not_a_match_expression() {
    let src = "fn f() -> &'static str { \"match x { _ => 0 }\" }";
    assert!(find_matches(&lex(src).tokens).is_empty());
}

#[test]
fn cfg_test_attribute_inside_string_does_not_open_a_test_scope() {
    // The attribute text appears only inside a string literal, so the
    // hazard below it is still production code.
    let src = "\
fn f() -> &'static str {
    let s = \"#[cfg(test)] mod tests {\";
    let t = Instant::now();
    keep(t);
    s
}
";
    let f = findings_for(src);
    assert_eq!(f.len(), 1, "{f:?}");
}
