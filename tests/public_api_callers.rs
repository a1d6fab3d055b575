//! Every `pub fn` in the library crates has a program caller.
//!
//! The scan is by name. It collects the name of every `pub fn` defined in
//! `crates/*/src` outside `#[cfg(test)]` items, then looks for that name,
//! as an identifier that is not itself a `fn` definition, in the program
//! files: `crates/*/src` outside `#[cfg(test)]` items (the binaries under
//! `crates/bench/src/bin` included), `crates/*/benches`,
//! `crates/*/examples`, `examples/`, `src/` and `perfbench/src`. `use`
//! declarations, comments and string literals are skipped, so a re-export,
//! a doc example or a test alone never keeps a function alive.
//!
//! A name that only tests reach is dead API: delete it, or call it from a
//! program. [`ALLOWED`] may only shrink, and the test fails when one of
//! its entries gains a caller or loses its definition.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `pub fn`s kept without a program caller, each with its reason.
const ALLOWED: &[(&str, &str)] = &[
    (
        "measure_allocations",
        "entry point of the test-support allocation-counting crate",
    ),
    (
        "dimm_downtime_us",
        "the measure the fault-nesting tests compare between plans",
    ),
    (
        "from_words",
        "the ISA decoder's fuzz surface in tests/isa_properties.rs",
    ),
    (
        "to_bytes",
        "the ISA decoder's fuzz surface in tests/isa_properties.rs",
    ),
    (
        "decode_bytes",
        "the ISA decoder's fuzz surface in tests/isa_properties.rs",
    ),
];

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Punct(char),
}

/// Tokenize Rust source into identifiers and punctuation, dropping
/// comments, string, byte-string, raw-string and char literals, numbers,
/// lifetimes and whitespace.
fn tokenize(src: &str) -> Vec<Token> {
    let s: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && s.get(i + 1) == Some(&'/') {
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && s.get(i + 1) == Some(&'*') {
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && s.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && s.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(&s, i + 1);
        } else if c == '\'' {
            if s.get(i + 1) == Some(&'\\') {
                i += 2;
                while i < s.len() && s[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if s.get(i + 2) == Some(&'\'') {
                i += 3;
            } else {
                // A lifetime: skip the quote, the name follows as an ident.
                i += 1;
            }
        } else if c.is_ascii_digit() {
            while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                i += 1;
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                i += 1;
            }
            let ident: String = s[start..i].iter().collect();
            let raw = matches!(ident.as_str(), "r" | "br");
            if raw && matches!(s.get(i), Some('#') | Some('"')) {
                let mut hashes = 0;
                while s.get(i) == Some(&'#') {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                loop {
                    if i >= s.len() {
                        break;
                    }
                    if s[i] == '"' && (1..=hashes).all(|k| s.get(i + k) == Some(&'#')) {
                        i += 1 + hashes;
                        break;
                    }
                    i += 1;
                }
            } else if ident == "b" && s.get(i) == Some(&'"') {
                i = skip_string(&s, i + 1);
            } else if ident == "b" && s.get(i) == Some(&'\'') {
                i += 1;
                if s.get(i) == Some(&'\\') {
                    i += 1;
                }
                while i < s.len() && s[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else {
                out.push(Token::Ident(ident));
            }
        } else {
            out.push(Token::Punct(c));
            i += 1;
        }
    }
    out
}

/// Index just past the closing quote of a string whose body starts at `i`.
fn skip_string(s: &[char], mut i: usize) -> usize {
    while i < s.len() {
        match s[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Index of the first token after the item that starts at `i`: it ends at
/// a `;` outside brackets, after the `}` that closes its first top-level
/// brace block, or before a closing bracket it did not open. A field or a
/// match arm (anything that does not start with an item keyword) also ends
/// at a `,` outside brackets.
fn item_end(tokens: &[Token], mut i: usize) -> usize {
    const ITEMS: &[&str] = &[
        "pub",
        "fn",
        "mod",
        "impl",
        "struct",
        "enum",
        "union",
        "const",
        "static",
        "type",
        "trait",
        "use",
        "unsafe",
        "extern",
        "macro_rules",
        "let",
    ];
    let commas = !matches!(&tokens.get(i), Some(Token::Ident(k)) if ITEMS.contains(&k.as_str()));
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i] {
            Token::Punct('(' | '[' | '{') => depth += 1,
            Token::Punct(')' | ']') if depth == 0 => return i,
            Token::Punct('}') => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            Token::Punct(')' | ']') => depth -= 1,
            Token::Punct(';') if depth == 0 => return i + 1,
            Token::Punct(',') if depth == 0 && commas => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index just past the bracket that closes the one opened at `i`.
fn past_brackets(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i] {
            Token::Punct('(' | '[' | '{') => depth += 1,
            Token::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Whether the tokens at `i` spell `#[cfg(test)]`.
fn is_cfg_test(tokens: &[Token], i: usize) -> bool {
    let want = [
        Token::Punct('#'),
        Token::Punct('['),
        Token::Ident("cfg".into()),
        Token::Punct('('),
        Token::Ident("test".into()),
        Token::Punct(')'),
        Token::Punct(']'),
    ];
    tokens.len() >= i + want.len() && tokens[i..i + want.len()] == want
}

/// The program tokens of one file: `#[cfg(test)]` items and `use`
/// declarations removed.
fn program_tokens(src: &str) -> Vec<Token> {
    let tokens = tokenize(src);
    let mut kept = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test(&tokens, i) {
            i += 7;
            // Further attributes on the same item.
            while tokens.get(i) == Some(&Token::Punct('#')) {
                i = past_brackets(&tokens, i + 1);
            }
            i = item_end(&tokens, i);
        } else if tokens[i] == Token::Ident("use".into()) {
            // `pub use`/`pub(crate) use` leave only their visibility behind.
            i = item_end(&tokens, i);
        } else {
            kept.push(tokens[i].clone());
            i += 1;
        }
    }
    kept
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `pub fn` names defined in `tokens`, and the identifiers it names
/// outside `fn` definitions.
fn scan(tokens: &[Token], defined: &mut BTreeMap<String, usize>, named: &mut BTreeSet<String>) {
    for (i, token) in tokens.iter().enumerate() {
        let Token::Ident(name) = token else {
            continue;
        };
        let after_fn = i > 0 && tokens[i - 1] == Token::Ident("fn".into());
        if !after_fn {
            named.insert(name.clone());
            continue;
        }
        let qualifiers = ["const", "unsafe", "async", "extern"];
        let mut j = i - 1;
        while j > 0 && matches!(&tokens[j - 1], Token::Ident(q) if qualifiers.contains(&q.as_str()))
        {
            j -= 1;
        }
        if j > 0 && tokens[j - 1] == Token::Ident("pub".into()) {
            *defined.entry(name.clone()).or_default() += 1;
        }
    }
}

#[test]
fn every_public_function_has_a_program_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut library = Vec::new();
    let mut programs = Vec::new();
    let mut crates: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    crates.sort();
    for krate in &crates {
        rust_files(&krate.join("src"), &mut library);
        rust_files(&krate.join("benches"), &mut programs);
        rust_files(&krate.join("examples"), &mut programs);
    }
    rust_files(&root.join("examples"), &mut programs);
    rust_files(&root.join("src"), &mut programs);
    rust_files(&root.join("perfbench/src"), &mut programs);
    assert!(library.len() > 50, "found the library sources");

    let mut defined = BTreeMap::new();
    let mut named = BTreeSet::new();
    for path in &library {
        let src = fs::read_to_string(path).expect("readable source");
        scan(&program_tokens(&src), &mut defined, &mut named);
    }
    for path in &programs {
        let src = fs::read_to_string(path).expect("readable source");
        let mut ignored = BTreeMap::new();
        scan(&program_tokens(&src), &mut ignored, &mut named);
    }
    assert!(defined.len() > 200, "found the public functions");

    let allowed: BTreeSet<&str> = ALLOWED.iter().map(|&(name, _)| name).collect();
    let uncalled: Vec<&str> = defined
        .keys()
        .map(String::as_str)
        .filter(|name| !named.contains(*name) && !allowed.contains(name))
        .collect();
    assert!(
        uncalled.is_empty(),
        "public functions no program calls (delete them, or call them from a program): {uncalled:?}"
    );
    for (name, reason) in ALLOWED {
        assert!(
            defined.contains_key(*name),
            "allowlisted `{name}` ({reason}) is no longer a public function: drop the entry"
        );
        assert!(
            !named.contains(*name),
            "allowlisted `{name}` ({reason}) now has a program caller: drop the entry"
        );
    }
}

#[test]
fn the_scanner_skips_tests_uses_comments_and_strings() {
    let src = r##"
        use crate::a::{alpha, beta};
        pub fn defined() {}
        // gamma();
        /* delta(); /* nested */ */
        fn caller() { let s = "epsilon()"; let r = r#"zeta"#; let c = '{'; eta(); }
        #[cfg(test)]
        mod tests { fn t() { theta(); } }
        #[cfg(test)]
        #[derive(Debug)]
        struct Oracle { iota: u32 }
        #[cfg(test)]
        fn oracle<A, B>(a: A, b: B) { lambda(); }
        fn after<'a>(x: &'a str) { kappa(); }
    "##;
    let mut defined = BTreeMap::new();
    let mut named = BTreeSet::new();
    scan(&program_tokens(src), &mut defined, &mut named);
    assert_eq!(defined.keys().collect::<Vec<_>>(), ["defined"]);
    for gone in [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "iota", "lambda", "defined",
    ] {
        assert!(!named.contains(gone), "{gone} must not count as a caller");
    }
    assert!(named.contains("eta") && named.contains("kappa"));
}
