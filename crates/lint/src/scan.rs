//! Item-level scanner: walks the token stream from [`crate::lexer`] and
//! recovers the structure the rule passes need — functions (their
//! `#[cfg(test)]` context and body token range), struct field lists,
//! `impl Trait for Type` pairs, and `type X = HashMap<…>` aliases.

use crate::lexer::{Comment, Lexed, Tok, TokKind};

/// A scanned `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// True inside `#[cfg(test)]` modules or `#[test]` functions.
    pub is_test: bool,
    /// Token index range of the body: `(open_brace, close_brace)`
    /// inclusive of both braces. `None` for trait-method signatures.
    pub body: Option<(usize, usize)>,
}

/// A scanned `struct` item with named fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Plain `pub` (not `pub(crate)` and the like).
    pub is_pub: bool,
    /// Named field `(name, first type ident)` pairs (empty for tuple/unit).
    pub fields: Vec<(String, String)>,
}

/// An `impl` block header: `(trait_name, self_type, line)`.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// `Some(trait)` for `impl Trait for Type`, `None` for inherent impls.
    pub trait_name: Option<String>,
    /// The `Type` in `impl … Type`.
    pub self_type: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
}

/// Fully scanned source file.
#[derive(Debug)]
pub struct FileScan {
    /// Path relative to the lint root, with `/` separators.
    pub path: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Comment stream.
    pub comments: Vec<Comment>,
    /// All functions (including nested in modules/impls).
    pub fns: Vec<FnItem>,
    /// All structs with named fields.
    pub structs: Vec<StructItem>,
    /// All impl-block headers.
    pub impls: Vec<ImplItem>,
    /// Names of `type X = HashMap/HashSet<…>` aliases.
    pub hash_aliases: Vec<String>,
    /// True for files under a `tests/` directory.
    pub is_test_file: bool,
}

impl FileScan {
    /// Scan a lexed file.
    pub fn new(path: String, lexed: Lexed) -> Self {
        let is_test_file = path.contains("/tests/");
        let mut scan = FileScan {
            path,
            toks: lexed.toks,
            comments: lexed.comments,
            fns: Vec::new(),
            structs: Vec::new(),
            impls: Vec::new(),
            hash_aliases: Vec::new(),
            is_test_file,
        };
        let end = scan.toks.len();
        let mut items = Items {
            toks: &scan.toks,
            fns: &mut scan.fns,
            structs: &mut scan.structs,
            impls: &mut scan.impls,
            hash_aliases: &mut scan.hash_aliases,
        };
        items.region(0, end, is_test_file);
        scan
    }

    /// Token text at `i`, or `""` past the end.
    pub fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    /// True if tokens starting at `i` match `pats` exactly.
    pub fn seq(&self, i: usize, pats: &[&str]) -> bool {
        pats.iter().enumerate().all(|(k, p)| self.text(i + k) == *p)
    }

    /// Crate name for `crates/<name>/…` paths.
    pub fn crate_name(&self) -> Option<&str> {
        self.path.strip_prefix("crates/")?.split('/').next()
    }

    /// True for files under `crates/<c>/src/`.
    pub fn in_src(&self) -> bool {
        self.path.contains("/src/")
    }

    /// True if any comment overlapping lines `[lo, hi]` contains `needle`.
    pub fn comment_near(&self, lo: u32, hi: u32, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.end_line >= lo && c.line <= hi && c.text.contains(needle))
    }
}

/// Find the matching `}` for the `{` at `open`; returns its index (or the
/// end of the stream if unbalanced).
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

struct Items<'a> {
    toks: &'a [Tok],
    fns: &'a mut Vec<FnItem>,
    structs: &'a mut Vec<StructItem>,
    impls: &'a mut Vec<ImplItem>,
    hash_aliases: &'a mut Vec<String>,
}

impl Items<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
    }

    /// Skip a balanced delimiter group starting at `i` (which must be on
    /// the opening delimiter); returns the index just past the closer.
    fn skip_group(&self, i: usize) -> usize {
        let (open, close) = match self.text(i) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return i + 1,
        };
        let mut depth = 0i64;
        let mut j = i;
        while j < self.toks.len() {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Collect the text of an attribute `#[…]` starting at the `#`.
    fn attr_text(&self, i: usize) -> (String, usize) {
        let mut j = i + 1; // at '['
        let end = self.skip_group(j);
        let mut s = String::new();
        j += 1;
        while j + 1 < end {
            s.push_str(self.text(j));
            s.push(' ');
            j += 1;
        }
        (s, end)
    }

    /// Scan items in token range `[start, end)`.
    fn region(&mut self, start: usize, end: usize, in_test: bool) {
        let mut i = start;
        let mut pending_pub = false;
        let mut pending_attrs: Vec<String> = Vec::new();
        while i < end {
            let t = self.text(i);
            match t {
                "#" if self.text(i + 1) == "[" => {
                    let (attr, next) = self.attr_text(i);
                    pending_attrs.push(attr);
                    i = next;
                }
                "pub" => {
                    pending_pub = self.text(i + 1) != "(";
                    i = if pending_pub {
                        i + 1
                    } else {
                        self.skip_group(i + 1)
                    };
                }
                "mod" if self.is_ident(i + 1) => {
                    let attrs_test = pending_attrs
                        .iter()
                        .any(|a| a.contains("cfg") && a.contains("test"));
                    let mut j = i + 2;
                    if self.text(j) == "{" {
                        let close = match_brace(self.toks, j);
                        self.region(j + 1, close, in_test || attrs_test);
                        i = close + 1;
                    } else {
                        while j < end && self.text(j) != ";" {
                            j += 1;
                        }
                        i = j + 1;
                    }
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "impl" => {
                    // Parse the header up to `{`: `impl<G> Trait<T> for Type<T>`
                    // or `impl Type`. Track angle-bracket depth; record the
                    // last depth-0 ident before/after `for`.
                    let line = self.toks[i].line;
                    let mut j = i + 1;
                    let mut angle = 0i64;
                    let mut before_for: Option<String> = None;
                    let mut after: Option<String> = None;
                    let mut saw_for = false;
                    while j < end && self.text(j) != "{" {
                        match self.text(j) {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "for" if angle == 0 => saw_for = true,
                            "where" if angle == 0 => break,
                            _ => {
                                if angle == 0 && self.is_ident(j) {
                                    let name = self.text(j).to_string();
                                    if saw_for {
                                        after.get_or_insert(name);
                                    } else {
                                        before_for = Some(name);
                                    }
                                }
                            }
                        }
                        j += 1;
                    }
                    while j < end && self.text(j) != "{" {
                        j += 1;
                    }
                    let (trait_name, self_type) = if saw_for {
                        (before_for, after.unwrap_or_default())
                    } else {
                        (None, before_for.unwrap_or_default())
                    };
                    if !self_type.is_empty() {
                        self.impls.push(ImplItem {
                            trait_name,
                            self_type,
                            line,
                        });
                    }
                    if self.text(j) == "{" {
                        let close = match_brace(self.toks, j);
                        self.region(j + 1, close, in_test);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "trait" if self.is_ident(i + 1) => {
                    let mut j = i + 2;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let close = match_brace(self.toks, j);
                        self.region(j + 1, close, in_test);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "fn" if self.is_ident(i + 1) => {
                    let attrs_test = pending_attrs.iter().any(|a| {
                        a.starts_with("test") || (a.contains("cfg") && a.contains("test"))
                    });
                    // Signature: skip the parameter list, then find the body
                    // `{` or `;`.
                    let mut j = i + 2;
                    let mut angle = 0i64;
                    while j < end {
                        match self.text(j) {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "(" if angle <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let params_end = self.skip_group(j);
                    // Return type / where clause up to `{` or `;`; skip
                    // balanced groups so closures in defaults don't confuse.
                    let mut b = params_end;
                    while b < end && self.text(b) != "{" && self.text(b) != ";" {
                        if self.text(b) == "(" || self.text(b) == "[" {
                            b = self.skip_group(b);
                        } else {
                            b += 1;
                        }
                    }
                    let body = if self.text(b) == "{" {
                        let close = match_brace(self.toks, b);
                        Some((b, close))
                    } else {
                        None
                    };
                    self.fns.push(FnItem {
                        is_test: in_test || attrs_test,
                        body,
                    });
                    i = body.map_or(b + 1, |(_, close)| close + 1);
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "struct" if self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    let line = self.toks[i].line;
                    let mut j = i + 2;
                    let mut angle = 0i64;
                    while j < end {
                        match self.text(j) {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "{" | ";" | "(" if angle <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let mut fields = Vec::new();
                    if self.text(j) == "{" {
                        let close = match_brace(self.toks, j);
                        let mut k = j + 1;
                        let mut depth = 0i64;
                        while k < close {
                            match self.text(k) {
                                "{" | "(" | "[" if depth == 0 => {
                                    k = self.skip_group(k);
                                    continue;
                                }
                                "<" => depth += 1,
                                ">" => depth -= 1,
                                "#" if depth == 0 && self.text(k + 1) == "[" => {
                                    k = self.skip_group(k + 1);
                                    continue;
                                }
                                "pub" if depth == 0 => {
                                    if self.text(k + 1) == "(" {
                                        k = self.skip_group(k + 1);
                                        continue;
                                    }
                                }
                                _ => {
                                    if depth == 0
                                        && self.is_ident(k)
                                        && self.text(k + 1) == ":"
                                        && self.text(k + 2) != ":"
                                    {
                                        // first ident of the type
                                        let mut m = k + 2;
                                        while m < close && !self.is_ident(m) {
                                            m += 1;
                                        }
                                        fields.push((
                                            self.text(k).to_string(),
                                            self.text(m).to_string(),
                                        ));
                                        // skip type to the `,` at depth 0
                                        let mut d2 = 0i64;
                                        let mut p = k + 2;
                                        while p < close {
                                            match self.text(p) {
                                                "<" => d2 += 1,
                                                ">" => d2 -= 1,
                                                "(" | "[" | "{" => {
                                                    p = self.skip_group(p);
                                                    continue;
                                                }
                                                "," if d2 <= 0 => break,
                                                _ => {}
                                            }
                                            p += 1;
                                        }
                                        k = p;
                                    }
                                }
                            }
                            k += 1;
                        }
                        i = close + 1;
                    } else if self.text(j) == "(" {
                        i = self.skip_group(j);
                        while i < end && self.text(i) != ";" {
                            i += 1;
                        }
                        i += 1;
                    } else {
                        i = j + 1;
                    }
                    self.structs.push(StructItem {
                        name,
                        line,
                        is_pub: pending_pub,
                        fields,
                    });
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "enum" | "union" if self.is_ident(i + 1) => {
                    let mut j = i + 2;
                    while j < end && self.text(j) != "{" {
                        j += 1;
                    }
                    i = if self.text(j) == "{" {
                        match_brace(self.toks, j) + 1
                    } else {
                        j + 1
                    };
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "type" if self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    let mut j = i + 2;
                    let mut is_hash = false;
                    while j < end && self.text(j) != ";" {
                        if self.text(j) == "HashMap" || self.text(j) == "HashSet" {
                            is_hash = true;
                        }
                        j += 1;
                    }
                    if is_hash {
                        self.hash_aliases.push(name);
                    }
                    i = j + 1;
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "use" | "const" | "static" | "extern" => {
                    let mut j = i + 1;
                    while j < end && self.text(j) != ";" {
                        if self.text(j) == "{" || self.text(j) == "(" || self.text(j) == "[" {
                            j = self.skip_group(j);
                        } else {
                            j += 1;
                        }
                    }
                    i = j + 1;
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "macro_rules" => {
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" {
                        j += 1;
                    }
                    i = if self.text(j) == "{" {
                        match_brace(self.toks, j) + 1
                    } else {
                        j + 1
                    };
                    pending_pub = false;
                    pending_attrs.clear();
                }
                "{" => {
                    // stray block at item level — skip defensively
                    i = match_brace(self.toks, i) + 1;
                }
                _ => {
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> FileScan {
        FileScan::new("crates/x/src/lib.rs".into(), lex(src))
    }

    #[test]
    fn trait_impl_pair() {
        let s = scan("impl Engine for NaiveEngine { fn run(&self) {} }");
        assert_eq!(s.impls[0].trait_name.as_deref(), Some("Engine"));
        assert_eq!(s.impls[0].self_type, "NaiveEngine");
    }

    #[test]
    fn generic_impl_for() {
        let s = scan("impl<'a, T: Clone> Iterator for Walker<'a, T> { fn next(&mut self) {} }");
        assert_eq!(s.impls[0].trait_name.as_deref(), Some("Iterator"));
        assert_eq!(s.impls[0].self_type, "Walker");
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let s = scan("#[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} } fn real() {}");
        assert!(s.fns[0].is_test);
        assert!(s.fns[1].is_test);
        assert!(!s.fns[2].is_test);
    }

    #[test]
    fn struct_fields_with_types() {
        let s = scan("pub struct D { pub l1: Cache, kernel_times: HashMap<String, u64>, n: u32 }");
        let f = &s.structs[0].fields;
        assert_eq!(f[0], ("l1".to_string(), "Cache".to_string()));
        assert_eq!(f[1], ("kernel_times".to_string(), "HashMap".to_string()));
        assert_eq!(f[2], ("n".to_string(), "u32".to_string()));
    }

    #[test]
    fn hash_alias_detected() {
        let s = scan("type FlaggedMap = HashMap<u64, (u32, u32)>; type Other = Vec<u8>;");
        assert_eq!(s.hash_aliases, vec!["FlaggedMap"]);
    }
}
