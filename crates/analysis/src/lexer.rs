//! A lightweight Rust source scanner for the lint rules.
//!
//! Full parsing (syn-style) is unavailable offline, so the rules operate
//! on a *masked* view of each file: comments and the interiors of string
//! and char literals are blanked out with spaces (newlines preserved), so
//! byte offsets, line numbers and columns in the masked text match the
//! original exactly. On top of that the scanner marks the byte ranges of
//! `#[cfg(test)]` items so rules can skip test code.
//!
//! The scanner is a heuristic, not a grammar: it understands line and
//! (nested) block comments, regular / raw / byte strings, char literals
//! vs. lifetimes, and attribute-to-brace item extents. That is enough for
//! token-level lint rules over idiomatic Rust; pathological token streams
//! may confuse it, which is acceptable for a repository-internal linter.

/// A masked view of one source file.
#[derive(Debug)]
pub struct MaskedSource {
    /// Original text (used only for doc-comment inspection).
    raw: String,
    /// Text with comments and literal interiors blanked by spaces.
    code: String,
    /// Per-byte flag: inside a `#[cfg(test)]` item.
    test_mask: Vec<bool>,
}

impl MaskedSource {
    /// Scans `source` into a masked view.
    #[must_use]
    pub fn new(source: &str) -> Self {
        let code = mask(source);
        let test_mask = test_regions(&code);
        MaskedSource {
            raw: source.to_owned(),
            code,
            test_mask,
        }
    }

    /// The masked code (same length and line structure as the original).
    pub fn code(&self) -> &str {
        &self.code
    }

    /// The original, unmasked text.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// Whether the byte at `offset` lies inside a `#[cfg(test)]` item.
    pub fn is_test(&self, offset: usize) -> bool {
        self.test_mask.get(offset).copied().unwrap_or(false)
    }

    /// Converts a byte offset to a one-based `(line, column)` pair.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let upto = &self.code.as_bytes()[..offset.min(self.code.len())];
        let line = upto.iter().filter(|&&b| b == b'\n').count() + 1;
        let col = offset
            - upto
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|p| p + 1)
                .unwrap_or(0)
            + 1;
        (line, col)
    }
}

/// Blanks comments and literal interiors, preserving length and newlines.
fn mask(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;

    let blank = |out: &mut [u8], range: std::ops::Range<usize>| {
        for b in &mut out[range] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = source[i..].find('\n').map(|p| i + p).unwrap_or(bytes.len());
                blank(&mut out, i..end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
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
                // Raw string? Look back over `#`s to an `r` (or `br`) that
                // does not continue an identifier.
                let mut hashes = 0usize;
                let mut k = i;
                while k > 0 && bytes[k - 1] == b'#' {
                    hashes += 1;
                    k -= 1;
                }
                let is_raw = k > 0
                    && (bytes[k - 1] == b'r'
                        && (k < 2 || !is_ident_byte(bytes[k - 2]) || bytes[k - 2] == b'b'));
                let (end, terminated) = if is_raw {
                    find_raw_string_end(bytes, i + 1, hashes)
                } else {
                    find_string_end(bytes, i + 1)
                };
                // Keep the closing delimiter visible only when it exists;
                // an unterminated literal is blanked to end of input so no
                // phantom tokens survive at the tail.
                let tail = if terminated {
                    if is_raw {
                        hashes + 1
                    } else {
                        1
                    }
                } else {
                    0
                };
                blank(&mut out, i + 1..end - tail);
                i = end;
            }
            b'\'' => {
                // Char literal vs. lifetime. A literal is 'x', '\..', or a
                // multi-byte scalar; a lifetime is 'ident not followed by a
                // closing quote.
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i + 1..end - 1);
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    // `out` only replaces bytes with ASCII spaces, so it stays valid UTF-8.
    String::from_utf8(out).expect("masking preserves UTF-8")
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Returns `(end, terminated)`: one past the closing quote when the
/// literal terminates, or `(len, false)` when it runs off the input.
fn find_string_end(bytes: &[u8], mut i: usize) -> (usize, bool) {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return (i + 1, true),
            _ => i += 1,
        }
    }
    (bytes.len(), false)
}

/// Returns `(end, terminated)` for a raw string opened with `hashes`
/// `#`s: the closing quote must be followed by exactly that many `#`s.
fn find_raw_string_end(bytes: &[u8], mut i: usize, hashes: usize) -> (usize, bool) {
    while i < bytes.len() {
        if bytes[i] == b'"'
            && bytes[i + 1..]
                .iter()
                .take(hashes)
                .take_while(|&&b| b == b'#')
                .count()
                == hashes
        {
            return (i + 1 + hashes, true);
        }
        i += 1;
    }
    (bytes.len(), false)
}

fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escape: skip the escaped byte, which may itself be a `\` (as in
        // '\\') or a `'` (as in '\''), then scan to the closing quote.
        let mut j = i + 3;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'\'' => return Some(j + 1),
                _ => j += 1,
            }
        }
        return None;
    }
    if is_ident_byte(next) && next.is_ascii() {
        // 'x' is a char literal only when the very next byte closes it;
        // otherwise it is a lifetime ('a, 'static).
        return (bytes.get(i + 2) == Some(&b'\'')).then_some(i + 3);
    }
    // Punctuation or a multi-byte scalar: a closing quote within the next
    // few bytes makes it a char literal.
    let window = bytes.get(i + 1..(i + 6).min(bytes.len()))?;
    for (k, &b) in window.iter().enumerate() {
        if b == b'\'' {
            return (k > 0).then_some(i + 1 + k + 1);
        }
        if b == b'\n' {
            return None;
        }
    }
    None
}

/// Marks the byte extents of `#[cfg(test)]` items in masked code.
fn test_regions(code: &str) -> Vec<bool> {
    let bytes = code.as_bytes();
    let mut mask = vec![false; bytes.len()];
    let mut search = 0;
    while let Some(found) = code[search..].find("#[cfg(test)]") {
        let attr_start = search + found;
        let mut i = attr_start + "#[cfg(test)]".len();
        // Skip whitespace and any further attributes up to the item body.
        let end = item_end(bytes, &mut i);
        for flag in &mut mask[attr_start..end.min(bytes.len())] {
            *flag = true;
        }
        search = end.max(attr_start + 1);
    }
    mask
}

/// From the end of an attribute, advances past further attributes to the
/// item's `{ ... }` body (or terminating `;`) and returns the end offset.
fn item_end(bytes: &[u8], i: &mut usize) -> usize {
    loop {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
        if *i < bytes.len() && bytes[*i] == b'#' {
            // Another attribute: skip its bracketed payload.
            while *i < bytes.len() && bytes[*i] != b']' {
                *i += 1;
            }
            *i += 1;
            continue;
        }
        break;
    }
    while *i < bytes.len() && bytes[*i] != b'{' && bytes[*i] != b';' {
        *i += 1;
    }
    if *i >= bytes.len() || bytes[*i] == b';' {
        return (*i + 1).min(bytes.len());
    }
    brace_match(bytes, *i)
}

/// Given the offset of a `{`, returns the offset one past its matching
/// `}` (or the end of input).
pub fn brace_match(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_blanked() {
        let m = MaskedSource::new("let x = 1; // unwrap() here\nlet y = 2;");
        assert!(!m.code().contains("unwrap"));
        assert!(m.code().contains("let y = 2;"));
        assert_eq!(m.code().len(), m.raw().len());
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let m = MaskedSource::new("a /* outer /* inner */ still */ b");
        assert_eq!(m.code().trim(), "a                               b".trim());
        assert!(m.code().starts_with("a "));
        assert!(m.code().ends_with(" b"));
    }

    #[test]
    fn string_interiors_are_blanked_but_quotes_remain() {
        let m = MaskedSource::new(r#"let s = "x == 1.0"; let t = 2;"#);
        assert!(!m.code().contains("1.0"));
        assert!(m.code().contains('"'));
        assert!(m.code().contains("let t = 2;"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let m = MaskedSource::new(r#"let s = "a\"b == 0.5"; let u = 3;"#);
        assert!(!m.code().contains("0.5"));
        assert!(m.code().contains("let u = 3;"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let m = MaskedSource::new("let s = r#\"panic!(\"x\")\"#; let v = 4;");
        assert!(!m.code().contains("panic"));
        assert!(m.code().contains("let v = 4;"));
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let m = MaskedSource::new("fn f<'a>(x: &'a str) { let c = '='; let d = '\\n'; }");
        assert!(m.code().contains("<'a>"));
        assert!(m.code().contains("&'a str"));
        assert!(!m.code().contains("'='"));
    }

    #[test]
    fn escaped_char_literals_end_at_their_own_quote() {
        // Each literal sits before string and char literals; one that
        // ends early or late masks the code after it out of step.
        for lit in [r"'\\'", r"'\''", r#"'"'"#, r"'\u{1F600}'", r"'\x7f'"] {
            let src = format!(
                "let s = x.replace({lit}, \"/\").replace('\"', \"'\"); let b = \"y == 0.25\"; let z = 9;"
            );
            let m = MaskedSource::new(&src);
            let code = m.code();
            assert_eq!(code.matches(".replace(").count(), 2, "{lit}: {code:?}");
            assert!(!code.contains("0.25"), "{lit}: {code:?}");
            assert!(code.contains("let z = 9;"), "{lit}: {code:?}");
            assert_eq!(code.len(), src.len());
        }
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}";
        let m = MaskedSource::new(src);
        let unwrap_at = src.find("unwrap").unwrap();
        let live_at = src.find("live").unwrap();
        let after_at = src.find("after").unwrap();
        assert!(m.is_test(unwrap_at));
        assert!(!m.is_test(live_at));
        assert!(!m.is_test(after_at));
    }

    #[test]
    fn cfg_test_with_extra_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\nfn live() {}";
        let m = MaskedSource::new(src);
        assert!(m.is_test(src.find("fn t").unwrap()));
        assert!(!m.is_test(src.find("live").unwrap()));
    }

    #[test]
    fn line_col_is_one_based() {
        let m = MaskedSource::new("ab\ncde\nf");
        assert_eq!(m.line_col(0), (1, 1));
        assert_eq!(m.line_col(3), (2, 1));
        assert_eq!(m.line_col(5), (2, 3));
        assert_eq!(m.line_col(7), (3, 1));
    }

    #[test]
    fn brace_match_finds_closer() {
        let src = b"{ a { b } c } d";
        assert_eq!(brace_match(src, 0), 13);
    }

    #[test]
    fn raw_string_containing_line_comment_marker() {
        let m = MaskedSource::new("let s = r\"a//b\"; let z = 5;");
        assert!(!m.code().contains("//"));
        assert!(m.code().contains("let z = 5;"));
    }

    #[test]
    fn raw_string_containing_block_comment_markers() {
        // `/*` inside the literal must not open a comment that swallows
        // the rest of the file.
        let m = MaskedSource::new("let s = r\"x /* y\"; let z = 5; /* real */ let w = 6;");
        assert!(m.code().contains("let z = 5;"));
        assert!(m.code().contains("let w = 6;"));
        assert!(!m.code().contains("real"));
    }

    #[test]
    fn multi_hash_raw_string_ignores_shorter_closers() {
        let m = MaskedSource::new("let s = r##\"x \"# y\"##; let q = 7;");
        assert!(!m.code().contains("x "));
        assert!(!m.code().contains("# y"));
        assert!(m.code().contains("let q = 7;"));
    }

    #[test]
    fn byte_raw_strings_are_blanked() {
        let m = MaskedSource::new("let s = br#\"panic!(\"p\")\"#; let v = 4;");
        assert!(!m.code().contains("panic"));
        assert!(m.code().contains("let v = 4;"));
    }

    #[test]
    fn raw_string_backslash_is_not_an_escape() {
        // r"\" is a complete raw string holding one backslash.
        let m = MaskedSource::new("let s = r\"\\\"; let w = 6;");
        assert!(!m.code().contains('\\'));
        assert!(m.code().contains("let w = 6;"));
    }

    #[test]
    fn unterminated_string_blanked_to_eof() {
        let m = MaskedSource::new("let s = \"abc == 0.5");
        assert!(!m.code().contains("0.5"), "{:?}", m.code());
        assert!(!m.code().contains("abc"));
        assert_eq!(m.code().len(), m.raw().len());
    }

    #[test]
    fn unterminated_raw_string_blanked_to_eof() {
        let m = MaskedSource::new("let s = r#\"abc == 0.5\"");
        // The lone `"` lacks the closing `#`, so the literal never ends.
        assert!(!m.code().contains("0.5"), "{:?}", m.code());
        assert_eq!(m.code().len(), m.raw().len());
    }

    #[test]
    fn unterminated_block_comment_blanked_to_eof() {
        let m = MaskedSource::new("a /* open /* deeper */ still 0.5");
        assert!(!m.code().contains("0.5"));
        assert!(m.code().starts_with("a "));
    }

    #[test]
    fn deeply_nested_and_empty_block_comments() {
        let m = MaskedSource::new("a /*1/*2/*3*/2*/1*/ b /**/ c");
        assert!(m.code().contains('a'));
        assert!(m.code().contains('b'));
        assert!(m.code().contains('c'));
        assert!(!m.code().contains('1'));
        assert!(!m.code().contains('3'));
    }
}
