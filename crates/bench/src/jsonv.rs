//! Minimal JSON syntax validation for the hand-rolled benchmark reports.
//!
//! The workspace deliberately carries no JSON dependency; `scale_bench`,
//! the one binary here that writes a report, emits its `BENCH_scale*.json`
//! via `format!` and writes it through [`write_validated`], so a malformed
//! report fails the run instead of poisoning the trajectory.

use std::path::Path;

/// Minimal JSON syntax check — enough to guarantee an emitted file parses
/// without pulling in a JSON dependency.
///
/// # Errors
/// Returns a human-readable description of the first syntax error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    ws(b, i);
                    string(b, i)?;
                    ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at byte {i}", i = *i));
                    }
                    *i += 1;
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                while *i < b.len()
                    && (b[*i].is_ascii_digit() || matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    *i += 1;
                }
                Ok(())
            }
            _ => {
                for lit in ["true", "false", "null"] {
                    if b[*i..].starts_with(lit.as_bytes()) {
                        *i += lit.len();
                        return Ok(());
                    }
                }
                Err(format!("unexpected byte at {i}", i = *i))
            }
        }
    }
    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}", i = *i));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'\\' => *i += 2,
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                _ => *i += 1,
            }
        }
        Err("unterminated string".to_string())
    }
    value(b, &mut i)?;
    ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(format!("trailing bytes at {i}"))
    }
}

/// Write a benchmark report: validate `json`, write it to `path`, then
/// re-read the file and validate it again, so neither a malformed document
/// nor a short write lands silently.
///
/// # Errors
/// A malformed `json` is refused before anything is written; I/O failures
/// and a re-read that does not parse are reported with the path.
pub fn write_validated(path: impl AsRef<Path>, json: &str) -> Result<(), String> {
    let path = path.as_ref();
    validate_json(json).map_err(|e| format!("emitted JSON does not parse: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let back = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot re-read {}: {e}", path.display()))?;
    validate_json(&back).map_err(|e| format!("{} re-read does not parse: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_wellformed_documents() {
        for ok in [
            "{}",
            "[]",
            "{\"a\": 1, \"b\": [true, null, -2.5e3], \"c\": {\"d\": \"e\\\"f\"}}",
            "  [1, 2, 3]  ",
        ] {
            assert!(validate_json(ok).is_ok(), "should accept {ok:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "{\"a\" 1}", "[1, 2,]", "{} trailing", "\"open"] {
            assert!(validate_json(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn write_validated_writes_valid_and_refuses_malformed() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let good = dir.join(format!("sage-jsonv-good-{pid}.json"));
        let bad = dir.join(format!("sage-jsonv-bad-{pid}.json"));
        let doc = "{\"a\": [1, 2]}\n";
        write_validated(&good, doc).expect("valid document is written");
        assert_eq!(std::fs::read_to_string(&good).unwrap(), doc);
        std::fs::remove_file(&good).unwrap();

        assert!(write_validated(&bad, "{\"a\": [1, 2}").is_err());
        assert!(!bad.exists(), "a malformed document must not be written");
    }
}
