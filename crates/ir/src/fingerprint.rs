//! Query fingerprinting for the serving layer's prepared-plan cache.
//!
//! A fingerprint is computed from the *parsed* query, not its text, so two
//! spellings of the same prediction query — different whitespace, different
//! keyword casing, a trailing semicolon — normalize to the same fingerprint,
//! while semantically distinct queries (different literals, predicates,
//! projections, models) never collide on the canonical form: the cache is
//! keyed by the full canonical string, with the 64-bit hash as a cheap
//! pre-filter and display handle.

use crate::error::Result;
use crate::parser::{parse, ParsedQuery};
use std::fmt;

/// A normalized identity for a prediction query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryFingerprint {
    /// FNV-1a hash of the canonical form (cheap equality pre-filter).
    pub hash: u64,
    /// The full canonical rendering of the parsed query. Cache keys use this
    /// string, so distinct queries can never collide.
    pub canonical: String,
}

impl fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.hash)
    }
}

/// Fingerprint a prediction query by parsing and canonicalizing it.
pub fn fingerprint_query(sql: &str) -> Result<QueryFingerprint> {
    let parsed = parse(sql)?;
    Ok(fingerprint_parsed(&parsed))
}

/// Fingerprint an already-parsed query.
pub fn fingerprint_parsed(parsed: &ParsedQuery) -> QueryFingerprint {
    let canonical = canonical_form(parsed);
    QueryFingerprint {
        hash: fnv1a(canonical.as_bytes()),
        canonical,
    }
}

/// Render the canonical form of a parsed query: every semantically relevant
/// part in a fixed order, with model names normalized the way the registry
/// resolves them (`m` and `m.onnx` are the same model).
fn canonical_form(parsed: &ParsedQuery) -> String {
    let mut out = String::new();
    out.push_str("model=");
    match &parsed.model {
        Some(m) => out.push_str(m.strip_suffix(".onnx").unwrap_or(m)),
        None => out.push('-'),
    }
    out.push_str(";prediction=");
    out.push_str(parsed.prediction_column.as_deref().unwrap_or("-"));
    out.push_str(";data=");
    out.push_str(&parsed.data.display_indent());
    out.push_str(";where=");
    for p in &parsed.predicates {
        out.push_str(&p.to_string());
        out.push('&');
    }
    out.push_str(";select=");
    for e in &parsed.projection {
        out.push_str(&e.to_string());
        out.push(',');
    }
    out
}

/// 64-bit FNV-1a — dependency-free and deterministic across processes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str =
        "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                        WITH (risk float) AS p WHERE d.asthma = 1 AND p.risk >= 0.5";

    #[test]
    fn whitespace_and_keyword_case_do_not_change_the_fingerprint() {
        let f = fingerprint_query(BASE).unwrap();
        let shouty = "select   d.id ,  p.risk\n FROM  predict( model = risk_model , \
                      data = patients as d )\n with (risk float) as p \
                      where d.asthma = 1 and p.risk >= 0.5 ;";
        let g = fingerprint_query(shouty).unwrap();
        assert_eq!(f, g);
        assert_eq!(f.canonical, g.canonical);
    }

    #[test]
    fn model_extension_is_normalized() {
        let with_ext = BASE.replace("risk_model", "risk_model.onnx");
        assert_eq!(
            fingerprint_query(BASE).unwrap(),
            fingerprint_query(&with_ext).unwrap()
        );
    }

    #[test]
    fn distinct_literals_get_distinct_fingerprints() {
        let f = fingerprint_query(BASE).unwrap();
        let g = fingerprint_query(&BASE.replace("0.5", "0.6")).unwrap();
        let h = fingerprint_query(&BASE.replace("d.asthma = 1", "d.asthma = 0")).unwrap();
        assert_ne!(f, g);
        assert_ne!(f, h);
        assert_ne!(g, h);
    }

    #[test]
    fn structure_changes_the_fingerprint() {
        let f = fingerprint_query(BASE).unwrap();
        // different projection
        let g = fingerprint_query(
            "SELECT d.id FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
             WITH (risk float) AS p WHERE d.asthma = 1 AND p.risk >= 0.5",
        )
        .unwrap();
        // different model
        let h = fingerprint_query(&BASE.replace("risk_model", "other_model")).unwrap();
        // different table
        let i = fingerprint_query(&BASE.replace("patients", "visits")).unwrap();
        assert_ne!(f, g);
        assert_ne!(f, h);
        assert_ne!(f, i);
    }

    #[test]
    fn display_is_hex_hash() {
        let f = fingerprint_query(BASE).unwrap();
        assert_eq!(format!("{f}"), format!("{:016x}", f.hash));
    }
}
