//! Seed: an allow directive with an empty justification (line 5) —
//! with a reason it would suppress the index on line 6; empty, both fail.

pub fn first(b: &[u8]) -> u8 {
    // df-audit: allow(decode-index)
    b[0]
}
