//! Fixture segment codec: total decode, no violations.

pub fn header_len() -> usize {
    16
}

pub fn magic_ok(b: &[u8]) -> bool {
    b.get(..4) == Some(b"DFS1".as_slice())
}
