//! Fixture wire codec: total decode, no violations.

pub fn first(b: &[u8]) -> Option<u8> {
    b.first().copied()
}
