//! Seed: an `unwrap()` in a total-decode module (line 4).

pub fn first(b: &[u8]) -> u8 {
    b.first().copied().unwrap()
}
