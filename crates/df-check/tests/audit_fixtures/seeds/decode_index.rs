//! Seed: direct slice indexing in a total-decode module (line 4).

pub fn first(b: &[u8]) -> u8 {
    b[0]
}
