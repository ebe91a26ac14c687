//! Seed: unchecked `+` on a length in a total-decode module (line 4).

pub fn frame_len(b: &[u8]) -> usize {
    b.len() + 5
}
