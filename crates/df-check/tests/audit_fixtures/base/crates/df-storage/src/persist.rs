//! Fixture segment codec: declares no presence bits (so the segment doc
//! needs no table), and decodes totally.

pub const SPAN_SEGMENT_MAGIC: &[u8; 8] = b"DFSPANS1";
pub const SPAN_SEGMENT_VERSION: u8 = 2;
pub const SPAN_SEGMENT_SECTIONS: [&str; 2] = ["spans", "rows"];

pub fn header_len() -> usize {
    16
}

pub fn magic_ok(b: &[u8]) -> bool {
    b.get(..4) == Some(b"DFS1".as_slice())
}
