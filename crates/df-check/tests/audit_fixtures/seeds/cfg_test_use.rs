//! Seed: `#[cfg(test)]` on a brace-less item (the `use` on line 22) covers
//! that item only — the production `fn` below it is still audited, and
//! its direct index (line 25) fails `decode-index`.

pub const WIRE_MAGIC: &[u8; 4] = b"DFW1";
pub const WIRE_VERSION: u8 = 1;
pub const FIELD_ORDER: [&str; 2] = ["span_id", "flags"];

pub const F_A: u32 = 1 << 0;
pub const F_B: u32 = 1 << 1;

pub fn encode(flags: &mut u32) {
    *flags |= F_A;
    *flags |= F_B;
}

pub fn decode(flags: u32) -> (bool, bool) {
    (flags & F_A != 0, flags & F_B != 0)
}

#[cfg(test)]
use std::collections::BTreeMap;

pub fn first(b: &[u8]) -> u8 {
    b[0]
}
