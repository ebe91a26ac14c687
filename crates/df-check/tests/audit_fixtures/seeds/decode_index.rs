//! Seed: direct slice indexing in a total-decode module (line 20).

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

pub fn first(b: &[u8]) -> u8 {
    b[0]
}
