//! Seed: presence bit `F_C` (line 11) is declared, documented (the test
//! adds its doc row) and decoded, but nothing encodes it — the `|=` on
//! line 20 sets another bit and merely shares a line with `& F_C`.

pub const WIRE_MAGIC: &[u8; 4] = b"DFW1";
pub const WIRE_VERSION: u8 = 1;
pub const FIELD_ORDER: [&str; 2] = ["span_id", "flags"];

pub const F_A: u32 = 1 << 0;
pub const F_B: u32 = 1 << 1;
pub const F_C: u32 = 1 << 2;

pub fn encode(flags: &mut u32) {
    *flags |= F_A;
    *flags |= F_B;
}

pub fn decode(flags: u32, seen: &mut u32) -> (bool, bool, bool) {
    let (a, b) = (flags & F_A != 0, flags & F_B != 0);
    let c = flags & F_C != 0; *seen |= F_A;
    (a, b, c)
}
