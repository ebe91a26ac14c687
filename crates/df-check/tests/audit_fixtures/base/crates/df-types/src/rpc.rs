//! Fixture RPC codec: total decode, no violations.

pub fn kind(frame: &[u8]) -> Option<u8> {
    frame.get(12).copied()
}
