//! Seed: `#[cfg(test)]` on a brace-less item (the `use` on line 6) covers
//! that item only — the production `fn` below it is still audited, and
//! its direct index (line 9) fails `decode-index`.

#[cfg(test)]
use std::collections::BTreeMap;

pub fn first(b: &[u8]) -> u8 {
    b[0]
}
