//! The keyed hasher for the server's integer-keyed tables.
//!
//! The association indexes and the IP dictionary are keyed by
//! `u32`/`u64`/`u128` and probed once or more per ingested span, and a
//! cold trace query's Phase 1 tables — the locations it has seen, the keys
//! it has expanded, a shard's rows matched in one round — are probed once
//! per candidate. SipHash's byte-stream machinery is most of such a probe.
//! [`IntHasher`] is one folded 64×64→128 multiply per integer field (an
//! enum's discriminant included) and one to finish.
//!
//! The keys come off the wire (`tcp_seq`, `x_request_id`, trace ids), so a
//! sender must not be able to pre-compute keys that share a bucket: the
//! initial state is a per-table seed drawn from [`RandomState`]. This is
//! flood *resistance by secrecy of the seed*, not a cryptographic guarantee
//! — whoever learns the seed can compute colliding keys, and the caps on
//! table size remain the bound on damage.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` over integer keys hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntHasher>;

/// A `HashSet` over integer keys hashed by [`IntHasher`].
pub type IntSet<K> = HashSet<K, IntHasher>;

/// See the module docs. A hasher that has absorbed nothing is its own
/// [`BuildHasher`]: `default()` draws the table's seed, `build_hasher`
/// copies it.
#[derive(Debug, Clone, Copy)]
pub struct IntHasher {
    state: u64,
}

impl Default for IntHasher {
    fn default() -> Self {
        IntHasher {
            state: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for IntHasher {
    type Hasher = IntHasher;
    #[inline]
    fn build_hasher(&self) -> IntHasher {
        *self
    }
}

/// Odd multipliers of the absorbing and the finishing round. One round is
/// not enough whatever the constant: keys strided by 2^k see only its low
/// 64 − k bits, and 2^64 / φ spreads a 2^32 stride over a quarter of the
/// buckets (the spread test below counts it).
const MULT: u64 = 0x9E37_79B9_7F4A_7C15;
const FINISH: u64 = 0xBF58_476D_1CE4_E5B9;

/// Both halves of the 128-bit product, so every input bit reaches the low
/// bits (hashbrown's bucket index) and the top seven (its control tag).
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fold_mul(self.state, FINISH)
    }

    /// Any other key shape: eight bytes a round, then the length so that
    /// trailing zero bytes count.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = fold_mul(self.state ^ v, MULT);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// A derived `Hash` writes an enum's discriminant here.
    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::AssocKey;
    use std::hash::Hash;

    const N: u64 = 1_000_000;

    /// Distinct values of the hash fields hashbrown uses: the low 16 and
    /// low 20 bits (bucket index of a 64 k and of a 1 M table — the second
    /// is the sensitive one, a million random keys fill ~61 % of it) and
    /// the top 7 (control tag).
    fn spread<K: Hash>(h: &IntHasher, keys: impl Iterator<Item = K>) -> [usize; 3] {
        let mut seen = [
            vec![false; 1 << 16],
            vec![false; 1 << 20],
            vec![false; 1 << 7],
        ];
        for k in keys {
            let x = h.hash_one(k);
            seen[0][(x & 0xFFFF) as usize] = true;
            seen[1][(x & 0xF_FFFF) as usize] = true;
            seen[2][(x >> 57) as usize] = true;
        }
        seen.map(|s| s.iter().filter(|&&hit| hit).count())
    }

    #[test]
    fn structured_keys_spread_like_random_ones() {
        let h = IntHasher::default();
        // splitmix64 as the stand-in for random keys.
        let random = (1..=N).map(|i| {
            let z = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 30))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        });
        let want = spread(&h, random);
        let close = |name: &str, got: [usize; 3]| {
            for (g, w) in got.iter().zip(want) {
                assert!(g.abs_diff(w) * 10 <= w, "{name}: {got:?}, random {want:?}");
            }
        };
        close("sequential", spread(&h, 0..N));
        close("sequential u32", spread(&h, 0..N as u32));
        // 2^32 is also "high 32 bits only"; the u128 keys differ only in
        // the upper word, which the second absorbing round takes in.
        for k in [8, 16, 32] {
            close(&format!("stride 2^{k}"), spread(&h, (0..N).map(|i| i << k)));
        }
        let upper = (0..N).map(|i| u128::from(i) << 64 | 7);
        close("u128 upper word", spread(&h, upper));
        // Derived `Hash` on a struct of narrow fields and on an enum: a
        // Phase 1 location (4 shards × sequential rows) and association
        // keys of every kind over one sequential value range.
        #[derive(Hash)]
        struct Loc {
            shard: u16,
            row: u32,
        }
        let locs = (0..N).map(|i| Loc {
            shard: (i % 4) as u16,
            row: (i / 4) as u32,
        });
        close("shard × row", spread(&h, locs));
        let keys = (0..N).map(|i| match i % 5 {
            0 => AssocKey::Systrace(i / 5),
            1 => AssocKey::PseudoThread(i / 5),
            2 => AssocKey::XRequest(u128::from(i / 5)),
            3 => AssocKey::TcpSeq((i / 5) as u32),
            _ => AssocKey::OtelTrace(u128::from(i / 5)),
        });
        close("mixed-kind assoc keys", spread(&h, keys));
    }

    #[test]
    fn tables_draw_their_own_seeds_and_byte_keys_keep_their_length() {
        let (a, b) = (IntHasher::default(), IntHasher::default());
        assert_ne!(a.state, b.state);
        assert_ne!(a.hash_one(1u64), b.hash_one(1u64));
        assert_eq!(a.hash_one("abc"), a.hash_one("abc"));
        assert_ne!(
            a.hash_one([0u8; 3].as_slice()),
            a.hash_one([0u8; 4].as_slice())
        );
    }
}
