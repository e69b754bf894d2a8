//! A fixed multiplicative hasher for host-side lookup indexes.
//!
//! The simulator's hot lookups (connection demux, shard key stores) key
//! on a few machine words or a short byte string. std's SipHash is
//! DoS-resistant but costs more than the lookup it guards, and its keys
//! are randomised per process. [`FxHasher`] is the rustc-style
//! rotate-xor-multiply hasher: a handful of cycles per word and the
//! same hash in every run.
//!
//! Indexes built on it are for *lookup only*. Iteration order of a
//! `HashMap` is an accident of the hasher and the insertion history, so
//! any order that can reach the simulation (slot reuse, event order,
//! the pump's active set) stays in ordered structures.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the rustc hasher (64-bit golden-ratio derivative).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A deterministic rotate-xor-multiply hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits are its best-mixed ones; rotating them
    /// down feeds them to the table's bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`] (stateless: every map hashes alike).
pub type FixedState = BuildHasherDefault<FxHasher>;

/// A lookup-only `HashMap` keyed through [`FxHasher`].
pub type FixedHashMap<K, V> = HashMap<K, V, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FixedState::default().hash_one(v)
    }

    #[test]
    fn hashes_are_fixed_across_runs() {
        // Pinned values: the hasher has no per-process key.
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), K.rotate_left(26));
    }

    #[test]
    fn byte_tails_are_hashed_and_distinct() {
        let keys: Vec<Vec<u8>> = (0..1024)
            .map(|k| format!("key:{k:04}").into_bytes())
            .collect();
        let mut seen: Vec<u64> = keys.iter().map(hash_of).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), keys.len());
        assert_ne!(hash_of(&b"a".as_slice()), hash_of(&b"a\0".as_slice()));
    }

    #[test]
    fn connection_tuples_spread_over_buckets() {
        // The serving tier's 10^5 client 4-tuples must not pile into a
        // few buckets: count distinct low-16-bit bucket indexes.
        let mut buckets = vec![0u32; 1 << 16];
        for i in 0..100_000u32 {
            let ip = 0x0a00_0100 + i / 4096;
            let port = 1024 + (i % 4096) as u16;
            let h = hash_of(&(7379u16, ip, port));
            buckets[(h & 0xffff) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max <= 12, "worst bucket holds {max} tuples");
    }
}
