//! `HashMap` with a fast non-cryptographic hasher, for small integer keys
//! and names.
//!
//! The simulator's connection-routing maps (`pool_lookup`, `eph_free`) are
//! keyed by `(u32, u32)` instance pairs and sit on the per-request send
//! path; the names a scenario is resolved by (`ScenarioConfig::resolve`)
//! are looked up once per reference per build. The std `HashMap` default
//! (SipHash) costs more than the rest of such a lookup combined. The
//! hasher is the vendored `serde`'s [`FastHasher`], the one its reader
//! interns names with: a multiply–rotate mix, a few cycles, plenty good
//! for non-adversarial keys.
//!
//! Determinism note: nothing iterates these maps, so hash order never
//! reaches any output — swapping the hasher cannot move goldens.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

pub use serde::FastHasher;

/// `HashMap` with the fast hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<(u32, u32), u64> = FastMap::default();
        for a in 0..50u32 {
            for b in 0..50u32 {
                m.insert((a, b), (a as u64) << 32 | b as u64);
            }
        }
        for a in 0..50u32 {
            for b in 0..50u32 {
                assert_eq!(m.get(&(a, b)), Some(&((a as u64) << 32 | b as u64)));
            }
        }
        assert_eq!(m.len(), 2500);
    }

    #[test]
    fn pair_keys_spread_across_low_bits() {
        // Sequential (u32, u32) keys must not collapse onto a few buckets.
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<FastHasher> = Default::default();
        let mut low7 = std::collections::HashSet::new();
        for a in 0..32u32 {
            for b in 0..32u32 {
                low7.insert(bh.hash_one((a, b)) & 0x7f);
            }
        }
        assert!(
            low7.len() > 100,
            "only {} distinct low-bit patterns",
            low7.len()
        );
    }
}
