//! Canonical structure hashing for scenario fingerprints.
//!
//! The service layer keys its result cache on a hash of the *parsed*
//! scenario, not the file bytes, so two `.cr` files that differ only in
//! comments, whitespace, line endings, or blockage declaration order
//! map to the same cache entry. The contract, spelled out in DESIGN.md
//! §12:
//!
//! * **Insensitive** to anything the parser normalizes away: comments,
//!   blank lines, CRLF vs LF, token spacing — callers hash the parsed
//!   structures, never the raw text.
//! * **Insensitive** to blockage declaration order (a floorplan is a
//!   *set* of placed blocks; rasterization is commutative), via
//!   [`combine_unordered`].
//! * **Sensitive** to net declaration order. Net order is semantic
//!   under sequential resource reservation — swapping two nets can
//!   change both routes — so nets are hashed in declaration order.
//!
//! The hasher is a dependency-free FNV-1a 64 with a splitmix64
//! finalizer for the unordered combiner. It is a *fingerprint*, not a
//! cryptographic MAC: collisions are astronomically unlikely for
//! benign inputs but possible in principle, so the cache always
//! verifies structural equality before serving a hit.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64 hasher with canonical encodings for the
/// primitive types a scenario is built from.
///
/// Multi-byte integers are fed little-endian; strings are
/// length-prefixed (so `("ab", "c")` and `("a", "bc")` differ); floats
/// go through [`CanonHasher::write_f64`]'s canonical bit pattern.
#[derive(Debug, Clone, Copy)]
pub struct CanonHasher {
    state: u64,
}

impl Default for CanonHasher {
    fn default() -> CanonHasher {
        CanonHasher::new()
    }
}

impl CanonHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> CanonHasher {
        CanonHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` by canonical bit pattern: `-0.0` is folded into
    /// `+0.0` (they compare equal, so they must hash equal) and every
    /// NaN is folded into one canonical NaN. Scenario quantities come
    /// from parsed decimal literals, so distinct values keep distinct
    /// bits.
    pub fn write_f64(&mut self, v: f64) {
        let bits = if v.is_nan() {
            f64::NAN.to_bits()
        } else if v == 0.0 {
            0u64
        } else {
            v.to_bits()
        };
        self.write_u64(bits);
    }

    /// Feeds a string, length-prefixed so concatenation boundaries
    /// cannot alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// splitmix64 finalizer: a cheap bijective mixer with full avalanche,
/// so [`combine_unordered`]'s commutative sum still depends on every
/// bit of every element hash. Public because it is also the workspace's
/// deterministic jitter source (seeded retry backoff in the service
/// crate) — one audited mixer instead of several ad-hoc ones.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combines element hashes into an order-insensitive digest: each
/// element is avalanche-mixed, then summed (commutative, associative).
/// The element count is folded in so `{h}` and `{h, h, h}` differ.
pub fn combine_unordered<I: IntoIterator<Item = u64>>(hashes: I) -> u64 {
    let mut sum = 0u64;
    let mut count = 0u64;
    for h in hashes {
        sum = sum.wrapping_add(mix64(h));
        count += 1;
    }
    let mut out = CanonHasher::new();
    out.write_u64(sum);
    out.write_u64(count);
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl FnOnce(&mut CanonHasher)) -> u64 {
        let mut h = CanonHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Standard FNV-1a 64 vectors: "" and "a".
        assert_eq!(hash_of(|_| ()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_of(|h| h.write_bytes(b"a")), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let whole = hash_of(|h| h.write_bytes(b"hello world"));
        let split = hash_of(|h| {
            h.write_bytes(b"hello ");
            h.write_bytes(b"world");
        });
        assert_eq!(whole, split);
    }

    #[test]
    fn length_prefix_separates_strings() {
        let ab_c = hash_of(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let a_bc = hash_of(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn f64_is_canonical() {
        assert_eq!(
            hash_of(|h| h.write_f64(0.0)),
            hash_of(|h| h.write_f64(-0.0))
        );
        assert_eq!(
            hash_of(|h| h.write_f64(f64::NAN)),
            hash_of(|h| h.write_f64(-f64::NAN))
        );
        assert_ne!(hash_of(|h| h.write_f64(1.0)), hash_of(|h| h.write_f64(2.0)));
    }

    #[test]
    fn integers_disambiguate_width() {
        assert_ne!(hash_of(|h| h.write_u32(7)), hash_of(|h| h.write_u64(7)));
        assert_ne!(hash_of(|h| h.write_u32(1)), hash_of(|h| h.write_u32(256)));
    }

    #[test]
    fn unordered_combine_is_order_insensitive() {
        let a = combine_unordered([1u64, 2, 3]);
        let b = combine_unordered([3u64, 1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, combine_unordered([1u64, 2]));
        // Multiplicity matters.
        assert_ne!(combine_unordered([5u64]), combine_unordered([5u64, 5]));
        // Empty set is distinct from the raw offset basis.
        assert_ne!(combine_unordered([]), CanonHasher::new().finish());
    }

    #[test]
    fn unordered_combine_avalanches() {
        // Without mixing, {1, 4} and {2, 3} would collide (equal sums).
        assert_ne!(combine_unordered([1u64, 4]), combine_unordered([2u64, 3]));
    }
}
