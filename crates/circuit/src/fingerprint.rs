//! Canonical 64-bit fingerprints for cache keys.
//!
//! The device-cache layer (`sabre::DeviceCache`) keys preprocessed router
//! state by *content*: two structurally identical coupling graphs must
//! hash identically no matter how they were constructed, and the hash must
//! be stable across processes and platforms (a service may persist keys).
//! Rust's `DefaultHasher` guarantees neither, so this module provides a
//! small explicit accumulator: FNV-1a over little-endian words, seeded
//! with a domain-separation string so fingerprints of different types
//! never collide by construction.
//!
//! # Example
//!
//! ```
//! use sabre_circuit::fingerprint::Fingerprinter;
//!
//! let mut a = Fingerprinter::new("example");
//! a.write_u64(1);
//! a.write_u64(2);
//! let mut b = Fingerprinter::new("example");
//! b.write_u64(1);
//! b.write_u64(2);
//! assert_eq!(a.finish(), b.finish()); // same content, same fingerprint
//!
//! let mut c = Fingerprinter::new("other-domain");
//! c.write_u64(1);
//! c.write_u64(2);
//! assert_ne!(a.finish(), c.finish()); // domains separate key spaces
//! ```

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Order-sensitive FNV-1a accumulator. Feed it a *canonical* encoding of
/// a value (sorted edges, deduplicated pairs, …) and [`finish`] yields a
/// deterministic, platform-independent 64-bit fingerprint.
///
/// [`finish`]: Fingerprinter::finish
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    state: u64,
}

impl Fingerprinter {
    /// Starts a fingerprint in the key space named by `domain`.
    pub fn new(domain: &str) -> Self {
        let mut fp = Fingerprinter { state: FNV_OFFSET };
        fp.write_bytes(domain.as_bytes());
        fp
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes one word into the fingerprint (little-endian byte order).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Mixes a string: its byte length, then its bytes, so adjacent
    /// strings cannot run together.
    pub fn write_str(&mut self, value: &str) {
        self.write_u64(value.len() as u64);
        self.write_bytes(value.as_bytes());
    }

    /// Mixes a float via its IEEE-754 bit pattern. `NaN` payloads and the
    /// sign of zero are preserved bit-for-bit — callers canonicalize if
    /// they need `-0.0 == 0.0` semantics.
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// The accumulated 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_input() {
        let mut a = Fingerprinter::new("t");
        let mut b = Fingerprinter::new("t");
        for v in [0u64, 1, u64::MAX, 42] {
            a.write_u64(v);
            b.write_u64(v);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn order_sensitive() {
        let mut a = Fingerprinter::new("t");
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprinter::new("t");
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn strings_do_not_run_together() {
        let fold = |parts: &[&str]| {
            let mut fp = Fingerprinter::new("t");
            parts.iter().for_each(|part| fp.write_str(part));
            fp.finish()
        };
        assert_ne!(fold(&["ab", "c"]), fold(&["a", "bc"]));
        assert_eq!(fold(&["ab", "c"]), fold(&["ab", "c"]));
    }

    #[test]
    fn domain_separated() {
        assert_ne!(
            Fingerprinter::new("graph").finish(),
            Fingerprinter::new("noise").finish()
        );
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let mut a = Fingerprinter::new("t");
        a.write_f64(0.5);
        let mut b = Fingerprinter::new("t");
        b.write_f64(0.5);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprinter::new("t");
        c.write_f64(0.25);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn known_vector_is_stable_across_releases() {
        // Pinned so persisted cache keys stay valid: FNV-1a of the bytes
        // `b"v" ++ 7u64.to_le_bytes()`.
        let mut fp = Fingerprinter::new("v");
        fp.write_u64(7);
        assert_eq!(fp.finish(), 0xFE05_BC38_0F14_D3CE);
    }
}
