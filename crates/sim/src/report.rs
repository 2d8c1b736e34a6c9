//! Byte-stable report helpers shared by every crate that renders or
//! hashes a run: the workspace's one FNV-1a hasher and one JSON string
//! escaper.
//!
//! Determinism gates compare these outputs byte for byte across runs,
//! shard counts and worker counts, so there is exactly one copy of each.

use std::fmt::Write as _;

/// 64-bit FNV-1a over a byte stream: tiny, dependency-free and stable
/// across platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Creates the hasher with the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Folds bytes into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` into the state as its little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// Escapes the handful of characters JSON strings cannot carry verbatim.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_folds_little_endian_bytes() {
        let mut a = Fnv1a::new();
        a.u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn escape_json_covers_controls() {
        assert_eq!(escape_json("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("ünïcode"), "ünïcode");
    }
}
