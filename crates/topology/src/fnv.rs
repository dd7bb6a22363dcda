//! FNV-1a, the one hash the workspace's pins and fingerprints are taken
//! with. Every method is `#[inline]`, so the crate's own object code is the
//! same with or without it.

/// 64-bit FNV-1a over the bytes fed to it, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The hash of no bytes (the FNV-1a offset basis).
    #[inline]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    #[inline]
    pub fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds `v` into the hash as eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}
