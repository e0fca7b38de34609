//! FNV-1a (64-bit) over little-endian `u64` words: the one hasher behind
//! every configuration token and fingerprint in the workspace (channel
//! cache keys, sounder response tokens, the golden bit pins).

/// An FNV-1a hasher fed whole `u64` words, each as its eight
/// little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one word, low byte first.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in the raw bits of `v`.
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a sequence of words.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.word(w);
    }
    h.finish()
}
