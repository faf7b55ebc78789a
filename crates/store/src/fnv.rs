//! Streaming FNV-1a (64-bit): the checksum behind `.rgs` integrity.
//!
//! The hash itself is the classic byte-at-a-time fold — what the
//! snapshot writer needs is the *streaming* shape: it feeds columns as
//! it encodes, so it never materializes a second copy of a multi-GB
//! payload just to hash it. Readers hash the sections of the one buffer
//! they parse, several equal-length sections at a time through
//! [`update_lockstep`].

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a-64 hasher.
///
/// ```
/// use relmax_store::{fnv1a, Fnv64};
///
/// let mut h = Fnv64::new();
/// h.update(b"relia");
/// h.update(b"bility");
/// assert_eq!(h.finish(), fnv1a(b"reliability"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: FNV_BASIS }
    }

    /// Fold `bytes` into the running hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The hash of everything folded so far (the hasher remains usable).
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Hash through `Write`, for wrapping encoders that only know how to
/// emit into a writer.
impl std::io::Write for Fnv64 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Fold `K` equal-length byte streams into `K` hashers in one pass.
///
/// FNV-1a is one serial chain of multiplies per stream, so a single
/// stream runs at the multiplier's latency, not its throughput. Stepping
/// independent streams in lockstep lets their multiplies overlap: two
/// streams cost little more than one. Each hasher ends exactly where
/// [`Fnv64::update`] over its own stream would leave it.
///
/// ```
/// use relmax_store::{fnv1a, update_lockstep, Fnv64};
///
/// let mut hs = [Fnv64::new(), Fnv64::new()];
/// update_lockstep(&mut hs, [b"prob", b"coin"]);
/// assert_eq!(hs[0].finish(), fnv1a(b"prob"));
/// assert_eq!(hs[1].finish(), fnv1a(b"coin"));
/// ```
///
/// # Panics
///
/// If the streams differ in length.
#[inline]
pub fn update_lockstep<const K: usize>(hashers: &mut [Fnv64; K], bytes: [&[u8]; K]) {
    let len = bytes[0].len();
    assert!(
        bytes.iter().all(|b| b.len() == len),
        "lockstep streams differ in length"
    );
    let mut h = hashers.each_ref().map(|h| h.state);
    for i in 0..len {
        for (state, stream) in h.iter_mut().zip(bytes) {
            *state = (*state ^ stream[i] as u64).wrapping_mul(FNV_PRIME);
        }
    }
    for (hasher, state) in hashers.iter_mut().zip(h) {
        hasher.state = state;
    }
}

/// One-shot FNV-1a-64 of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chunking_never_changes_the_hash() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let whole = fnv1a(&data);
        for chunk in [1usize, 3, 64, 1000] {
            let mut h = Fnv64::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finish(), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn lockstep_matches_separate_streams() {
        let a: Vec<u8> = (0..777u32).map(|i| (i * 31 % 251) as u8).collect();
        let b: Vec<u8> = (0..777u32).map(|i| (i * 7 % 13) as u8).collect();
        let mut hs = [Fnv64::new(), Fnv64::new()];
        for (x, y) in a.chunks(100).zip(b.chunks(100)) {
            update_lockstep(&mut hs, [x, y]);
        }
        assert_eq!(hs.map(|h| h.finish()), [fnv1a(&a), fnv1a(&b)]);
        let mut one = [Fnv64::new()];
        update_lockstep(&mut one, [&a[..]]);
        assert_eq!(one[0].finish(), fnv1a(&a));
    }

    #[test]
    fn write_adapter_matches_update() {
        use std::io::Write;
        let mut h = Fnv64::new();
        h.write_all(b"hello world").expect("infallible");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }
}
