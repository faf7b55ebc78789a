//! Owned-or-borrowed arrays: the type that lets `CsrGraph` hold its
//! columns either on the heap (freeze, thaw, small graphs) or as
//! borrowed slices over a [`Mapping`] (zero-copy snapshot loads) without
//! any consumer knowing the difference.
//!
//! `Block<T>` derefs to `&[T]`, so slicing, indexing and iteration in
//! the sampling kernels compile to exactly the code they compiled to
//! when the fields were plain `Vec<T>`. The mapped variant holds an
//! `Arc<Mapping>` so any number of blocks (and clones of the graph)
//! share one mapping, unmapped when the last one drops.

use crate::Mapping;
use std::ops::Deref;
use std::sync::Arc;

/// Marker for element types that may be reinterpreted from mapped bytes:
/// fixed-size, no padding, no invalid bit patterns, no drop glue.
///
/// # Safety
///
/// Implementors guarantee every bit pattern of `size_of::<Self>()` bytes
/// is a valid value. That holds for the primitive numeric types this
/// workspace stores and nothing else here implements it.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f64 {}

/// Why a requested view of a mapping cannot be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The requested byte range does not fit inside the mapping.
    OutOfBounds,
    /// The start offset is not aligned for the element type.
    Misaligned,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::OutOfBounds => write!(f, "range exceeds the mapped file"),
            BlockError::Misaligned => write!(f, "offset not aligned for the element type"),
        }
    }
}

/// An immutable array that is either owned or borrowed from a mapping.
pub struct Block<T: Pod> {
    repr: Repr<T>,
}

enum Repr<T: Pod> {
    Owned(Vec<T>),
    Mapped {
        ptr: *const T,
        len: usize,
        /// Keeps the mapping (and therefore `ptr`) alive.
        keep: Arc<Mapping>,
    },
}

// SAFETY: the mapped variant points into read-only shared memory owned
// by the Arc'd Mapping (itself Send + Sync); the owned variant is a Vec.
unsafe impl<T: Pod> Send for Block<T> {}
unsafe impl<T: Pod> Sync for Block<T> {}

impl<T: Pod> Block<T> {
    /// An owned empty block.
    pub fn new() -> Block<T> {
        Block {
            repr: Repr::Owned(Vec::new()),
        }
    }

    /// Borrow `len` elements starting `byte_off` bytes into the mapping.
    ///
    /// Fails if the range leaves the file ([`BlockError::OutOfBounds`])
    /// or the absolute address is not aligned for `T`
    /// ([`BlockError::Misaligned`] — with 64-byte-aligned mappings this
    /// means the *offset* is misaligned). The caller is responsible for
    /// byte order: the cast is only meaningful where the on-disk
    /// little-endian layout matches the host (gated at the snapshot
    /// layer).
    pub fn from_mapping(
        map: &Arc<Mapping>,
        byte_off: usize,
        len: usize,
    ) -> Result<Block<T>, BlockError> {
        let size = std::mem::size_of::<T>();
        let bytes = len.checked_mul(size).ok_or(BlockError::OutOfBounds)?;
        let end = byte_off.checked_add(bytes).ok_or(BlockError::OutOfBounds)?;
        if end > map.len() {
            return Err(BlockError::OutOfBounds);
        }
        let ptr = map.base().wrapping_add(byte_off) as *const T;
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(BlockError::Misaligned);
        }
        Ok(Block {
            repr: Repr::Mapped {
                ptr,
                len,
                keep: Arc::clone(map),
            },
        })
    }

    /// True when the block borrows a kernel memory map (no heap copy of
    /// the data). A block over a heap-backed [`Mapping`] reports `false`:
    /// its bytes are a heap copy even though they are borrowed.
    pub fn is_mapped(&self) -> bool {
        matches!(&self.repr, Repr::Mapped { keep, .. } if keep.is_mmap())
    }

    /// Heap bytes attributable to this block: the `Vec` capacity for
    /// owned blocks, the viewed bytes for blocks over a heap-backed
    /// mapping, zero for memory-mapped ones (the mapping's pages are
    /// shared, demand-paged, and accounted once at the graph level).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Repr::Mapped { keep, .. } if keep.is_mmap() => 0,
            Repr::Mapped { len, .. } => len * std::mem::size_of::<T>(),
        }
    }

    /// The elements as a slice (what `Deref` returns).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            // SAFETY: ptr/len were validated against the mapping in
            // `from_mapping`, and `keep` holds the mapping alive.
            Repr::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Copy out to an owned `Vec` (used by `thaw` and mutation paths).
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Pod> Default for Block<T> {
    fn default() -> Self {
        Block::new()
    }
}

impl<T: Pod> Deref for Block<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Block<T> {
    fn from(v: Vec<T>) -> Block<T> {
        Block {
            repr: Repr::Owned(v),
        }
    }
}

impl<T: Pod> Clone for Block<T> {
    fn clone(&self) -> Block<T> {
        match &self.repr {
            Repr::Owned(v) => Block {
                repr: Repr::Owned(v.clone()),
            },
            Repr::Mapped { ptr, len, keep } => Block {
                repr: Repr::Mapped {
                    ptr: *ptr,
                    len: *len,
                    keep: Arc::clone(keep),
                },
            },
        }
    }
}

impl<T: Pod + PartialEq> PartialEq for Block<T> {
    fn eq(&self, other: &Block<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// `Debug` forwards to the slice so owned and mapped blocks with equal
/// contents print identically (tests compare dumps).
impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Block<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn mapping_of(bytes: &[u8]) -> Arc<Mapping> {
        let p = std::env::temp_dir().join(format!(
            "relmax-store-block-{}-{}",
            bytes.len(),
            std::process::id()
        ));
        let mut f = std::fs::File::create(&p).expect("create");
        f.write_all(bytes).expect("write");
        drop(f);
        let m = Arc::new(Mapping::open(&p).expect("map"));
        std::fs::remove_file(&p).ok();
        m
    }

    #[test]
    fn owned_and_mapped_deref_equally() {
        let vals: Vec<u32> = (0..100).map(|i| i * 7).collect();
        let mut bytes = Vec::new();
        for v in &vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let map = mapping_of(&bytes);
        let mapped: Block<u32> = Block::from_mapping(&map, 0, vals.len()).expect("in range");
        let owned: Block<u32> = vals.clone().into();
        assert!(mapped.is_mapped() && !owned.is_mapped());
        assert_eq!(&*mapped, &vals[..]);
        assert_eq!(owned, mapped);
        assert_eq!(mapped.heap_bytes(), 0);
        assert!(owned.heap_bytes() >= owned.len() * 4);
        // Clone of a mapped block shares the mapping, not the data.
        let c = mapped.clone();
        assert!(c.is_mapped());
        assert_eq!(c, mapped);
    }

    #[test]
    fn blocks_over_a_heap_backing_count_as_heap() {
        let bytes = [7u8; 64];
        let map = Arc::new(Mapping::read(&bytes[..], bytes.len()).expect("heap read"));
        let b: Block<u64> = Block::from_mapping(&map, 0, 8).expect("in range");
        assert_eq!(&*b, &[u64::from_le_bytes([7; 8]); 8][..]);
        assert!(!b.is_mapped());
        assert_eq!(b.heap_bytes(), 64);
    }

    #[test]
    fn out_of_bounds_and_misalignment_are_rejected() {
        let map = mapping_of(&[0u8; 64]);
        assert_eq!(
            Block::<u64>::from_mapping(&map, 0, 9).unwrap_err(),
            BlockError::OutOfBounds
        );
        assert_eq!(
            Block::<u64>::from_mapping(&map, 4, 1).unwrap_err(),
            BlockError::Misaligned
        );
        assert!(Block::<u64>::from_mapping(&map, 8, 7).is_ok());
        // Offset past the end, even with len 0.
        assert_eq!(
            Block::<u32>::from_mapping(&map, 65, 0).unwrap_err(),
            BlockError::OutOfBounds
        );
    }

    #[test]
    fn empty_blocks_work() {
        let b: Block<f64> = Block::new();
        assert!(b.is_empty());
        let map = mapping_of(&[1u8; 16]);
        let e: Block<f64> = Block::from_mapping(&map, 8, 0).expect("empty view");
        assert!(e.is_empty() && e.is_mapped());
    }
}
