//! # relmax-store
//!
//! The zero-copy storage substrate underneath the `.rgs` snapshot
//! format: everything needed to serve a multi-GB frozen graph without
//! materializing it twice, with **no dependencies beyond `std`**.
//!
//! - [`Mapping`] — a read-only view of a whole file. On Linux
//!   (x86_64/aarch64) it is a real `mmap(2)` issued through a minimal
//!   raw-syscall shim (same spirit as the AVX-512 runtime detection in
//!   `relmax-sampling`: reach for the platform feature directly, keep a
//!   portable fallback). Elsewhere, and on request
//!   ([`Mapping::open_heap`], [`Mapping::read`]), it is a 64-byte-aligned
//!   heap buffer filled by reads — identical safe API, identical alignment
//!   guarantees, just not shared with the page cache.
//! - [`Block`] — an array that is either owned (`Vec<T>`) or borrowed
//!   from a [`Mapping`]. `Deref<Target = [T]>` makes the two cases
//!   indistinguishable to every consumer; the mapped case performs O(1)
//!   allocation no matter how large the array is.
//! - [`Fnv64`] — the streaming FNV-1a hasher behind per-section
//!   checksums, so writers hash columns as they pass instead of
//!   buffering a payload copy.
//!
//! The crate deliberately knows nothing about graphs: `relmax-ugraph`
//! layers the `.rgs` v3 section layout on top.

mod block;
mod fnv;
mod mapping;

pub use block::{Block, BlockError, Pod};
pub use fnv::{fnv1a, update_lockstep, Fnv64};
pub use mapping::{mmap_supported, Mapping};

/// Alignment every section start in a mapped file must satisfy, and the
/// alignment [`Mapping`] guarantees for its base pointer (pages are
/// 4096-aligned; the heap fallback allocates with this alignment
/// explicitly). 64 bytes covers every element type we store (`u32`,
/// `u64`, `f64`) and matches a cache line, so a mapped section never
/// straddles alignment or shares its first line with the section table.
pub const SECTION_ALIGN: usize = 64;
