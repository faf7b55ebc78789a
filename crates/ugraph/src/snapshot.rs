//! Versioned binary snapshot format (`.rgs`) for frozen [`CsrGraph`]s.
//!
//! Ingestion parses a text edge list once ([`crate::edgelist`]), freezes it
//! into a [`CsrGraph`], and serializes the snapshot so that every later
//! query run starts from a `read` instead of a re-parse + re-freeze. The
//! format is designed around one invariant: **a loaded snapshot is
//! bit-identical to the in-memory freeze it was written from** — same arc
//! order, same coin ids, same `f64` probability bits — so seed-keyed
//! estimates cannot change across a save/load cycle.
//!
//! ## Layout (version 3, current)
//!
//! All integers and floats are **little-endian**; floats are stored as raw
//! IEEE-754 bit patterns (`f64::to_bits`). A version-3 file is a fixed
//! header, a section table, and then one section per column array, each
//! starting on a 64-byte boundary ([`relmax_store::SECTION_ALIGN`]) with
//! zero padding in between:
//!
//! ```text
//! offset  size      field
//! 0       4         magic, the ASCII bytes "RGSF"
//! 4       4         format version (u32) — 3
//! 8       4         flags (u32): bit 0 = directed, bit 1 = index section
//! 12      8         num_nodes n (u64)
//! 20      8         num_coins m (u64)
//! 28      8         num_out_arcs a (u64)
//! 36      8         num_in_arcs b (u64) — 0 for undirected graphs
//! 44      8         FNV-1a 64 of bytes [52, 64 + 32·count) — table hash
//! 52      4         section count (u32)
//! 56      8         reserved, must be zero
//! 64      32·count  section table
//! ...               sections, 64-byte-aligned, zero-padded between;
//!                   the file ends exactly at the last section's end
//! ```
//!
//! Each 32-byte table entry is `{ id: u32, flags: u32, offset: u64,
//! length: u64, checksum: u64 }` where `flags` must be zero (a nonzero
//! value marks a section feature this build does not understand —
//! [`SnapshotError::UnknownSection`]), `offset` is absolute from the start
//! of the file and 64-byte-aligned, `length` is the exact byte length
//! (excluding padding), and `checksum` is the FNV-1a 64 of the section
//! bytes. Sections appear in one canonical order (writing `n = num_nodes`,
//! `m = num_coins`, `a = num_out_arcs`, `b = num_in_arcs`):
//!
//! ```text
//! id  name        elems   type  present
//! 1   out_off     n + 1   u32   always
//! 2   out_dst     a       u32   always
//! 3   out_prob    a       f64   always
//! 4   out_coin    a       u32   always
//! 5   out_thresh  a       u64   always
//! 6   in_off      n + 1   u32   directed only
//! 7   in_dst      b       u32   directed only
//! 8   in_prob     b       f64   directed only
//! 9   in_coin     b       u32   directed only
//! 10  in_thresh   b       u64   directed only
//! 11  coin_prob   m       f64   always
//! 12  coin_src    m       u32   always
//! 13  coin_dst    m       u32   always
//! 14  super_of    n       u32   flags bit 1 only
//! 15  comp_of     n       u32   flags bit 1 only
//! ```
//!
//! The sectioned layout exists for **zero-copy loading**: every section is
//! a fixed-width primitive array at a 64-byte-aligned offset, so
//! [`map_full`] can hand the [`CsrGraph`] borrowed slices straight into a
//! memory-mapped file ([`relmax_store::Mapping`]) instead of decoding onto
//! the heap. Version 3 therefore *stores* the per-arc flip thresholds
//! (sections 5/10) rather than recomputing them at load time; untrusted
//! readers verify `thresh[i] == flip_threshold(prob[i])` element-wise, and
//! [`map_full_trusted`] — for re-reading a file this process just wrote —
//! skips the per-element and checksum work while still validating all
//! geometry. Per-section checksums (instead of v1/v2's single payload
//! hash) are what make that trusted fast path safe to offer: integrity is
//! still verifiable section-by-section whenever it is wanted.
//!
//! ## Layout (versions 1 and 2, legacy)
//!
//! Versions 1 and 2 use a 52-byte header (identical to bytes `0..52`
//! above, except the hash at offset 44 covers the whole payload) followed
//! by one contiguous payload: `out_off, out_dst, out_prob, out_coin,
//! [in_off, in_dst, in_prob, in_coin,] coin_prob, coin_ends` with
//! `coin_ends` interleaved as `m × (u32 src, u32 dst)` pairs, and — in
//! version 2 with flags bit 1 — `super_of, comp_of` trailers. Thresholds
//! are not stored; legacy readers recompute them via
//! [`crate::flip_threshold`]. This build still reads both, decoding onto
//! the heap (there is no zero-copy path for unaligned legacy layouts); it
//! no longer writes them. The committed fixtures `tests/fixtures/tiny_v1.rgs`
//! and `tiny_v2.rgs` pin the legacy layouts.
//!
//! ## One parser, several backings
//!
//! Every load runs one parser over the whole file as a byte slice held by
//! a [`relmax_store::Mapping`]. The entry points differ only in where
//! those bytes live and how much is trusted: [`map_full`] maps the file,
//! [`load_full`] and [`read_full`] read it into one aligned heap buffer,
//! [`open_full`] picks between the two, and the `*_trusted` variants skip
//! the checksum and per-element scans. A validating parse runs those as
//! independent per-section tasks across the CPUs and reports the same
//! error whichever task finishes first (`docs/formats.md`, "Validation on
//! load").
//!
//! **Version policy.** Writers always emit [`FORMAT_VERSION`]; readers
//! accept [`MIN_FORMAT_VERSION`]`..=`[`FORMAT_VERSION`]. A version bump is
//! required whenever a change would make an old reader mis-decode the
//! bytes; new optional content gets a new section id + flag bit instead,
//! and readers reject ids/flags they do not recognize rather than
//! guessing. Alignment is part of the format contract: readers reject
//! sections that are not 64-byte-aligned ([`SnapshotError::Misaligned`])
//! so the zero-copy path never depends on luck.
//!
//! Readers validate everything they cannot afford to trust: magic,
//! version, checksums, offset monotonicity, and the ranges of every node
//! id, coin id, probability, and stored threshold. A snapshot that passes
//! is safe to traverse without bounds anxiety. See `docs/formats.md` for
//! the same layout prose-first.

use crate::csr::CsrGraph;
use crate::index::IndexSection;
use crate::{flip_threshold, threshold_of_bits};
use relmax_store::{update_lockstep, Block, BlockError, Fnv64, Mapping, Pod, SECTION_ALIGN};
use std::ffi::OsString;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The four magic bytes opening every `.rgs` file.
pub const MAGIC: [u8; 4] = *b"RGSF";

/// Current format version written by [`write()`](fn@write).
pub const FORMAT_VERSION: u32 = 3;

/// Oldest format version this build still reads. Version-1 and version-2
/// files decode to the same [`CsrGraph`], bit for bit; they simply decode
/// onto the heap instead of mapping zero-copy.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Size in bytes of the fixed header common to every version (through the
/// hash word at offset 44). Version 3 continues with the section count,
/// reserved bytes, and the table; versions 1–2 continue with the payload.
pub const HEADER_BYTES: usize = 52;

/// File offset where the version-3 section table begins.
pub const V3_TABLE_OFFSET: usize = 64;

/// Size in bytes of one version-3 section-table entry.
pub const SECTION_ENTRY_BYTES: usize = 32;

/// Header flag bit 0: the graph is directed.
const FLAG_DIRECTED: u32 = 1;

/// Header flag bit 1: an index section trails the payload (version ≥ 2).
const FLAG_INDEX: u32 = 2;

// Section ids, in canonical file order (see the module docs).
const SEC_OUT_OFF: u32 = 1;
const SEC_OUT_DST: u32 = 2;
const SEC_OUT_PROB: u32 = 3;
const SEC_OUT_COIN: u32 = 4;
const SEC_OUT_THRESH: u32 = 5;
const SEC_IN_OFF: u32 = 6;
const SEC_IN_DST: u32 = 7;
const SEC_IN_PROB: u32 = 8;
const SEC_IN_COIN: u32 = 9;
const SEC_IN_THRESH: u32 = 10;
const SEC_COIN_PROB: u32 = 11;
const SEC_COIN_SRC: u32 = 12;
const SEC_COIN_DST: u32 = 13;
const SEC_SUPER_OF: u32 = 14;
const SEC_COMP_OF: u32 = 15;

/// Human-readable name of a known section id, `None` for foreign ids.
fn section_name(id: u32) -> Option<&'static str> {
    Some(match id {
        SEC_OUT_OFF => "out_off",
        SEC_OUT_DST => "out_dst",
        SEC_OUT_PROB => "out_prob",
        SEC_OUT_COIN => "out_coin",
        SEC_OUT_THRESH => "out_thresh",
        SEC_IN_OFF => "in_off",
        SEC_IN_DST => "in_dst",
        SEC_IN_PROB => "in_prob",
        SEC_IN_COIN => "in_coin",
        SEC_IN_THRESH => "in_thresh",
        SEC_COIN_PROB => "coin_prob",
        SEC_COIN_SRC => "coin_src",
        SEC_COIN_DST => "coin_dst",
        SEC_SUPER_OF => "super_of",
        SEC_COMP_OF => "comp_of",
        _ => return None,
    })
}

/// Errors loading or storing a `.rgs` snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure (file missing, permission, disk).
    Io(io::Error),
    /// The input ended before the declared header + sections were read.
    Truncated,
    /// The first four bytes were not [`MAGIC`] — not a snapshot file.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The header's version is not one this build can read.
    UnsupportedVersion {
        /// The version number found in the header.
        found: u32,
    },
    /// Bytes do not hash to the recorded checksum (the payload hash for
    /// versions 1–2; the table hash or a per-section checksum for v3).
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum computed over the bytes actually read.
        computed: u64,
    },
    /// A version-3 section table entry carries a section id or feature
    /// flags this build does not understand, so the file cannot be decoded
    /// without guessing.
    UnknownSection {
        /// The section id found in the table entry.
        id: u32,
        /// The entry's flag word (must be zero in this version).
        flags: u32,
    },
    /// A version-3 section does not start on the required
    /// [`SECTION_ALIGN`]-byte boundary, so it can never be mapped
    /// zero-copy; the file was not produced by a conforming writer.
    Misaligned {
        /// The id of the offending section.
        section: u32,
        /// The unaligned file offset recorded for it.
        offset: u64,
    },
    /// The file decoded but failed structural validation.
    Corrupt {
        /// Human-readable description of the inconsistency.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated before declared size"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a .rgs snapshot (magic bytes {found:?})")
            }
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads versions \
                 {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: file says {stored:#018x}, bytes hash to {computed:#018x}"
            ),
            SnapshotError::UnknownSection { id, flags } => write!(
                f,
                "snapshot section id {id} with flags {flags:#x} is not one this build understands"
            ),
            SnapshotError::Misaligned { section, offset } => write!(
                f,
                "snapshot section {section} starts at offset {offset}, \
                 which is not {SECTION_ALIGN}-byte aligned"
            ),
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(e)
        }
    }
}

/// FNV-1a 64-bit hash — the snapshot checksum. Not cryptographic; it
/// guards against truncation, bit rot, and version-skew accidents, not
/// attackers. (Re-exported logic from [`relmax_store::fnv1a`]; the writer
/// streams it column by column via [`relmax_store::Fnv64`] instead of
/// materializing a second copy of multi-GB payloads.)
pub fn fnv1a(bytes: &[u8]) -> u64 {
    relmax_store::fnv1a(bytes)
}

/// Whether `head` starts with the `.rgs` magic bytes (cheap format sniff;
/// pass any prefix of a file, at least 4 bytes for a conclusive answer).
pub fn is_snapshot(head: &[u8]) -> bool {
    head.len() >= MAGIC.len() && head[..MAGIC.len()] == MAGIC
}

/// The format version declared in a snapshot header prefix, if `head`
/// carries the magic and at least the version word (8 bytes). A cheap peek
/// for status surfaces (`relmax serve`'s `/healthz`); unlike
/// [`read()`](fn@read) it does **not** validate that this build can decode
/// the version.
pub fn peek_version(head: &[u8]) -> Option<u32> {
    if !is_snapshot(head) || head.len() < 8 {
        return None;
    }
    Some(u32::from_le_bytes(head[4..8].try_into().unwrap()))
}

/// Round `x` up to the next [`SECTION_ALIGN`]-byte boundary.
fn align64(x: u64) -> u64 {
    let a = SECTION_ALIGN as u64;
    (x + (a - 1)) & !(a - 1)
}

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt { what: what.into() }
}

/// Byte width + element count of one expected section.
#[derive(Clone, Copy)]
struct SectionSpec {
    id: u32,
    elems: u64,
    elem_bytes: u64,
}

/// The canonical section list a header with these counts/flags implies.
/// Writers emit exactly this; readers reject any deviation.
fn expected_specs(n: u64, m: u64, a: u64, b: u64, directed: bool, index: bool) -> Vec<SectionSpec> {
    let spec = |id, elems, elem_bytes| SectionSpec {
        id,
        elems,
        elem_bytes,
    };
    let mut v = vec![
        spec(SEC_OUT_OFF, n + 1, 4),
        spec(SEC_OUT_DST, a, 4),
        spec(SEC_OUT_PROB, a, 8),
        spec(SEC_OUT_COIN, a, 4),
        spec(SEC_OUT_THRESH, a, 8),
    ];
    if directed {
        v.push(spec(SEC_IN_OFF, n + 1, 4));
        v.push(spec(SEC_IN_DST, b, 4));
        v.push(spec(SEC_IN_PROB, b, 8));
        v.push(spec(SEC_IN_COIN, b, 4));
        v.push(spec(SEC_IN_THRESH, b, 8));
    }
    v.push(spec(SEC_COIN_PROB, m, 8));
    v.push(spec(SEC_COIN_SRC, m, 4));
    v.push(spec(SEC_COIN_DST, m, 4));
    if index {
        v.push(spec(SEC_SUPER_OF, n, 4));
        v.push(spec(SEC_COMP_OF, n, 4));
    }
    v
}

/// A borrowed column array waiting to be hashed or written. The writer
/// visits each column exactly twice — once to checksum, once to emit — so
/// no second copy of the payload ever exists in memory.
enum Col<'a> {
    U32(&'a [u32]),
    U64(&'a [u64]),
    F64(&'a [f64]),
}

impl<'a> Col<'a> {
    fn byte_len(&self) -> u64 {
        match self {
            Col::U32(s) => s.len() as u64 * 4,
            Col::U64(s) => s.len() as u64 * 8,
            Col::F64(s) => s.len() as u64 * 8,
        }
    }

    /// Feed the column's little-endian byte image to `f` in chunks.
    ///
    /// On little-endian hosts the in-memory representation *is* the file
    /// representation (for `f64`, the IEEE bit pattern `to_bits` would
    /// produce), so the whole column goes through as one borrowed slice —
    /// no conversion, no copy. Big-endian hosts convert per element
    /// through a bounded buffer.
    #[cfg(target_endian = "little")]
    fn for_chunks(&self, f: &mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> {
        // SAFETY: u32/u64/f64 have no padding and their little-endian
        // in-memory bytes equal their on-disk encoding on this cfg.
        let bytes: &[u8] = unsafe {
            match *self {
                Col::U32(s) => std::slice::from_raw_parts(s.as_ptr() as *const u8, s.len() * 4),
                Col::U64(s) => std::slice::from_raw_parts(s.as_ptr() as *const u8, s.len() * 8),
                Col::F64(s) => std::slice::from_raw_parts(s.as_ptr() as *const u8, s.len() * 8),
            }
        };
        f(bytes)
    }

    #[cfg(target_endian = "big")]
    fn for_chunks(&self, f: &mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> {
        const BUF: usize = 1 << 16;
        let mut buf: Vec<u8> = Vec::with_capacity(BUF + 8);
        macro_rules! drain {
            ($slice:expr, $enc:expr) => {
                for v in $slice {
                    buf.extend_from_slice(&$enc(v));
                    if buf.len() >= BUF {
                        f(&buf)?;
                        buf.clear();
                    }
                }
            };
        }
        match *self {
            Col::U32(s) => drain!(s, |v: &u32| v.to_le_bytes()),
            Col::U64(s) => drain!(s, |v: &u64| v.to_le_bytes()),
            Col::F64(s) => drain!(s, |v: &f64| v.to_bits().to_le_bytes()),
        }
        if !buf.is_empty() {
            f(&buf)?;
        }
        Ok(())
    }

    fn checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        self.for_chunks(&mut |c| {
            h.update(c);
            Ok(())
        })
        .expect("hashing cannot fail");
        h.finish()
    }
}

/// The columns of `csr` (+ optional index labels) in canonical v3 order.
fn graph_cols<'a>(csr: &'a CsrGraph, index: Option<&'a IndexSection>) -> Vec<(u32, Col<'a>)> {
    let mut v = vec![
        (SEC_OUT_OFF, Col::U32(csr.out_off.as_slice())),
        (SEC_OUT_DST, Col::U32(csr.out_dst.as_slice())),
        (SEC_OUT_PROB, Col::F64(csr.out_prob.as_slice())),
        (SEC_OUT_COIN, Col::U32(csr.out_coin.as_slice())),
        (SEC_OUT_THRESH, Col::U64(csr.out_thresh.as_slice())),
    ];
    if csr.directed {
        v.push((SEC_IN_OFF, Col::U32(csr.in_off.as_slice())));
        v.push((SEC_IN_DST, Col::U32(csr.in_dst.as_slice())));
        v.push((SEC_IN_PROB, Col::F64(csr.in_prob.as_slice())));
        v.push((SEC_IN_COIN, Col::U32(csr.in_coin.as_slice())));
        v.push((SEC_IN_THRESH, Col::U64(csr.in_thresh.as_slice())));
    }
    v.push((SEC_COIN_PROB, Col::F64(csr.coin_prob.as_slice())));
    v.push((SEC_COIN_SRC, Col::U32(csr.coin_src.as_slice())));
    v.push((SEC_COIN_DST, Col::U32(csr.coin_dst.as_slice())));
    if let Some(sec) = index {
        v.push((SEC_SUPER_OF, Col::U32(&sec.super_of[..])));
        v.push((SEC_COMP_OF, Col::U32(&sec.comp_of[..])));
    }
    v
}

/// Serialize a snapshot to any writer — graph only, no index section.
/// Equivalent to [`write_full`] with `index: None`.
pub fn write<W: Write>(csr: &CsrGraph, w: W) -> io::Result<()> {
    write_full(csr, None, w)
}

/// Serialize a snapshot to any writer in the current-version (v3)
/// sectioned layout, optionally trailing the persisted
/// [`RelIndex`](crate::index::RelIndex) labels.
///
/// The section must belong to `csr` (same node count); pass the value of
/// [`RelIndex::section`](crate::index::RelIndex::section) for an index built from this exact graph.
///
/// The writer streams: each column is hashed in place to fill the section
/// table, then emitted directly from the graph's own arrays — the payload
/// is never materialized a second time, so peak memory stays `O(1)` above
/// the graph itself no matter how large the snapshot is.
pub fn write_full<W: Write>(
    csr: &CsrGraph,
    index: Option<&IndexSection>,
    mut w: W,
) -> io::Result<()> {
    if let Some(sec) = index {
        assert_eq!(
            sec.super_of.len(),
            csr.num_nodes,
            "index section does not belong to this graph"
        );
        assert_eq!(sec.comp_of.len(), csr.num_nodes);
    }
    let cols = graph_cols(csr, index);
    let table_end = (V3_TABLE_OFFSET + cols.len() * SECTION_ENTRY_BYTES) as u64;

    // Pass 1: checksum every column and lay out the section table.
    struct Planned {
        id: u32,
        off: u64,
        len: u64,
        sum: u64,
    }
    let mut planned = Vec::with_capacity(cols.len());
    let mut pos = table_end;
    for (id, col) in &cols {
        let off = align64(pos);
        let len = col.byte_len();
        planned.push(Planned {
            id: *id,
            off,
            len,
            sum: col.checksum(),
        });
        pos = off + len;
    }

    let mut table = Vec::with_capacity(12 + cols.len() * SECTION_ENTRY_BYTES);
    table.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    table.extend_from_slice(&[0u8; 8]);
    for p in &planned {
        table.extend_from_slice(&p.id.to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes());
        table.extend_from_slice(&p.off.to_le_bytes());
        table.extend_from_slice(&p.len.to_le_bytes());
        table.extend_from_slice(&p.sum.to_le_bytes());
    }
    let table_hash = fnv1a(&table);

    let mut flags = csr.directed as u32;
    if index.is_some() {
        flags |= FLAG_INDEX;
    }
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&flags.to_le_bytes());
    header.extend_from_slice(&(csr.num_nodes as u64).to_le_bytes());
    header.extend_from_slice(&(csr.coin_prob.len() as u64).to_le_bytes());
    header.extend_from_slice(&(csr.out_dst.len() as u64).to_le_bytes());
    header.extend_from_slice(&(csr.in_dst.len() as u64).to_le_bytes());
    header.extend_from_slice(&table_hash.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_BYTES);
    w.write_all(&header)?;
    w.write_all(&table)?;

    // Pass 2: emit padding + section bytes straight from the arrays.
    let zeros = [0u8; SECTION_ALIGN];
    let mut pos = table_end;
    for ((_, col), p) in cols.iter().zip(&planned) {
        w.write_all(&zeros[..(p.off - pos) as usize])?;
        col.for_chunks(&mut |c| w.write_all(c))?;
        pos = p.off + p.len;
    }
    w.flush()
}

fn legacy_payload_bytes(n: u64, m: u64, a: u64, b: u64, directed: bool, index: bool) -> u64 {
    let off_sides = if directed { 2 } else { 1 };
    let index_bytes = if index { n * 8 } else { 0 };
    (n + 1) * 4 * off_sides + (a + b) * 16 + m * 16 + index_bytes
}

// ---------------------------------------------------------------------------
// Decoding helpers.
// ---------------------------------------------------------------------------

/// Decode little-endian fixed-width elements into an owned column. Legacy
/// payloads always decode through here; v3 sections only on big-endian
/// hosts, where the on-disk byte order is not the in-memory one.
fn decode<T, const W: usize>(bytes: &[u8], from_le: fn([u8; W]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(W)
        .map(|c| from_le(c.try_into().unwrap()))
        .collect()
}

/// Cursor over a validated legacy payload slice.
struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn take(&mut self, len: usize) -> &'a [u8] {
        // Caller sized the buffer from the same counts used here, so this
        // can never run past the end; assert in case the math drifts.
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        s
    }

    fn u32s(&mut self, count: usize) -> Vec<u32> {
        decode(self.take(count * 4), u32::from_le_bytes)
    }

    fn f64s(&mut self, count: usize) -> Vec<f64> {
        decode(self.take(count * 8), f64::from_le_bytes)
    }

    /// Interleaved `(u32, u32)` pairs, split into two parallel columns.
    fn pair_cols(&mut self, count: usize) -> (Vec<u32>, Vec<u32>) {
        let raw = self.take(count * 8);
        let mut first = Vec::with_capacity(count);
        let mut second = Vec::with_capacity(count);
        for c in raw.chunks_exact(8) {
            first.push(u32::from_le_bytes(c[..4].try_into().unwrap()));
            second.push(u32::from_le_bytes(c[4..].try_into().unwrap()));
        }
        (first, second)
    }
}

// ---------------------------------------------------------------------------
// Verification: independent per-section tasks, merged in canonical order.
// ---------------------------------------------------------------------------

/// Elements per chunk of a verification pass: a chunk's bytes are hashed
/// and then checked while they are still in L1.
const CHUNK: usize = 2048;

/// Which ids a [`Check::Below`] task checks, for its error message.
#[derive(Clone, Copy)]
enum Ids {
    /// Arc targets of one side, below the node count.
    Target(&'static str),
    /// Arc coins of one side, below the coin count.
    Coin(&'static str),
    /// Index labels of one kind, below the node count (below 1 for an
    /// empty graph).
    Label(&'static str),
}

impl Ids {
    /// The exclusive upper bound on these ids in a graph of `n` nodes or
    /// coins.
    fn bound(self, n: usize) -> usize {
        match self {
            Ids::Label(_) => n.max(1),
            _ => n,
        }
    }
}

/// The element checks one verification task runs over its columns.
enum Check<'a> {
    /// Offsets that start at 0, end at `arcs`, and never decrease.
    Offsets {
        side: &'static str,
        off: &'a [u32],
        arcs: usize,
    },
    /// Ids below `n` (see [`Ids`]).
    Below { ids: Ids, xs: &'a [u32], n: usize },
    /// Probabilities in `[0, 1]`, and the stored thresholds that must
    /// equal their [`flip_threshold`].
    Probs {
        what: &'static str,
        prob: &'a [f64],
        thresh: Option<&'a [u64]>,
    },
    /// Coin endpoints below the node count.
    Ends {
        src: &'a [u32],
        dst: &'a [u32],
        n: usize,
    },
}

impl Check<'_> {
    /// Elements per column (every column of one check has the same count).
    fn len(&self) -> usize {
        match self {
            Check::Offsets { off, .. } => off.len(),
            Check::Below { xs, .. } => xs.len(),
            Check::Probs { prob, .. } => prob.len(),
            Check::Ends { src, .. } => src.len(),
        }
    }

    /// Whether elements `r` pass, as a branch-free reduction the compiler
    /// can vectorise. Clean on every chunk means clean as a whole.
    fn scan(&self, r: Range<usize>) -> bool {
        match *self {
            Check::Offsets { off, arcs, .. } => {
                // Each chunk also compares its first element with the
                // previous chunk's last.
                let lo = r.start.saturating_sub(1);
                let (prev, next) = (&off[lo..r.end - 1], &off[lo + 1..r.end]);
                let falls = prev
                    .iter()
                    .zip(next)
                    .fold(false, |bad, (p, q)| bad | (p > q));
                let starts = r.start > 0 || off[0] == 0;
                let ends = r.end < off.len() || off[r.end - 1] as usize == arcs;
                !falls && starts && ends
            }
            Check::Below { ids, xs, n } => {
                (xs[r].iter().fold(0, |hi, &x| hi.max(x)) as usize) < ids.bound(n)
            }
            Check::Probs { prob, thresh, .. } => {
                let p = &prob[r.clone()];
                let valid = p.iter().fold(true, |ok, x| ok & (0.0..=1.0).contains(x));
                valid
                    && thresh.is_none_or(|t| {
                        p.iter().zip(&t[r]).fold(true, |ok, (x, &t)| {
                            ok & (threshold_of_bits(x.to_bits()) == t)
                        })
                    })
            }
            Check::Ends { src, dst, n } => {
                let hi = |xs: &[u32]| xs.iter().fold(0, |hi, &x| hi.max(x)) as usize;
                hi(&src[r.clone()]) < n && hi(&dst[r]) < n
            }
        }
    }

    /// The first violation, in element order, with the message the
    /// format documents; run only after [`Check::scan`] found one.
    fn find(&self) -> Result<(), SnapshotError> {
        match *self {
            Check::Offsets { side, off, arcs } => {
                if off.first() != Some(&0) || off.last() != Some(&(arcs as u32)) {
                    return Err(corrupt(format!(
                        "{side} offsets do not span the declared {arcs} arcs"
                    )));
                }
                if off.windows(2).any(|w| w[0] > w[1]) {
                    return Err(corrupt(format!("{side} offsets are not monotone")));
                }
            }
            Check::Below { ids, xs, n } => {
                let bound = ids.bound(n);
                if let Some((i, &v)) = xs.iter().enumerate().find(|&(_, &v)| v as usize >= bound) {
                    return Err(corrupt(match ids {
                        Ids::Target(side) => {
                            format!("{side} arc target {v} out of range for {n} nodes")
                        }
                        Ids::Coin(side) => {
                            format!("{side} arc coin {v} out of range for {n} coins")
                        }
                        Ids::Label(kind) => {
                            format!("index {kind} label {v} of node {i} out of range for {n} nodes")
                        }
                    }));
                }
            }
            Check::Probs { what, prob, thresh } => {
                for (i, &p) in prob.iter().enumerate() {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(corrupt(format!("{what} {i} probability {p} not in [0, 1]")));
                    }
                }
                // v3 stores thresholds instead of recomputing them; since
                // `flip_threshold` is a pure function of the probability,
                // any stored value that disagrees is corruption, not an
                // alternative encoding.
                for (i, (&p, &t)) in prob.iter().zip(thresh.unwrap_or_default()).enumerate() {
                    if t != flip_threshold(p) {
                        return Err(corrupt(format!(
                            "{what} {i} stored threshold {t} does not match probability {p}"
                        )));
                    }
                }
            }
            Check::Ends { src, dst, n } => {
                for (c, (&s, &d)) in src.iter().zip(dst).enumerate() {
                    if s as usize >= n || d as usize >= n {
                        return Err(corrupt(format!(
                            "coin {c} endpoints ({s}, {d}) out of range for {n} nodes"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One independent unit of load-time verification: the checksums of its
/// sections and the element checks over them, in one chunked pass.
struct Task<'a> {
    /// The sections it hashes, as (table position, file bytes): one, or
    /// two of equal length hashed in lockstep; none for a legacy payload,
    /// whose single hash is checked up front.
    sections: [Option<(usize, &'a [u8])>; 2],
    check: Check<'a>,
}

/// What one [`Task`] found.
struct Verdict {
    /// The checksum of each section the task hashed, in its order.
    sums: [u64; 2],
    /// Its first structural violation.
    err: Option<SnapshotError>,
}

impl Task<'_> {
    /// Bytes the task reads: the load balancer runs large tasks first.
    fn cost(&self) -> usize {
        self.sections.iter().flatten().map(|(_, b)| b.len()).sum()
    }

    fn run(&self) -> Verdict {
        let elems = self.check.len();
        let width = self.sections[0].map_or(0, |(_, b)| b.len() / elems.max(1));
        let mut hs = [Fnv64::new(), Fnv64::new()];
        let mut clean = true;
        for start in (0..elems).step_by(CHUNK) {
            let r = start..(start + CHUNK).min(elems);
            let bytes = r.start * width..r.end * width;
            match self.sections {
                [None, _] => {}
                [Some((_, x)), None] => hs[0].update(&x[bytes]),
                [Some((_, x)), Some((_, y))] => {
                    update_lockstep(&mut hs, [&x[bytes.clone()], &y[bytes]])
                }
            }
            clean &= self.check.scan(r);
        }
        Verdict {
            sums: hs.map(|h| h.finish()),
            err: if clean { None } else { self.check.find().err() },
        }
    }
}

/// The verification tasks over `csr` and its index labels, in the
/// documented check order — the order whose first violation a load
/// reports. `section` gives the table position and file bytes of a
/// section id, or `None` when the payload's hash was already checked
/// whole.
fn tasks<'a>(
    csr: &'a CsrGraph,
    index: Option<&'a IndexSection>,
    section: &dyn Fn(u32) -> Option<(usize, &'a [u8])>,
) -> Vec<Task<'a>> {
    let task = |ids: &[u32], check| {
        let mut sections = ids.iter().filter_map(|&id| section(id));
        Task {
            sections: [sections.next(), sections.next()],
            check,
        }
    };
    let (n, m) = (csr.num_nodes, csr.coin_prob.len());
    let mut sides = vec![("out", SEC_OUT_OFF, &csr.out_off, &csr.out_dst)];
    if csr.directed {
        sides.push(("in", SEC_IN_OFF, &csr.in_off, &csr.in_dst));
    }
    let mut v = Vec::with_capacity(12);
    for (side, first_id, off, dst) in sides {
        // A side's five sections have consecutive ids, in the order
        // off, dst, prob, coin, thresh.
        let (coin, prob, thresh, what) = if side == "out" {
            (&csr.out_coin, &csr.out_prob, &csr.out_thresh, "out arc")
        } else {
            (&csr.in_coin, &csr.in_prob, &csr.in_thresh, "in arc")
        };
        let arcs = dst.len();
        let (off, dst) = (&off[..], &dst[..]);
        v.push(task(&[first_id], Check::Offsets { side, off, arcs }));
        let ids = Ids::Target(side);
        v.push(task(&[first_id + 1], Check::Below { ids, xs: dst, n }));
        let (ids, xs) = (Ids::Coin(side), &coin[..]);
        v.push(task(&[first_id + 3], Check::Below { ids, xs, n: m }));
        let (prob, thresh) = (&prob[..], Some(&thresh[..]));
        let check = Check::Probs { what, prob, thresh };
        v.push(task(&[first_id + 2, first_id + 4], check));
    }
    let (what, prob) = ("coin", &csr.coin_prob[..]);
    v.push(task(
        &[SEC_COIN_PROB],
        Check::Probs {
            what,
            prob,
            thresh: None,
        },
    ));
    let (src, dst) = (&csr.coin_src[..], &csr.coin_dst[..]);
    v.push(task(
        &[SEC_COIN_SRC, SEC_COIN_DST],
        Check::Ends { src, dst, n },
    ));
    if let Some(sec) = index {
        for (id, kind, xs) in [
            (SEC_SUPER_OF, "supernode", &sec.super_of),
            (SEC_COMP_OF, "component", &sec.comp_of),
        ] {
            let ids = Ids::Label(kind);
            v.push(task(&[id], Check::Below { ids, xs, n }));
        }
    }
    v
}

/// How many threads verify a snapshot: every CPU this process may use.
/// [`run`] caps it at the task count.
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `tasks` over up to `workers` threads (inline on one), handing
/// each task's index and verdict to `done` on the calling thread, in no
/// particular order.
fn run(tasks: &[Task<'_>], workers: usize, mut done: impl FnMut(usize, Verdict)) {
    let workers = workers.min(tasks.len());
    if workers <= 1 {
        for (i, t) in tasks.iter().enumerate() {
            done(i, t.run());
        }
        return;
    }
    // Largest first, so the last task anyone picks up is a small one.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tasks[i].cost()));
    // Relaxed is enough: the counter only hands out indices, and the
    // verdicts travel back through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut ran = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            ran.push((i, tasks[i].run()));
        }
        ran
    };
    std::thread::scope(|s| {
        // A helper that cannot be spawned just leaves its share of the
        // queue to the threads that were.
        let helpers: Vec<_> = (1..workers)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, work).ok())
            .collect();
        let mut ran = work();
        for h in helpers {
            ran.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        for (i, v) in ran {
            done(i, v);
        }
    });
}

/// Run the tasks and report what the format prescribes: the first
/// section (in table order) whose checksum does not match `entries`,
/// else the first structural violation in task order.
fn verify(tasks: &[Task<'_>], entries: &[Entry], workers: usize) -> Result<(), SnapshotError> {
    let mut computed = vec![None; entries.len()];
    let mut first: Option<(usize, SnapshotError)> = None;
    run(tasks, workers, |i, v| {
        for (&(pos, _), &sum) in tasks[i].sections.iter().flatten().zip(&v.sums) {
            computed[pos] = Some(sum);
        }
        if let Some(err) = v.err.filter(|_| first.as_ref().is_none_or(|&(j, _)| i < j)) {
            first = Some((i, err));
        }
    });
    for (e, c) in entries.iter().zip(computed) {
        if let Some(computed) = c.filter(|&c| c != e.sum) {
            return Err(SnapshotError::ChecksumMismatch {
                stored: e.sum,
                computed,
            });
        }
    }
    match first {
        Some((_, err)) => Err(err),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Header + section-table parsing.
// ---------------------------------------------------------------------------

/// The fixed 52-byte header every version shares.
struct Header {
    directed: bool,
    has_index: bool,
    n: u64,
    m: u64,
    a: u64,
    b: u64,
    /// The table hash (v3) or the payload hash (v1/v2).
    hash: u64,
}

fn parse_header(header: &[u8], version: u32) -> Result<Header, SnapshotError> {
    let flags = u32::from_le_bytes(header[8..12].try_into().unwrap());
    // The index flag arrived with version 2.
    let known = if version >= 2 {
        FLAG_DIRECTED | FLAG_INDEX
    } else {
        FLAG_DIRECTED
    };
    if flags & !known != 0 {
        return Err(corrupt(format!(
            "unknown flag bits {flags:#x} for version {version}"
        )));
    }
    let u64_at = |lo: usize| u64::from_le_bytes(header[lo..lo + 8].try_into().unwrap());
    let (n, m, a, b) = (u64_at(12), u64_at(20), u64_at(28), u64_at(36));
    // CSR arrays index nodes/arcs/coins with u32, so anything larger than
    // u32::MAX elements cannot be a snapshot this library wrote.
    let max = u32::MAX as u64;
    if n > max || m > max || a > max || b > max {
        return Err(corrupt(format!(
            "declared sizes exceed u32 capacity (n={n}, m={m}, arcs={a}/{b})"
        )));
    }
    let directed = flags & FLAG_DIRECTED != 0;
    if !directed && b != 0 {
        return Err(corrupt("undirected snapshot declares in-arcs"));
    }
    Ok(Header {
        directed,
        has_index: flags & FLAG_INDEX != 0,
        n,
        m,
        a,
        b,
        hash: u64_at(44),
    })
}

/// One validated section-table entry.
struct Entry {
    id: u32,
    off: u64,
    len: u64,
    sum: u64,
    elems: usize,
}

/// Validate the raw table bytes against the canonical spec list: known
/// ids in canonical order, zero entry flags, 64-byte-aligned contiguous
/// offsets, exact lengths. `table_end` is the file offset one past the
/// table (where the first section's alignment run begins).
fn parse_entries(
    table: &[u8],
    specs: &[SectionSpec],
    table_end: u64,
) -> Result<Vec<Entry>, SnapshotError> {
    debug_assert_eq!(table.len(), specs.len() * SECTION_ENTRY_BYTES);
    let mut entries = Vec::with_capacity(specs.len());
    let mut expected_off = align64(table_end);
    for (i, spec) in specs.iter().enumerate() {
        let e = &table[i * SECTION_ENTRY_BYTES..(i + 1) * SECTION_ENTRY_BYTES];
        let id = u32::from_le_bytes(e[0..4].try_into().unwrap());
        let sflags = u32::from_le_bytes(e[4..8].try_into().unwrap());
        let off = u64::from_le_bytes(e[8..16].try_into().unwrap());
        let len = u64::from_le_bytes(e[16..24].try_into().unwrap());
        let sum = u64::from_le_bytes(e[24..32].try_into().unwrap());
        if section_name(id).is_none() || sflags != 0 {
            return Err(SnapshotError::UnknownSection { id, flags: sflags });
        }
        if id != spec.id {
            return Err(corrupt(format!(
                "section {i} has id {id}, expected {} ({})",
                spec.id,
                section_name(spec.id).unwrap_or("?")
            )));
        }
        if off % SECTION_ALIGN as u64 != 0 {
            return Err(SnapshotError::Misaligned {
                section: id,
                offset: off,
            });
        }
        if off != expected_off {
            return Err(corrupt(format!(
                "section {id} at offset {off}, expected {expected_off} \
                 (sections must be contiguous modulo alignment)"
            )));
        }
        let want_len = spec.elems * spec.elem_bytes;
        if len != want_len {
            return Err(corrupt(format!(
                "section {id} declares {len} bytes, expected {want_len}"
            )));
        }
        entries.push(Entry {
            id,
            off,
            len,
            sum,
            elems: spec.elems as usize,
        });
        expected_off = align64(off + len);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// The parser.
// ---------------------------------------------------------------------------

/// One section as a typed column: borrowed in place from the mapping on
/// little-endian hosts, decoded into an owned copy on big-endian ones.
fn col<T: Pod, const W: usize>(
    map: &Arc<Mapping>,
    e: &Entry,
    from_le: fn([u8; W]) -> T,
) -> Result<Block<T>, SnapshotError> {
    if cfg!(target_endian = "big") {
        // `parse` checked that every section lies inside the file.
        let bytes = &map.as_bytes()[e.off as usize..(e.off + e.len) as usize];
        return Ok(decode(bytes, from_le).into());
    }
    Block::from_mapping(map, e.off as usize, e.elems).map_err(|err| match err {
        BlockError::OutOfBounds => SnapshotError::Truncated,
        BlockError::Misaligned => SnapshotError::Misaligned {
            section: e.id,
            offset: e.off,
        },
    })
}

/// The one `.rgs` parser: every load, whatever its backing, ends here.
///
/// Version-3 files come back with their columns borrowed from `map`, so a
/// kernel-mapped file loads zero-copy and a heap-backed one costs exactly
/// its single read buffer. Legacy files decode onto the heap through
/// [`read_legacy`]. `trusted` skips the table hash, the section checksums
/// and the per-element range and threshold scans of a v3 file, but never
/// its geometry; legacy files are always fully validated. The checksums
/// and scans run as independent tasks over `workers` threads
/// ([`default_workers`] when `None`); the error reported does not depend
/// on how many.
fn parse(
    map: Mapping,
    trusted: bool,
    workers: Option<usize>,
) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
    let map = Arc::new(map);
    let bytes = map.as_bytes();
    if bytes.len() < MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic {
            found: bytes[..4].try_into().unwrap(),
        });
    }
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if bytes.len() < HEADER_BYTES {
        return Err(SnapshotError::Truncated);
    }
    let h = parse_header(&bytes[..HEADER_BYTES], version)?;
    if version < 3 {
        return read_legacy(&bytes[HEADER_BYTES..], &h, workers);
    }

    // The count is checked against the header-implied spec list before
    // the table is touched, so a lying count cannot send the parser past
    // the bytes it has.
    if bytes.len() < V3_TABLE_OFFSET {
        return Err(SnapshotError::Truncated);
    }
    let specs = expected_specs(h.n, h.m, h.a, h.b, h.directed, h.has_index);
    let count = u32::from_le_bytes(bytes[52..56].try_into().unwrap());
    if count as usize != specs.len() {
        return Err(corrupt(format!(
            "section count {count}, expected {} for this header",
            specs.len()
        )));
    }
    let table_end = V3_TABLE_OFFSET + specs.len() * SECTION_ENTRY_BYTES;
    if bytes.len() < table_end {
        return Err(SnapshotError::Truncated);
    }
    if !trusted {
        let computed = fnv1a(&bytes[HEADER_BYTES..table_end]);
        if computed != h.hash {
            return Err(SnapshotError::ChecksumMismatch {
                stored: h.hash,
                computed,
            });
        }
    }
    if bytes[56..64] != [0u8; 8] {
        return Err(corrupt("reserved header bytes are not zero"));
    }
    let entries = parse_entries(&bytes[V3_TABLE_OFFSET..table_end], &specs, table_end as u64)?;
    let file_end = entries
        .last()
        .map(|e| e.off + e.len)
        .unwrap_or(table_end as u64);
    if (bytes.len() as u64) < file_end {
        return Err(SnapshotError::Truncated);
    }
    if (bytes.len() as u64) > file_end {
        return Err(corrupt("trailing bytes after the last section"));
    }

    let mut it = entries.iter();
    let mut next = || it.next().expect("entry count validated");
    let out_off = col(&map, next(), u32::from_le_bytes)?;
    let out_dst = col(&map, next(), u32::from_le_bytes)?;
    let out_prob = col(&map, next(), f64::from_le_bytes)?;
    let out_coin = col(&map, next(), u32::from_le_bytes)?;
    let out_thresh = col(&map, next(), u64::from_le_bytes)?;
    let (in_off, in_dst, in_prob, in_coin, in_thresh) = if h.directed {
        (
            col(&map, next(), u32::from_le_bytes)?,
            col(&map, next(), u32::from_le_bytes)?,
            col(&map, next(), f64::from_le_bytes)?,
            col(&map, next(), u32::from_le_bytes)?,
            col(&map, next(), u64::from_le_bytes)?,
        )
    } else {
        Default::default()
    };
    let coin_prob = col(&map, next(), f64::from_le_bytes)?;
    let coin_src = col(&map, next(), u32::from_le_bytes)?;
    let coin_dst = col(&map, next(), u32::from_le_bytes)?;
    let section = if h.has_index {
        // Index labels are small (8 bytes/node) and feed a rebuild that
        // wants owned vectors anyway, so they are copied out rather than
        // borrowed.
        Some(IndexSection {
            super_of: col(&map, next(), u32::from_le_bytes)?.to_vec(),
            comp_of: col(&map, next(), u32::from_le_bytes)?.to_vec(),
        })
    } else {
        None
    };

    let csr = CsrGraph {
        directed: h.directed,
        num_nodes: h.n as usize,
        out_off,
        out_dst,
        out_prob,
        out_coin,
        out_thresh,
        in_off,
        in_dst,
        in_prob,
        in_coin,
        in_thresh,
        coin_prob,
        coin_src,
        coin_dst,
    };
    if !trusted {
        let section_bytes = |id| {
            let pos = entries.iter().position(|e| e.id == id)?;
            let e = &entries[pos];
            Some((pos, &bytes[e.off as usize..(e.off + e.len) as usize]))
        };
        let tasks = tasks(&csr, section.as_ref(), &section_bytes);
        verify(&tasks, &entries, workers.unwrap_or_else(default_workers))?;
    }
    Ok((csr, section))
}

/// Version 1/2 contiguous-payload decoder (see the module docs) over the
/// bytes that follow the header.
fn read_legacy(
    payload: &[u8],
    h: &Header,
    workers: Option<usize>,
) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
    let expected = legacy_payload_bytes(h.n, h.m, h.a, h.b, h.directed, h.has_index);
    if (payload.len() as u64) < expected {
        return Err(SnapshotError::Truncated);
    }
    if (payload.len() as u64) > expected {
        return Err(corrupt("trailing bytes after declared payload"));
    }
    let computed = fnv1a(payload);
    if computed != h.hash {
        return Err(SnapshotError::ChecksumMismatch {
            stored: h.hash,
            computed,
        });
    }

    let (n, m, a, b) = (h.n as usize, h.m as usize, h.a as usize, h.b as usize);
    let mut dec = Decoder {
        buf: payload,
        pos: 0,
    };
    let out_off = dec.u32s(n + 1);
    let out_dst = dec.u32s(a);
    let out_prob = dec.f64s(a);
    let out_coin = dec.u32s(a);
    let (in_off, in_dst, in_prob, in_coin) = if h.directed {
        (dec.u32s(n + 1), dec.u32s(b), dec.f64s(b), dec.u32s(b))
    } else {
        Default::default()
    };
    let coin_prob = dec.f64s(m);
    let (coin_src, coin_dst) = dec.pair_cols(m);
    let section = if h.has_index {
        Some(IndexSection {
            super_of: dec.u32s(n),
            comp_of: dec.u32s(n),
        })
    } else {
        None
    };
    debug_assert_eq!(dec.pos, payload.len());

    // Thresholds are not stored in v1/v2: recompute them, from
    // probabilities checked first (`flip_threshold` wants `[0, 1]`). This
    // also makes the shared threshold check trivially pass.
    for (what, prob) in [("out arc", &out_prob), ("in arc", &in_prob)] {
        Check::Probs {
            what,
            prob,
            thresh: None,
        }
        .find()?;
    }
    let out = (out_off, out_dst, out_prob, out_coin);
    let inn = (in_off, in_dst, in_prob, in_coin);
    let coins = (coin_prob.into(), coin_src.into(), coin_dst.into());
    let csr = CsrGraph::from_sides(h.directed, n, out, inn, coins);
    let tasks = tasks(&csr, section.as_ref(), &|_| None);
    verify(&tasks, &[], workers.unwrap_or_else(default_workers))?;
    Ok((csr, section))
}

// ---------------------------------------------------------------------------
// Entry points: each picks a backing and a trust level, then parses.
// ---------------------------------------------------------------------------

/// Deserialize a snapshot from any reader, validating magic, version,
/// checksums, and structural invariants. The returned graph is
/// bit-identical to the [`CsrGraph`] that was written. Any index section
/// is decoded and discarded; use [`read_full`] to keep it.
pub fn read<R: Read>(r: R) -> Result<CsrGraph, SnapshotError> {
    read_full(r).map(|(csr, _)| csr)
}

/// [`read()`](fn@read), but also returning the persisted index section when
/// the snapshot carries one (version ≥ 2 with flag bit 1).
///
/// The labels are range-checked here; callers turn them into a usable
/// [`RelIndex`](crate::index::RelIndex) via [`RelIndex::from_section`](crate::index::RelIndex::from_section), which builds the index
/// from the graph and rejects labels that differ from the built ones.
///
/// The input is read to its end into one aligned heap buffer, which the
/// returned graph's columns then borrow; a length the header claims but
/// the input does not deliver is [`SnapshotError::Truncated`], never an
/// allocation. For files, [`map_full`] avoids the copy altogether.
pub fn read_full<R: Read>(r: R) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
    parse(Mapping::read(r, 0)?, false, None)
}

/// Load a snapshot **zero-copy**: the file is memory-mapped (see
/// [`relmax_store::Mapping`] — a raw-syscall map on Linux, an aligned heap
/// read elsewhere) and, for version-3 files on little-endian hosts, the
/// returned graph's CSR/coin/threshold columns are borrowed slices over
/// the mapped region. Allocation is `O(1)` in the graph size: only the
/// graph struct, the mapping bookkeeping, and (when present) the index
/// label vectors touch the heap, and resident memory grows with the pages
/// queries actually touch rather than the file size.
///
/// Validation is the same as [`read_full`] — it is the same parser: table
/// hash, per-section checksums, and every structural invariant. Legacy
/// (v1/v2) files decode onto the heap; big-endian hosts copy each section.
///
/// Estimates over a mapped graph are **bit-identical** to estimates over
/// a heap-loaded one: the bytes are the same bytes.
///
/// Safety note: the mapping assumes the file is not truncated in place
/// while loaded; [`save`] and [`save_full`] replace files by rename. See
/// the [`relmax_store::Mapping`] docs.
pub fn map_full<P: AsRef<Path>>(
    path: P,
) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
    parse(Mapping::open(path.as_ref())?, false, None)
}

/// [`map_full`] for files this process (or an equally trusted peer) just
/// wrote: geometry — header sanity, section table shape, alignment, exact
/// file length — is still fully validated, but the table hash, per-section
/// checksums, and per-element range/threshold scans are skipped, so the
/// load is `O(sections)` instead of `O(bytes)`.
pub fn map_full_trusted<P: AsRef<Path>>(
    path: P,
) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
    parse(Mapping::open(path.as_ref())?, true, None)
}

/// [`read()`](fn@read) from a file path.
pub fn load<P: AsRef<Path>>(path: P) -> Result<CsrGraph, SnapshotError> {
    load_full(path).map(|(csr, _)| csr)
}

/// [`map_full`] over a heap copy of the file instead of a kernel mapping:
/// the file is read once into an aligned buffer that the columns borrow.
pub fn load_full<P: AsRef<Path>>(
    path: P,
) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
    parse(Mapping::open_heap(path.as_ref())?, false, None)
}

/// Whether [`open_full`] maps snapshots zero-copy. On by default; the
/// `RELMAX_MMAP` environment variable set to `off`, `0`, `no`, or `false`
/// (case-insensitive) selects the heap backing instead — a pure
/// performance/residency knob, never a correctness one, since both
/// backings run the same parser over the same bytes.
pub fn mmap_enabled() -> bool {
    match std::env::var("RELMAX_MMAP") {
        Ok(v) => !matches!(
            v.to_ascii_lowercase().as_str(),
            "off" | "0" | "no" | "false"
        ),
        Err(_) => true,
    }
}

/// The backing [`open_full`] and [`open_full_trusted`] read through.
fn open_backing(path: &Path) -> io::Result<Mapping> {
    if mmap_enabled() {
        Mapping::open(path)
    } else {
        Mapping::open_heap(path)
    }
}

/// The default production load path for snapshot files: [`map_full`]
/// unless `RELMAX_MMAP=off` (see [`mmap_enabled`]), in which case
/// [`load_full`]. Full validation either way.
pub fn open_full<P: AsRef<Path>>(
    path: P,
) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
    parse(open_backing(path.as_ref())?, false, None)
}

/// [`open_full`] for snapshots this process just wrote: the checks
/// [`map_full_trusted`] skips are skipped under either backing.
pub fn open_full_trusted<P: AsRef<Path>>(
    path: P,
) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
    parse(open_backing(path.as_ref())?, true, None)
}

// ---------------------------------------------------------------------------
// Path-level and in-memory writers.
// ---------------------------------------------------------------------------

/// [`write()`](fn@write) to a file path, replacing any existing file by
/// rename (see [`save_full`]).
pub fn save<P: AsRef<Path>>(csr: &CsrGraph, path: P) -> Result<(), SnapshotError> {
    save_full(csr, None, path)
}

/// [`write_full`] to a file path. The bytes go to a temporary file beside
/// `path`, which is then renamed over it; on error the temporary is
/// removed and `path` is untouched. A process that has the old file
/// mapped — including this one, when a graph is re-saved over its own
/// source — keeps reading the old bytes, which a write in place would
/// truncate under it.
pub fn save_full<P: AsRef<Path>>(
    csr: &CsrGraph,
    index: Option<&IndexSection>,
    path: P,
) -> Result<(), SnapshotError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path names no file"))?;
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = File::create(&tmp)
        .and_then(|f| write_full(csr, index, BufWriter::new(f)))
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(written?)
}

/// In-memory round trip: encode to bytes, no index section.
pub fn to_bytes(csr: &CsrGraph) -> Vec<u8> {
    to_bytes_full(csr, None)
}

/// In-memory round trip: encode to bytes with an optional index section.
pub fn to_bytes_full(csr: &CsrGraph, index: Option<&IndexSection>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_full(csr, index, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UncertainGraph;
    use crate::index::RelIndex;
    use crate::{NodeId, ProbGraph};

    fn diamond() -> CsrGraph {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.8).unwrap();
        g.freeze()
    }

    fn undirected_path() -> CsrGraph {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(0), NodeId(1), 0.25).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.freeze()
    }

    /// Parsed view of a v3 byte image's section table, for test surgery.
    struct TEntry {
        id: u32,
        /// Byte position of this 32-byte entry inside `bytes`.
        pos: usize,
        off: usize,
        len: usize,
    }

    fn entries_of(bytes: &[u8]) -> Vec<TEntry> {
        let count = u32::from_le_bytes(bytes[52..56].try_into().unwrap()) as usize;
        (0..count)
            .map(|i| {
                let pos = V3_TABLE_OFFSET + i * SECTION_ENTRY_BYTES;
                TEntry {
                    id: u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()),
                    pos,
                    off: u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap()) as usize,
                    len: u64::from_le_bytes(bytes[pos + 16..pos + 24].try_into().unwrap()) as usize,
                }
            })
            .collect()
    }

    fn table_end(bytes: &[u8]) -> usize {
        let count = u32::from_le_bytes(bytes[52..56].try_into().unwrap()) as usize;
        V3_TABLE_OFFSET + count * SECTION_ENTRY_BYTES
    }

    /// Recompute one section's table checksum after patching its bytes.
    fn fix_section_sum(bytes: &mut [u8], entry_index: usize) {
        let e = &entries_of(bytes)[entry_index];
        let sum = fnv1a(&bytes[e.off..e.off + e.len]);
        let pos = e.pos;
        bytes[pos + 24..pos + 32].copy_from_slice(&sum.to_le_bytes());
    }

    /// Recompute the header's table hash after patching the table.
    fn fix_table_hash(bytes: &mut [u8]) {
        let end = table_end(bytes);
        let hash = fnv1a(&bytes[HEADER_BYTES..end]);
        bytes[44..52].copy_from_slice(&hash.to_le_bytes());
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("relmax-snap-{tag}-{}.rgs", std::process::id()))
    }

    #[test]
    fn round_trip_is_equal_directed_and_undirected() {
        for csr in [diamond(), undirected_path()] {
            let bytes = to_bytes(&csr);
            let back = read(&bytes[..]).unwrap();
            assert!(back == csr);
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let csr = UncertainGraph::new(0, true).freeze();
        let back = read(&to_bytes(&csr)[..]).unwrap();
        assert!(back == csr);
        assert_eq!(back.num_nodes(), 0);
    }

    #[test]
    fn v3_layout_invariants() {
        let csr = diamond();
        let idx = RelIndex::build(&csr);
        let bytes = to_bytes_full(&csr, Some(&idx.section()));
        assert_eq!(peek_version(&bytes), Some(3));
        let entries = entries_of(&bytes);
        // Directed + index: the full 15-section canonical list.
        assert_eq!(
            entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            (1..=15).collect::<Vec<_>>()
        );
        let mut expected_off = {
            let e = table_end(&bytes) as u64;
            align64(e) as usize
        };
        for e in &entries {
            assert_eq!(e.off % SECTION_ALIGN, 0, "section {} misaligned", e.id);
            assert_eq!(e.off, expected_off, "section {} not contiguous", e.id);
            expected_off = align64((e.off + e.len) as u64) as usize;
        }
        let last = entries.last().unwrap();
        assert_eq!(
            bytes.len(),
            last.off + last.len,
            "file must end at last section"
        );
        // The table hash covers [52, table_end).
        let stored = u64::from_le_bytes(bytes[44..52].try_into().unwrap());
        assert_eq!(stored, fnv1a(&bytes[HEADER_BYTES..table_end(&bytes)]));
    }

    #[test]
    fn magic_sniff() {
        let bytes = to_bytes(&diamond());
        assert!(is_snapshot(&bytes));
        assert!(!is_snapshot(b"0 1 0.5\n"));
        assert!(!is_snapshot(b"RG"));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&diamond());
        bytes[0] = b'X';
        assert!(matches!(
            read(&bytes[..]),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = to_bytes(&diamond());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read(&bytes[..]),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = to_bytes(&diamond());
        for len in [
            0,
            3,
            HEADER_BYTES - 1,
            HEADER_BYTES,
            63,
            100,
            bytes.len() - 1,
        ] {
            let err = read(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated),
                "len={len} gave {err}"
            );
        }
    }

    #[test]
    fn lying_header_sizes_fail_without_huge_allocation() {
        // A header claiming ~u32::MAX of everything must fail with
        // `Truncated` once the bytes run out — not abort on allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        for _ in 0..4 {
            bytes.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        }
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(bytes.len(), HEADER_BYTES);
        let err = read(&bytes[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated), "{err}");
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let mut bytes = to_bytes(&diamond());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            read(&bytes[..]),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn table_corruption_fails_table_hash() {
        let mut bytes = to_bytes(&diamond());
        // Flip a bit inside the first entry's checksum field.
        bytes[V3_TABLE_OFFSET + 24] ^= 1;
        assert!(matches!(
            read(&bytes[..]),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            read_bytes_via_map(&bytes, false),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&diamond());
        bytes.push(0);
        assert!(matches!(
            read(&bytes[..]),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn out_of_range_prob_rejected_even_with_valid_checksum() {
        // Rewrite one out_prob f64 to 2.0 and repair both checksum layers:
        // structural validation must still reject it.
        let mut bytes = to_bytes(&diamond());
        let (i, e) = entries_of(&bytes)
            .into_iter()
            .enumerate()
            .find(|(_, e)| e.id == SEC_OUT_PROB)
            .expect("out_prob section present");
        bytes[e.off..e.off + 8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        fix_section_sum(&mut bytes, i);
        fix_table_hash(&mut bytes);
        let err = read(&bytes[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn stored_threshold_mismatch_rejected() {
        // Corrupt one stored threshold (with repaired checksums): v3
        // readers must verify thresh == flip_threshold(prob).
        let mut bytes = to_bytes(&diamond());
        let (i, e) = entries_of(&bytes)
            .into_iter()
            .enumerate()
            .find(|(_, e)| e.id == SEC_OUT_THRESH)
            .expect("out_thresh section present");
        let cur = u64::from_le_bytes(bytes[e.off..e.off + 8].try_into().unwrap());
        bytes[e.off..e.off + 8].copy_from_slice(&(cur + 1).to_le_bytes());
        fix_section_sum(&mut bytes, i);
        fix_table_hash(&mut bytes);
        let err = read(&bytes[..]).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt { what } if what.contains("threshold")),
            "{err}"
        );
    }

    #[test]
    fn unknown_section_flag_rejected() {
        let mut bytes = to_bytes(&diamond());
        // Set a feature flag on the second entry and repair the table hash.
        let pos = V3_TABLE_OFFSET + SECTION_ENTRY_BYTES + 4;
        bytes[pos..pos + 4].copy_from_slice(&1u32.to_le_bytes());
        fix_table_hash(&mut bytes);
        assert!(matches!(
            read(&bytes[..]),
            Err(SnapshotError::UnknownSection {
                id: SEC_OUT_DST,
                flags: 1
            })
        ));
        assert!(matches!(
            read_bytes_via_map(&bytes, false),
            Err(SnapshotError::UnknownSection { .. })
        ));
    }

    #[test]
    fn unknown_section_id_rejected() {
        let mut bytes = to_bytes(&diamond());
        let pos = V3_TABLE_OFFSET; // first entry's id word
        bytes[pos..pos + 4].copy_from_slice(&200u32.to_le_bytes());
        fix_table_hash(&mut bytes);
        assert!(matches!(
            read(&bytes[..]),
            Err(SnapshotError::UnknownSection { id: 200, flags: 0 })
        ));
    }

    #[test]
    fn misaligned_section_rejected() {
        let mut bytes = to_bytes(&diamond());
        let e = &entries_of(&bytes)[0];
        let bad = (e.off + 4) as u64;
        bytes[e.pos + 8..e.pos + 16].copy_from_slice(&bad.to_le_bytes());
        fix_table_hash(&mut bytes);
        assert!(matches!(
            read(&bytes[..]),
            Err(SnapshotError::Misaligned {
                section: SEC_OUT_OFF,
                ..
            })
        ));
        assert!(matches!(
            read_bytes_via_map(&bytes, false),
            Err(SnapshotError::Misaligned { .. })
        ));
    }

    /// Write `bytes` to a temp file and load through the map path.
    fn read_bytes_via_map(
        bytes: &[u8],
        trusted: bool,
    ) -> Result<(CsrGraph, Option<IndexSection>), SnapshotError> {
        let p = tmp_path(&format!("viamap-{}-{trusted}", fnv1a(bytes)));
        std::fs::write(&p, bytes).expect("write temp snapshot");
        let r = if trusted {
            map_full_trusted(&p)
        } else {
            map_full(&p)
        };
        std::fs::remove_file(&p).ok();
        r
    }

    #[test]
    fn map_full_matches_read_and_is_zero_copy() {
        for csr in [diamond(), undirected_path()] {
            let idx = RelIndex::build(&csr);
            let bytes = to_bytes_full(&csr, Some(&idx.section()));
            let (mapped, section) = read_bytes_via_map(&bytes, false).expect("map loads");
            assert!(mapped == csr, "mapped graph differs from written graph");
            assert_eq!(section.as_ref(), Some(&idx.section()));
            if cfg!(target_endian = "little") {
                assert!(mapped.is_zero_copy(), "v3 map load must borrow columns");
                assert!(
                    mapped.resident_bytes() < csr.resident_bytes(),
                    "mapped graph must not copy columns onto the heap"
                );
            }
            // Trusted load: same graph, same section.
            let (trusted, tsec) = read_bytes_via_map(&bytes, true).expect("trusted map loads");
            assert!(trusted == csr);
            assert_eq!(tsec, section);
            // The heap backing runs the same parser but owns its bytes.
            let (heap, _) = read_full(&bytes[..]).unwrap();
            assert!(!heap.is_zero_copy());
            assert_eq!(heap.resident_bytes(), csr.resident_bytes());
        }
    }

    #[test]
    fn trusted_map_skips_checksums_but_not_geometry() {
        let csr = diamond();
        let mut bytes = to_bytes(&csr);
        // Corrupt a payload byte without repairing checksums: untrusted
        // rejects, trusted (geometry-only) accepts.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            read_bytes_via_map(&bytes, false),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(read_bytes_via_map(&bytes, true).is_ok());
        // But truncation is geometry: trusted still rejects.
        let cut = &bytes[..bytes.len() - 8];
        assert!(matches!(
            read_bytes_via_map(cut, true),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn index_section_round_trips() {
        for csr in [diamond(), undirected_path()] {
            let idx = RelIndex::build(&csr);
            let section = idx.section();
            let bytes = to_bytes_full(&csr, Some(&section));
            let (back, got) = read_full(&bytes[..]).unwrap();
            assert!(back == csr);
            assert_eq!(got.as_ref(), Some(&section));
            // The plain reader ignores the section but decodes the graph.
            assert!(read(&bytes[..]).unwrap() == csr);
            // Re-indexing from the stored labels reproduces the index.
            assert_eq!(RelIndex::from_section(&back, &got.unwrap()).unwrap(), idx);
        }
    }

    #[test]
    fn v1_with_index_flag_is_rejected() {
        // The v2 fixture carries an index section; as version 1 its flag
        // word is corrupt, even though the payload hash still matches.
        let mut bytes = include_bytes!("../../../tests/fixtures/tiny_v2.rgs").to_vec();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            read_full(&bytes[..]),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn out_of_range_index_labels_rejected() {
        let csr = diamond();
        let section = IndexSection {
            super_of: vec![0, 1, 2, 99],
            comp_of: vec![0, 0, 0, 0],
        };
        // Labels are written verbatim with valid checksums, so only the
        // range check can reject them.
        let bytes = to_bytes_full(&csr, Some(&section));
        assert!(matches!(
            read_full(&bytes[..]),
            Err(SnapshotError::Corrupt { .. })
        ));
        assert!(matches!(
            read_bytes_via_map(&bytes, false),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    /// The directed diamond with an index section: all 15 sections present.
    fn diamond_full_bytes() -> Vec<u8> {
        let csr = diamond();
        to_bytes_full(&csr, Some(&RelIndex::build(&csr).section()))
    }

    /// Overwrite element `elem` of section `id` with `val` (its
    /// little-endian bytes); `repair` recomputes that section's checksum
    /// and the table hash so only the structural checks can object.
    fn poke(bytes: &mut [u8], id: u32, elem: usize, val: &[u8], repair: bool) {
        let (i, e) = entries_of(bytes)
            .into_iter()
            .enumerate()
            .find(|(_, e)| e.id == id)
            .expect("section present");
        let at = e.off + elem * val.len();
        bytes[at..at + val.len()].copy_from_slice(val);
        if repair {
            fix_section_sum(bytes, i);
            fix_table_hash(bytes);
        }
    }

    /// One corruption per validation class, each pinned to the exact
    /// message every load path reports — the precedence of
    /// `docs/formats.md` "Validation on load": the table hash, then the
    /// first mismatching section checksum in section order, then the
    /// first structural violation in check order.
    #[test]
    fn error_precedence_table() {
        type Corrupt = fn(&mut Vec<u8>);
        let cases: [(&str, Corrupt, &str); 14] = [
            (
                "table hash",
                |b| b[V3_TABLE_OFFSET + 24] ^= 1,
                "snapshot checksum mismatch: file says 0x4c621e011575627b, \
                 bytes hash to 0xf71c462294fcb536",
            ),
            (
                "middle section checksum",
                |b| poke(b, SEC_IN_PROB, 1, &0.25f64.to_le_bytes(), false),
                "snapshot checksum mismatch: file says 0x2d10ef0be2805fee, \
                 bytes hash to 0x7f1ae18ce3b1b5b7",
            ),
            (
                "last section checksum",
                |b| poke(b, SEC_COMP_OF, 3, &1u32.to_le_bytes(), false),
                "snapshot checksum mismatch: file says 0x88201fb960ff6465, \
                 bytes hash to 0xe82573b10ac9a7d4",
            ),
            (
                "offsets not monotone",
                |b| poke(b, SEC_OUT_OFF, 1, &4u32.to_le_bytes(), true),
                "corrupt snapshot: out offsets are not monotone",
            ),
            (
                "out_dst >= n",
                |b| poke(b, SEC_OUT_DST, 1, &4u32.to_le_bytes(), true),
                "corrupt snapshot: out arc target 4 out of range for 4 nodes",
            ),
            (
                "in_coin >= m",
                |b| poke(b, SEC_IN_COIN, 2, &9u32.to_le_bytes(), true),
                "corrupt snapshot: in arc coin 9 out of range for 4 coins",
            ),
            (
                "probability 2.0",
                |b| poke(b, SEC_OUT_PROB, 3, &2.0f64.to_le_bytes(), true),
                "corrupt snapshot: out arc 3 probability 2 not in [0, 1]",
            ),
            (
                "stored threshold",
                |b| poke(b, SEC_IN_THRESH, 1, &12345u64.to_le_bytes(), true),
                "corrupt snapshot: in arc 1 stored threshold 12345 does not match probability 0.6",
            ),
            (
                "coin endpoints",
                |b| poke(b, SEC_COIN_DST, 2, &7u32.to_le_bytes(), true),
                "corrupt snapshot: coin 2 endpoints (1, 7) out of range for 4 nodes",
            ),
            (
                "index label",
                |b| poke(b, SEC_COMP_OF, 3, &99u32.to_le_bytes(), true),
                "corrupt snapshot: index component label 99 of node 3 out of range for 4 nodes",
            ),
            (
                "checksum beats a later range error",
                |b| {
                    poke(b, SEC_OUT_THRESH, 0, &1u64.to_le_bytes(), false);
                    poke(b, SEC_IN_DST, 0, &50u32.to_le_bytes(), true);
                },
                "snapshot checksum mismatch: file says 0x8573a2882797977a, \
                 bytes hash to 0x9d83ed4352f0c5c3",
            ),
            (
                "checksum beats an earlier range error",
                |b| {
                    poke(b, SEC_OUT_DST, 0, &50u32.to_le_bytes(), true);
                    poke(b, SEC_COIN_SRC, 0, &3u32.to_le_bytes(), false);
                },
                "snapshot checksum mismatch: file says 0xa91ab0c1027b9366, \
                 bytes hash to 0xb623a479d2984da5",
            ),
            (
                "two section checksums",
                |b| {
                    poke(b, SEC_COMP_OF, 0, &2u32.to_le_bytes(), false);
                    poke(b, SEC_OUT_COIN, 0, &3u32.to_le_bytes(), false);
                },
                "snapshot checksum mismatch: file says 0x30d77e22c5da0365, \
                 bytes hash to 0x2e66d7180f39dda6",
            ),
            (
                "two range errors",
                |b| {
                    poke(b, SEC_IN_COIN, 0, &9u32.to_le_bytes(), true);
                    poke(b, SEC_OUT_PROB, 1, &(-0.5f64).to_le_bytes(), true);
                },
                "corrupt snapshot: out arc 1 probability -0.5 not in [0, 1]",
            ),
        ];
        for (name, corrupt, want) in cases {
            let mut bytes = diamond_full_bytes();
            corrupt(&mut bytes);
            let with_workers = |w| {
                let map = Mapping::read(&bytes[..], 0).unwrap();
                parse(map, false, Some(w)).map(|_| ()).unwrap_err()
            };
            let got = [
                read_full(&bytes[..]).map(|_| ()).unwrap_err(),
                read_bytes_via_map(&bytes, false).map(|_| ()).unwrap_err(),
                with_workers(1),
                with_workers(4),
            ];
            for g in got {
                assert_eq!(g.to_string(), want, "{name}");
            }
        }
    }

    #[test]
    fn errors_display() {
        let e = SnapshotError::UnsupportedVersion { found: 7 };
        assert!(e.to_string().contains('7'));
        let e = SnapshotError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("mismatch"));
        let e = SnapshotError::UnknownSection { id: 42, flags: 8 };
        assert!(e.to_string().contains("42"), "{e}");
        let e = SnapshotError::Misaligned {
            section: 3,
            offset: 100,
        };
        assert!(e.to_string().contains("aligned"), "{e}");
    }
}
