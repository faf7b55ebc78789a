//! Read-only whole-file mappings behind a safe API.
//!
//! The fast path is a raw `mmap(2)` syscall on Linux — no `libc`, no
//! `memmap2`, just the two instructions the kernel ABI asks for — so a
//! multi-GB snapshot becomes addressable without copying a byte and
//! resident memory grows only with the pages a query actually touches.
//! The other backing is a 64-byte-aligned heap buffer filled by reads:
//! the same `&[u8]` comes out, it just costs one copy. [`Mapping::open`]
//! takes it on platforms without the syscall shim; [`Mapping::open_heap`]
//! and [`Mapping::read`] take it on purpose.
//!
//! Safety model: the mapping is `MAP_PRIVATE` + `PROT_READ` over an open
//! file descriptor. The pointer stays valid until `Drop` runs `munmap`.
//! Truncating the file *while it is mapped* is the one hazard `mmap`
//! cannot paper over (the kernel delivers `SIGBUS` on a fault past EOF);
//! snapshot writers in this workspace always write to a fresh path and
//! rename, never truncate in place, which is why the API can stay safe.

use crate::SECTION_ALIGN;
use std::alloc::Layout;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// A read-only view of an entire file, 64-byte-aligned at its base.
///
/// Obtain one with [`Mapping::open`] (a kernel map where available),
/// [`Mapping::open_heap`] or [`Mapping::read`] (an aligned heap copy);
/// get the bytes with [`Mapping::as_bytes`]. Whether the view is a true
/// memory map or a heap copy is observable only through
/// [`Mapping::is_mmap`] (and the process's resident-set size).
#[derive(Debug)]
pub struct Mapping {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    /// A live kernel mapping; `Drop` issues `munmap`.
    #[allow(dead_code)] // constructed only on mmap-capable targets
    Mmap,
    /// An aligned heap allocation we own; `layout.size()` is its capacity,
    /// of which the first `len` bytes are filled.
    Heap { layout: Layout },
    /// Zero-length view: no allocation, no syscall, dangling base.
    Empty,
}

// The view is immutable shared memory: concurrent reads from any number
// of threads are fine, and the destructor takes `&mut self`.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map the whole file at `path`; on targets without the mmap shim,
    /// read it into the heap backing instead.
    pub fn open(path: &Path) -> io::Result<Mapping> {
        let file = File::open(path)?;
        let len = file_len(&file)?;
        if len == 0 {
            return Ok(Mapping::empty());
        }
        if let Some(ptr) = sys::mmap_readonly(&file, len)? {
            return Ok(Mapping {
                ptr,
                len,
                backing: Backing::Mmap,
            });
        }
        Mapping::read(file, len)
    }

    /// Read the whole file at `path` into the heap backing, on every
    /// target: one aligned buffer, no kernel mapping.
    pub fn open_heap(path: &Path) -> io::Result<Mapping> {
        let file = File::open(path)?;
        let len = file_len(&file)?;
        Mapping::read(file, len)
    }

    /// Read `r` to its end into a 64-byte-aligned heap buffer. `size_hint`
    /// is the expected length: a reader that yields exactly that many
    /// bytes costs one allocation, a longer one grows the buffer.
    pub fn read<R: Read>(mut r: R, size_hint: usize) -> io::Result<Mapping> {
        let mut m = Mapping::empty();
        loop {
            let cap = match m.backing {
                Backing::Heap { layout } => layout.size(),
                _ => 0,
            };
            if m.len == cap {
                // One byte past the hint observes EOF without a second
                // allocation; past that, double.
                m.grow(size_hint.saturating_add(1).max(2 * cap).max(4096))?;
                continue;
            }
            // SAFETY: `ptr[len..cap]` is allocated, zero-initialized by
            // `grow`, and owned by `m`.
            let spare =
                unsafe { std::slice::from_raw_parts_mut(m.ptr.add(m.len) as *mut u8, cap - m.len) };
            match r.read(spare) {
                Ok(0) => return Ok(m),
                Ok(n) => m.len += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn empty() -> Mapping {
        Mapping {
            ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
            len: 0,
            backing: Backing::Empty,
        }
    }

    /// Resize the heap backing to `cap` bytes (more than it has), keeping
    /// its contents and its alignment and zeroing the new tail. Only heap
    /// and empty views are ever grown.
    fn grow(&mut self, cap: usize) -> io::Result<()> {
        let layout = Layout::from_size_align(cap, SECTION_ALIGN)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // SAFETY: `cap > 0`. A heap backing was allocated with `old`, and
        // `old.size() < cap`, so the zeroed tail lies inside the new block.
        let ptr = unsafe {
            match self.backing {
                Backing::Heap { layout: old } => {
                    let p = std::alloc::realloc(self.ptr as *mut u8, old, cap);
                    if !p.is_null() {
                        p.add(old.size()).write_bytes(0, cap - old.size());
                    }
                    p
                }
                _ => std::alloc::alloc_zeroed(layout),
            }
        };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        self.ptr = ptr;
        self.backing = Backing::Heap { layout };
        Ok(())
    }

    /// The mapped bytes. Zero-copy for the lifetime of the `Mapping`.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` read-only bytes until Drop
        // (dangling-but-aligned when len == 0, which `from_raw_parts`
        // permits for empty slices).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base pointer of the view (64-byte-aligned for non-empty files).
    #[inline]
    pub(crate) fn base(&self) -> *const u8 {
        self.ptr
    }

    /// True when the view is a real kernel memory map (as opposed to the
    /// portable heap-copy fallback).
    pub fn is_mmap(&self) -> bool {
        matches!(self.backing, Backing::Mmap)
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match self.backing {
            Backing::Mmap => sys::munmap(self.ptr, self.len),
            Backing::Heap { layout } => {
                // SAFETY: allocated in `grow` with exactly this layout.
                unsafe { std::alloc::dealloc(self.ptr as *mut u8, layout) }
            }
            Backing::Empty => {}
        }
    }
}

/// Whether [`Mapping::open`] produces true memory maps on this build
/// (Linux x86_64/aarch64). Elsewhere it reports `false` and the heap
/// fallback serves the same API.
pub fn mmap_supported() -> bool {
    sys::SUPPORTED
}

fn file_len(file: &File) -> io::Result<usize> {
    usize::try_from(file.metadata()?.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "file larger than the address space",
        )
    })
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Raw `mmap`/`munmap` for the two Linux ABIs we target. Constants
    //! from the kernel UAPI: PROT_READ=1, MAP_PRIVATE=2; errors come
    //! back as `-errno` in the return register.

    use std::io;
    use std::os::fd::AsRawFd;

    pub const SUPPORTED: bool = true;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)`; `Ok(Some(ptr))`
    /// on success, `Err` on kernel refusal. Never returns `Ok(None)` on
    /// this cfg — that arm exists for the fallback build.
    pub fn mmap_readonly(file: &std::fs::File, len: usize) -> io::Result<Option<*const u8>> {
        let fd = file.as_raw_fd();
        let ret = unsafe { raw_mmap(len, fd) };
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(Some(ret as *const u8))
    }

    pub fn munmap(ptr: *const u8, len: usize) {
        // Failure here would mean the mapping was already gone; there is
        // nothing useful to do with the error in a destructor.
        let _ = unsafe { raw_munmap(ptr, len) };
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn raw_mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 9isize => ret, // __NR_mmap
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") fd as isize,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn raw_munmap(ptr: *const u8, len: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 11isize => ret, // __NR_munmap
            in("rdi") ptr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn raw_mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") 0usize => ret, // addr = NULL
            in("x1") len,
            in("x2") PROT_READ,
            in("x3") MAP_PRIVATE,
            in("x4") fd as isize,
            in("x5") 0usize,
            in("x8") 222usize, // __NR_mmap
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn raw_munmap(ptr: *const u8, len: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") ptr => ret,
            in("x1") len,
            in("x8") 215usize, // __NR_munmap
            options(nostack),
        );
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::io;

    pub const SUPPORTED: bool = false;

    /// No mmap on this target: signal the caller to take the heap path.
    pub fn mmap_readonly(_file: &std::fs::File, _len: usize) -> io::Result<Option<*const u8>> {
        Ok(None)
    }

    pub fn munmap(_ptr: *const u8, _len: usize) {
        unreachable!("no mmap backing is ever constructed on this target")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SECTION_ALIGN;
    use std::io::Write;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("relmax-store-{name}-{}", std::process::id()));
        let mut f = File::create(&p).expect("create temp file");
        f.write_all(bytes).expect("write temp file");
        p
    }

    #[test]
    fn maps_whole_file_and_aligns_base() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let p = tmp("whole", &data);
        let m = Mapping::open(&p).expect("open mapping");
        assert_eq!(m.as_bytes(), &data[..]);
        assert_eq!(m.len(), data.len());
        assert_eq!(m.base() as usize % SECTION_ALIGN, 0, "base not aligned");
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(m.is_mmap(), "linux build should take the mmap path");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_view() {
        let p = tmp("empty", b"");
        let m = Mapping::open(&p).expect("open empty mapping");
        assert!(m.is_empty());
        assert_eq!(m.as_bytes(), b"");
        assert!(!m.is_mmap());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn heap_backing_reads_to_the_end_whatever_the_hint() {
        let data: Vec<u8> = (0..=255u8).cycle().take(20_000).collect();
        for hint in [0, 1, 8192, data.len(), 50_000] {
            let m = Mapping::read(&data[..], hint).expect("read into heap");
            assert_eq!(m.as_bytes(), &data[..], "hint {hint}");
            assert_eq!(m.base() as usize % SECTION_ALIGN, 0, "base not aligned");
            assert!(!m.is_mmap());
        }
        assert!(Mapping::read(&b""[..], 0).unwrap().is_empty());
        let p = tmp("heap", &data);
        let m = Mapping::open_heap(&p).expect("open heap");
        assert_eq!(m.as_bytes(), &data[..]);
        assert!(!m.is_mmap());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let p = std::env::temp_dir().join("relmax-store-definitely-missing.bin");
        assert!(Mapping::open(&p).is_err());
        assert!(Mapping::open_heap(&p).is_err());
    }

    #[test]
    fn mapping_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Mapping>();
    }
}
