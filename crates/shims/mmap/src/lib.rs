//! Offline stand-in for the usual memory-mapping crates (`memmap2`): a
//! minimal **read-only** file mapping built directly on the `mmap`
//! syscall, plus a safe read-whole-file fallback.
//!
//! This is the *only* crate in the workspace allowed to contain `unsafe`
//! code — every other crate keeps `#![forbid(unsafe_code)]` and consumes
//! the mapping through the safe [`Mmap::as_bytes`] slice. The unsafe
//! surface is deliberately tiny:
//!
//! * the raw `mmap`/`munmap` syscalls (no `libc` in the offline build
//!   environment, so the two syscalls are issued with inline assembly on
//!   x86-64 and aarch64 Linux);
//! * the `&[u8]` view over the mapped pages;
//! * the `Send`/`Sync` impls, sound because the mapping is private,
//!   read-only and owned until `Drop`.
//!
//! On other platforms — or whenever the syscall fails — [`Mmap::open`]
//! falls back to reading the whole file into an owned buffer, so callers
//! get identical semantics everywhere and only lose the zero-copy
//! property.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::fs::File;
use std::io;
use std::path::Path;

/// Which implementation backs an [`Mmap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The file's pages are mapped directly (zero-copy).
    Mapped,
    /// The file was read into an owned heap buffer (fallback).
    Buffered,
}

impl Backend {
    /// A short human-readable label (`"mmap"` / `"read"`).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Mapped => "mmap",
            Backend::Buffered => "read",
        }
    }
}

enum Storage {
    /// A live `mmap` region: base pointer and length in bytes, plus a
    /// skew marking where the caller's requested range starts inside
    /// the mapping (`mmap` offsets must be page-aligned; a range map
    /// aligns down and hides the alignment slack behind the skew).
    ///
    /// Invariants: `ptr` came from a successful read-only `MAP_PRIVATE`
    /// mmap of `len > 0` bytes, `skew <= len`, and the region is
    /// unmapped exactly once, in `Drop`.
    Mapped {
        ptr: *const u8,
        len: usize,
        skew: usize,
    },
    /// The read-whole-file fallback (also used for empty files, which
    /// `mmap` rejects with `EINVAL`).
    Buffered(Vec<u8>),
}

/// Page-cache advice forwarded to `madvise` on mapped views (a no-op on
/// buffered views and platforms without the syscall). Advice is always
/// best-effort: the kernel may ignore it, so failures are swallowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Expect sequential access: aggressive readahead, early eviction
    /// behind the cursor (`MADV_SEQUENTIAL`).
    Sequential,
    /// Expect access soon: start readahead now (`MADV_WILLNEED`).
    WillNeed,
}

/// A read-only view of a file's bytes, memory-mapped when the platform
/// allows and read into a buffer otherwise.
///
/// # Examples
///
/// ```
/// let path = std::env::temp_dir().join(format!("mmap-shim-doc-{}", std::process::id()));
/// std::fs::write(&path, b"hello mapping").unwrap();
/// let map = tlbsim_shim_mmap::Mmap::open(&path).unwrap();
/// assert_eq!(map.as_bytes(), b"hello mapping");
/// std::fs::remove_file(&path).unwrap();
/// ```
pub struct Mmap {
    storage: Storage,
    backend: Backend,
}

// SAFETY: the mapped region is private and read-only for the lifetime
// of the value, accessed only through `&self`, and unmapped exactly once
// in `Drop`; the buffered variant is an ordinary `Vec<u8>`.
unsafe impl Send for Mmap {}
// SAFETY: as above — shared references only ever read the bytes.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `path` read-only, falling back to [`Mmap::open_buffered`] if
    /// mapping is unsupported on this platform or the syscall fails.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map into this address space",
            ));
        }
        if len == 0 {
            // `mmap` rejects zero-length mappings (EINVAL); an empty
            // buffer is served — and reported — as the buffered path.
            return Ok(Mmap {
                storage: Storage::Buffered(Vec::new()),
                backend: Backend::Buffered,
            });
        }
        match sys::map_readonly(&file, len as usize, 0) {
            Some(Ok(ptr)) => Ok(Mmap {
                storage: Storage::Mapped {
                    ptr,
                    len: len as usize,
                    skew: 0,
                },
                backend: Backend::Mapped,
            }),
            // `None` means "no mmap on this platform"; `Some(Err(_))`
            // means the syscall itself refused (exotic filesystem,
            // resource limits). Both degrade to the buffered path.
            Some(Err(_)) | None => Self::open_buffered(&file),
        }
    }

    /// Maps `len` bytes of `file` starting at byte `offset`, falling
    /// back to a positioned buffered read if mapping is unavailable.
    ///
    /// This is the windowed-replay primitive: a streaming cursor keeps
    /// one `File` open and remaps successive windows of a
    /// larger-than-RAM trace through this call, so no path re-open or
    /// per-window metadata lookup happens on the advance path. `mmap`
    /// requires page-aligned offsets; the requested offset is aligned
    /// down internally and the slack is hidden, so [`Mmap::as_bytes`]
    /// returns exactly the requested range.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the range extends past the end of the file (a
    /// mapped page past EOF would fault on access, not error), plus any
    /// I/O error from the buffered fallback.
    pub fn map_file_range(file: &File, offset: u64, len: usize) -> io::Result<Self> {
        let file_len = file.metadata()?.len();
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > file_len)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "range extends past the end of the file",
            ));
        }
        if len == 0 {
            return Ok(Mmap {
                storage: Storage::Buffered(Vec::new()),
                backend: Backend::Buffered,
            });
        }
        // Align the offset down to the (conservative) 4 KiB page grid.
        // If the platform's real page size is larger the syscall refuses
        // with EINVAL and the buffered fallback serves the same bytes.
        const PAGE: u64 = 4096;
        let aligned = offset - (offset % PAGE);
        let skew = (offset - aligned) as usize;
        let map_len = len + skew;
        match sys::map_readonly(file, map_len, aligned) {
            Some(Ok(ptr)) => Ok(Mmap {
                storage: Storage::Mapped {
                    ptr,
                    len: map_len,
                    skew,
                },
                backend: Backend::Mapped,
            }),
            Some(Err(_)) | None => Self::read_range_buffered(file, offset, len),
        }
    }

    /// The positioned-read fallback behind [`Mmap::map_file_range`]. On
    /// Unix it leaves the file's cursor alone, so threads that share one
    /// `File` can each read their own windows.
    fn read_range_buffered(file: &File, offset: u64, len: usize) -> io::Result<Self> {
        let mut bytes = vec![0u8; len];
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(file, &mut bytes, offset)?;
        #[cfg(not(unix))]
        {
            use io::{Read as _, Seek as _};
            let mut reader: &File = file;
            reader.seek(io::SeekFrom::Start(offset))?;
            reader.read_exact(&mut bytes)?;
        }
        Ok(Mmap {
            storage: Storage::Buffered(bytes),
            backend: Backend::Buffered,
        })
    }

    /// Forwards page-cache advice for the whole view to `madvise`.
    ///
    /// Best-effort by design: buffered views, platforms without the
    /// syscall, and kernels that refuse the advice all degrade to "no
    /// advice", never to an error — readahead is an optimisation, not a
    /// correctness property.
    pub fn advise(&self, advice: Advice) {
        if let Storage::Mapped { ptr, len, .. } = self.storage {
            sys::advise(ptr, len, advice);
        }
    }

    /// Reads the whole file into an owned buffer — the safe fallback,
    /// also reachable directly so tests can exercise both backends on
    /// any platform.
    pub fn open_buffered(file: &File) -> io::Result<Self> {
        let mut bytes = Vec::new();
        let mut reader: &File = file;
        io::Read::read_to_end(&mut reader, &mut bytes)?;
        Ok(Mmap {
            storage: Storage::Buffered(bytes),
            backend: Backend::Buffered,
        })
    }

    /// Wraps an in-memory buffer in the `Mmap` interface (for tests and
    /// tools that synthesise trace bytes without touching disk).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Mmap {
            storage: Storage::Buffered(bytes),
            backend: Backend::Buffered,
        }
    }

    /// The file's bytes (for a range map, exactly the requested range).
    pub fn as_bytes(&self) -> &[u8] {
        match &self.storage {
            // SAFETY: `ptr` points at a live read-only mapping of
            // exactly `len` bytes with `skew <= len` (struct
            // invariants); the lifetime of the returned slice is tied
            // to `&self`, and the region is only unmapped in `Drop`.
            Storage::Mapped { ptr, len, skew } => {
                let full = unsafe { std::slice::from_raw_parts(*ptr, *len) };
                &full[*skew..]
            }
            Storage::Buffered(bytes) => bytes,
        }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Mapped { len, skew, .. } => *len - *skew,
            Storage::Buffered(bytes) => bytes.len(),
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which implementation backs this view.
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if let Storage::Mapped { ptr, len, .. } = self.storage {
            // SAFETY: the pointer/length pair came from a successful
            // mmap and is unmapped exactly once; failure here cannot be
            // meaningfully handled, matching every mmap wrapper.
            unsafe { sys::unmap(ptr, len) };
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.len())
            .field("backend", &self.backend.label())
            .finish()
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Raw `mmap`/`munmap` on Linux, issued without `libc` (the offline
    //! build has no crates.io): number and arguments per the kernel's
    //! syscall ABI for each architecture.

    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    use super::Advice;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    const MADV_SEQUENTIAL: usize = 2;
    const MADV_WILLNEED: usize = 3;

    /// Maps `len` bytes of `file` read-only, starting at the
    /// page-aligned byte `offset`. `Some(Err(_))` is a syscall failure;
    /// the caller falls back to buffered reading.
    pub fn map_readonly(file: &File, len: usize, offset: u64) -> Option<io::Result<*const u8>> {
        let fd = file.as_raw_fd();
        // SAFETY: arguments follow the mmap(2) contract — addr = NULL
        // (kernel chooses), a non-zero length, read-only protection, a
        // private mapping of a valid owned fd at a page-aligned offset
        // inside the file. The kernel validates everything else and
        // reports errors in the return value, decoded below.
        let ret = unsafe { mmap_syscall(len, fd, offset) };
        if ret as usize >= -4095isize as usize {
            return Some(Err(io::Error::from_raw_os_error(-(ret as i32))));
        }
        Some(Ok(ret as *const u8))
    }

    /// Forwards [`Advice`] to `madvise(2)`; best-effort, result ignored.
    pub fn advise(ptr: *const u8, len: usize, advice: Advice) {
        let advice = match advice {
            Advice::Sequential => MADV_SEQUENTIAL,
            Advice::WillNeed => MADV_WILLNEED,
        };
        // SAFETY: `ptr`/`len` describe a live mapping (caller holds the
        // owning `Mmap`); madvise reads nothing and writes nothing in
        // the process's memory, it only tunes kernel readahead. A
        // refusal is irrelevant — advice is advisory.
        unsafe { madvise_syscall(ptr, len, advice) };
    }

    /// Unmaps a region previously returned by [`map_readonly`].
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must describe exactly one live mapping, which must
    /// not be used afterwards.
    pub unsafe fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: forwarded contract — one live mapping, unmapped once.
        unsafe { munmap_syscall(ptr, len) };
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn mmap_syscall(len: usize, fd: i32, offset: u64) -> isize {
        let ret: isize;
        // SAFETY: a plain syscall instruction; rcx/r11 are declared
        // clobbered per the x86-64 syscall ABI and no memory the
        // compiler knows about is touched.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 9isize => ret, // __NR_mmap
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") PROT_READ,
                in("r10") MAP_PRIVATE,
                in("r8") fd as isize,
                in("r9") offset as usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn madvise_syscall(ptr: *const u8, len: usize, advice: usize) {
        // SAFETY: as for `mmap_syscall`.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 28isize => _, // __NR_madvise
                in("rdi") ptr,
                in("rsi") len,
                in("rdx") advice,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn munmap_syscall(ptr: *const u8, len: usize) {
        // SAFETY: as for `mmap_syscall`.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 11isize => _, // __NR_munmap
                in("rdi") ptr,
                in("rsi") len,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn mmap_syscall(len: usize, fd: i32, offset: u64) -> isize {
        let ret: isize;
        // SAFETY: a plain svc instruction following the aarch64 syscall
        // ABI (number in x8, arguments in x0..x5, result in x0).
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 222isize, // __NR_mmap
                inlateout("x0") 0usize => ret,
                in("x1") len,
                in("x2") PROT_READ,
                in("x3") MAP_PRIVATE,
                in("x4") fd as isize,
                in("x5") offset as usize,
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn madvise_syscall(ptr: *const u8, len: usize, advice: usize) {
        // SAFETY: as for `mmap_syscall`.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 233isize, // __NR_madvise
                inlateout("x0") ptr => _,
                in("x1") len,
                in("x2") advice,
                options(nostack)
            );
        }
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn munmap_syscall(ptr: *const u8, len: usize) {
        // SAFETY: as for `mmap_syscall`.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 215isize, // __NR_munmap
                inlateout("x0") ptr => _,
                in("x1") len,
                options(nostack)
            );
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    //! No raw mmap on this platform: `map_readonly` declines and the
    //! caller uses the buffered fallback.

    use std::fs::File;
    use std::io;

    use super::Advice;

    pub fn map_readonly(_file: &File, _len: usize, _offset: u64) -> Option<io::Result<*const u8>> {
        None
    }

    /// No mappings exist on the fallback platform, so never called with
    /// a live region; a no-op keeps the caller unconditional.
    pub fn advise(_ptr: *const u8, _len: usize, _advice: Advice) {}

    /// # Safety
    ///
    /// Never called: the fallback platform never produces a mapping.
    pub unsafe fn unmap(_ptr: *const u8, _len: usize) {
        unreachable!("no mappings exist on the fallback platform");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tlbsim-mmap-{}-{tag}", std::process::id()))
    }

    #[test]
    fn mapping_matches_file_contents() {
        let path = temp_path("contents");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.as_bytes(), payload.as_slice());
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn linux_hosts_get_the_zero_copy_backend() {
        let path = temp_path("backend");
        std::fs::write(&path, b"x").unwrap();
        let map = Mmap::open(&path).unwrap();
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert_eq!(map.backend(), Backend::Mapped);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buffered_fallback_agrees_with_the_mapping() {
        let path = temp_path("fallback");
        std::fs::write(&path, b"same bytes either way").unwrap();
        let mapped = Mmap::open(&path).unwrap();
        let buffered = Mmap::open_buffered(&std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(mapped.as_bytes(), buffered.as_bytes());
        assert_eq!(buffered.backend(), Backend::Buffered);
        assert_eq!(buffered.backend().label(), "read");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_files_map_to_empty_slices() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_bytes(), b"");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_vec_wraps_in_memory_bytes() {
        let map = Mmap::from_vec(vec![1, 2, 3]);
        assert_eq!(map.as_bytes(), &[1, 2, 3]);
        assert_eq!(map.backend(), Backend::Buffered);
        assert_eq!(format!("{map:?}"), "Mmap { len: 3, backend: \"read\" }");
    }

    #[test]
    fn missing_files_error() {
        assert!(Mmap::open(temp_path("missing-never-created")).is_err());
    }

    #[test]
    fn range_maps_serve_exactly_the_requested_window() {
        let path = temp_path("range");
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        // Unaligned offset, unaligned length, repeated windows through
        // one file handle — the streaming-cursor access pattern.
        for (offset, len) in [(0usize, 4096usize), (4100, 777), (19_000, 1000), (123, 0)] {
            let map = Mmap::map_file_range(&file, offset as u64, len).unwrap();
            assert_eq!(map.as_bytes(), &payload[offset..offset + len]);
            assert_eq!(map.len(), len);
            map.advise(Advice::Sequential);
            map.advise(Advice::WillNeed);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn range_maps_agree_with_the_buffered_fallback() {
        let path = temp_path("range-fallback");
        let payload: Vec<u8> = (0..9000u32).map(|i| (i % 199) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mapped = Mmap::map_file_range(&file, 4097, 2000).unwrap();
        let buffered = Mmap::read_range_buffered(&file, 4097, 2000).unwrap();
        assert_eq!(mapped.as_bytes(), buffered.as_bytes());
        assert_eq!(buffered.backend(), Backend::Buffered);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_windows_are_rejected() {
        let path = temp_path("range-oob");
        std::fs::write(&path, vec![7u8; 100]).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        assert!(Mmap::map_file_range(&file, 50, 51).is_err());
        assert!(Mmap::map_file_range(&file, 101, 0).is_err());
        assert!(Mmap::map_file_range(&file, u64::MAX, 1).is_err());
        assert!(Mmap::map_file_range(&file, 50, 50).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mappings_move_across_threads() {
        let path = temp_path("threads");
        std::fs::write(&path, b"cross-thread bytes").unwrap();
        let map = Mmap::open(&path).unwrap();
        let sum = std::thread::spawn(move || map.as_bytes().iter().map(|b| *b as u64).sum::<u64>())
            .join()
            .unwrap();
        assert!(sum > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
