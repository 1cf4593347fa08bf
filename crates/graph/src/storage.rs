//! Backing storage for CSR sections: owned heap vectors or borrowed
//! read-only memory-mapped windows.
//!
//! [`CsrStorage`] is the abstraction that lets one [`CsrGraph`](crate::CsrGraph)
//! representation serve both construction paths: graphs built in memory
//! own plain `Vec`s, while graphs loaded from an `.smcpack` file (see
//! [`crate::pack`]) borrow 8-byte-aligned windows of a shared mmap and
//! never copy or re-parse the arc arrays. Everything downstream — the
//! solvers, the contraction engine, `DeltaGraph` — reads CSR sections
//! through `Deref<Target = [T]>`, so neither backing is visible past
//! this module.
//!
//! Mutation always lands in owned storage: `CsrStorage::owned` (and
//! the `DerefMut` impl built on it) converts a mapped window into an
//! owned `Vec` by copying once. The only mutation path in the workspace
//! is the contraction engine's in-place rebuild, which clears every
//! section first, so a recycled mapped graph degrades gracefully into
//! an ordinary owned one instead of faulting on a read-only page.
//!
//! The mmap machinery binds `mmap(2)`/`munmap(2)` directly from libc
//! (always linked on unix targets) rather than pulling in a binding
//! crate, and is compiled only where the zero-copy reinterpretation is
//! actually sound: little-endian targets with 64-bit `usize`. Elsewhere
//! the pack loader falls back to the portable owned reader.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Marker for element types that may back a CSR section: plain-old-data
/// scalars whose alignment divides the pack format's 8-byte section
/// alignment, making `&[u8] -> &[T]` reinterpretation of an aligned
/// mmap window sound.
pub trait CsrScalar: Copy + PartialEq + fmt::Debug + 'static {}

impl CsrScalar for u32 {}
impl CsrScalar for u64 {}
impl CsrScalar for usize {}

#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
pub(crate) mod mapped {
    //! Read-only file mappings shared across CSR sections via `Arc`.

    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::marker::PhantomData;
    use std::os::fd::AsRawFd;
    use std::sync::Arc;

    use super::CsrScalar;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A whole file mapped read-only. Unmapped on drop; shared between
    /// the sections of one loaded graph through `Arc`.
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never mutated through this
    // handle; concurrent reads of immutable memory are safe.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps the first `len` bytes of `file` read-only. `len` must be
        /// non-zero and no larger than the file, or reads may fault.
        pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
            debug_assert!(len > 0, "cannot map zero bytes");
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        /// The mapped bytes.
        #[inline]
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr..ptr+len is exactly the live mapping.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        /// Size of the mapping in bytes.
        #[inline]
        pub fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }

    /// A typed window into a shared [`Mmap`]: `len` elements of `T`
    /// starting at byte `offset`.
    pub struct MappedSlice<T: CsrScalar> {
        map: Arc<Mmap>,
        offset: usize,
        len: usize,
        _elem: PhantomData<T>,
    }

    impl<T: CsrScalar> MappedSlice<T> {
        /// Creates a window over `map`. The caller (the pack loader)
        /// must have validated that the window lies inside the mapping
        /// and that `offset` is aligned for `T`; both are re-checked
        /// here so a validator bug cannot escalate into UB.
        pub(crate) fn new(map: Arc<Mmap>, offset: usize, len: usize) -> MappedSlice<T> {
            let bytes = len
                .checked_mul(std::mem::size_of::<T>())
                .expect("mapped window size overflows");
            let end = offset
                .checked_add(bytes)
                .expect("mapped window end overflows");
            assert!(
                end <= map.len(),
                "mapped window {offset}+{bytes} escapes {} mapped bytes",
                map.len()
            );
            assert_eq!(
                (map.as_slice().as_ptr() as usize + offset) % std::mem::align_of::<T>(),
                0,
                "mapped window misaligned for element type"
            );
            MappedSlice {
                map,
                offset,
                len,
                _elem: PhantomData,
            }
        }

        /// The window as a typed slice.
        #[inline]
        pub fn as_slice(&self) -> &[T] {
            // SAFETY: construction checked bounds and alignment; the
            // mapping is immutable and lives as long as the Arc.
            unsafe {
                std::slice::from_raw_parts(
                    self.map.as_slice().as_ptr().add(self.offset) as *const T,
                    self.len,
                )
            }
        }
    }

    impl<T: CsrScalar> Clone for MappedSlice<T> {
        fn clone(&self) -> Self {
            MappedSlice {
                map: Arc::clone(&self.map),
                offset: self.offset,
                len: self.len,
                _elem: PhantomData,
            }
        }
    }
}

/// Storage behind one CSR section: an owned `Vec` or a borrowed window
/// of a shared read-only mmap. Reads go through `Deref<Target = [T]>`;
/// mutation converts to owned first (see `CsrStorage::owned`).
pub enum CsrStorage<T: CsrScalar> {
    /// Heap-allocated, mutable in place.
    Owned(Vec<T>),
    /// Borrowed from a read-only file mapping; copy-on-write.
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    Mapped(mapped::MappedSlice<T>),
}

impl<T: CsrScalar> CsrStorage<T> {
    /// Whether this section borrows a file mapping (as opposed to
    /// owning heap memory).
    #[inline]
    pub fn is_mapped(&self) -> bool {
        match self {
            CsrStorage::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            CsrStorage::Mapped(_) => true,
        }
    }

    /// Mutable access as a `Vec`, converting a mapped window into owned
    /// heap storage by copying once. Rebuild paths call this before any
    /// write, so mapped graphs recycled through the contraction engine
    /// silently become owned.
    #[inline]
    pub(crate) fn owned(&mut self) -> &mut Vec<T> {
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        if let CsrStorage::Mapped(m) = self {
            *self = CsrStorage::Owned(m.as_slice().to_vec());
        }
        match self {
            CsrStorage::Owned(v) => v,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            CsrStorage::Mapped(_) => unreachable!("mapped storage was just converted"),
        }
    }
}

impl<T: CsrScalar> Deref for CsrStorage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            CsrStorage::Owned(v) => v,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            CsrStorage::Mapped(m) => m.as_slice(),
        }
    }
}

impl<T: CsrScalar> DerefMut for CsrStorage<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.owned()
    }
}

impl<T: CsrScalar> From<Vec<T>> for CsrStorage<T> {
    fn from(v: Vec<T>) -> Self {
        CsrStorage::Owned(v)
    }
}

impl<T: CsrScalar> Clone for CsrStorage<T> {
    fn clone(&self) -> Self {
        match self {
            CsrStorage::Owned(v) => CsrStorage::Owned(v.clone()),
            // Cloning a mapped section shares the mapping — cheap, and
            // the clone stays zero-copy.
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            CsrStorage::Mapped(m) => CsrStorage::Mapped(m.clone()),
        }
    }
}

impl<T: CsrScalar> fmt::Debug for CsrStorage<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print as the slice contents, matching what the old derived
        // `Debug` on plain `Vec` fields produced.
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: CsrScalar> PartialEq for CsrStorage<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: CsrScalar + Eq> Eq for CsrStorage<T> {}
