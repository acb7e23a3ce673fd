//! The flat `f32` buffer an [`crate::embedding::EmbeddingTable`] keeps its
//! rows in.
//!
//! A gather reads 128-byte rows scattered over a table far larger than any
//! cache, so nearly every row is also a TLB miss; on 4 KB pages under nested
//! paging those misses were a third of a gather-bound call on the reference
//! host. A store of at least one huge page therefore maps its own anonymous,
//! 2 MB-aligned region on Linux and asks for transparent huge pages on it
//! *before* the first row is written, so the first touch of each 2 MB extent
//! faults in one huge page. Where the kernel declines (THP `never`, an old
//! kernel) the region is ordinary anonymous memory and behaves as a heap
//! buffer would. Smaller stores, other platforms and Miri use the heap.
//!
//! The backing follows from the store's byte size and the platform alone.

use std::fmt;
use std::ops::Deref;

/// The huge-page size the mapped backing aligns to, and the smallest store
/// (in bytes) that gets a mapping of its own.
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// An immutable-once-built, zero-initialised `[f32]` of fixed length.
pub(crate) struct RowStore(Backing);

enum Backing {
    Heap(Box<[f32]>),
    Mapped(mapped::Mapping),
}

impl RowStore {
    /// A store of `len` zeros.
    ///
    /// # Panics
    ///
    /// Panics when `len` elements exceed `isize::MAX` bytes, as `Vec` does
    /// on capacity overflow.
    pub(crate) fn zeroed(len: usize) -> Self {
        let bytes = len
            .checked_mul(std::mem::size_of::<f32>())
            .filter(|&bytes| bytes <= isize::MAX as usize)
            .unwrap_or_else(|| {
                panic!("row store of {len} f32 elements overflows isize::MAX bytes")
            });
        if bytes >= HUGE_PAGE_BYTES {
            // A refused mapping (address space, map count) falls through to
            // the heap, which reports exhaustion the way `Vec` always has.
            if let Some(mapping) = mapped::Mapping::zeroed(len, bytes) {
                return RowStore(Backing::Mapped(mapping));
            }
        }
        RowStore(Backing::Heap(vec![0.0; len].into_boxed_slice()))
    }

    /// Write access for the constructor that fills the store in place; a
    /// store behind an `Arc` is never written again.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        match &mut self.0 {
            Backing::Heap(buf) => buf,
            Backing::Mapped(mapping) => mapping.as_mut_slice(),
        }
    }

    /// Whether the store owns a mapping (as opposed to a heap buffer).
    #[cfg(test)]
    fn is_mapped(&self) -> bool {
        !matches!(self.0, Backing::Heap(_))
    }
}

impl Deref for RowStore {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        match &self.0 {
            Backing::Heap(buf) => buf,
            Backing::Mapped(mapping) => mapping.as_slice(),
        }
    }
}

impl fmt::Debug for RowStore {
    /// Length and backing only: a table's worth of elements is no use in a
    /// debug dump.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let backing = match self.0 {
            Backing::Heap(_) => "heap",
            Backing::Mapped(_) => "mapped",
        };
        f.debug_struct("RowStore")
            .field("len", &self.len())
            .field("backing", &backing)
            .finish()
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
mod mapped {
    //! The anonymous-mapping backing. The workspace vendors no `libc`, so
    //! the four calls are declared here with the constants of the Linux
    //! x86-64 and AArch64 ABIs (the two `cfg` admits).

    use super::HUGE_PAGE_BYTES;
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;
    const SC_PAGESIZE: c_int = 30;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn sysconf(name: c_int) -> c_long;
    }

    /// An owned, private, anonymous, read-write mapping of `extent` bytes at
    /// a 2 MB-aligned address, viewed as `len` `f32`s.
    pub(super) struct Mapping {
        ptr: NonNull<f32>,
        len: usize,
        /// Bytes mapped at `ptr`: `len * 4` rounded up to the page size.
        extent: usize,
    }

    // SAFETY: `Mapping` owns its region exclusively (nothing else holds the
    // address), exposes it only as `&[f32]` through `&self` and `&mut [f32]`
    // through `&mut self`, and has no interior mutability, so moving it to
    // another thread moves sole ownership of plain memory.
    unsafe impl Send for Mapping {}
    // SAFETY: as above — `&Mapping` hands out only shared `&[f32]` views of
    // memory nobody can write while the borrow lives; `f32` is `Sync`.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps a zero-filled region for `len` elements (`bytes == len * 4`,
        /// at most `isize::MAX`, checked by the caller). `None` when the
        /// kernel refuses the mapping.
        pub(super) fn zeroed(len: usize, bytes: usize) -> Option<Self> {
            debug_assert_eq!(Some(bytes), len.checked_mul(4));
            // SAFETY: `sysconf` reads a constant of the running system and
            // touches no memory of ours.
            let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).ok()?;
            if !page.is_power_of_two() || page > HUGE_PAGE_BYTES {
                return None;
            }
            let extent = bytes.checked_next_multiple_of(page)?;
            // One huge page of slack lets a 2 MB-aligned `extent` be cut out
            // of wherever the kernel places the region.
            let span = extent.checked_add(HUGE_PAGE_BYTES)?;
            // SAFETY: a fresh anonymous private mapping at a kernel-chosen
            // address (null hint, no MAP_FIXED) aliases no existing memory;
            // fd -1 and offset 0 are what MAP_ANONYMOUS requires.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    span,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base as isize == -1 {
                return None;
            }
            let base = base.cast::<u8>();
            // `base` is page-aligned and `page` divides 2 MB, so `head` and
            // `tail` are whole pages; head < 2 MB leaves tail >= one page.
            let head = (base as usize).next_multiple_of(HUGE_PAGE_BYTES) - base as usize;
            let tail = span - head - extent;
            // SAFETY: `head + extent + tail == span`, so `start` and the
            // two trimmed ranges lie inside the region mapped above, which
            // this function still owns outright; both ranges are
            // page-aligned and disjoint from the `extent` bytes kept. A
            // refused trim (map-count limit) only leaves untouched address
            // space mapped, so its result is ignored.
            let start = unsafe {
                if head > 0 {
                    munmap(base.cast(), head);
                }
                let start = base.add(head);
                munmap(start.add(extent).cast(), tail);
                start
            };
            // SAFETY: the advised range is the whole-2 MB prefix of the
            // `extent` bytes this function owns at 2 MB-aligned `start`. The
            // advice changes only how the kernel backs the pages, never
            // their contents; a refusal (THP `never`, no THP support) leaves
            // ordinary 4 KB pages, so the result is ignored.
            unsafe {
                madvise(
                    start.cast(),
                    bytes / HUGE_PAGE_BYTES * HUGE_PAGE_BYTES,
                    MADV_HUGEPAGE,
                );
            }
            Some(Mapping {
                ptr: NonNull::new(start.cast::<f32>())?,
                len,
                extent,
            })
        }

        pub(super) fn as_slice(&self) -> &[f32] {
            // SAFETY: `ptr` is 2 MB-aligned (so `f32`-aligned) and heads
            // `extent >= len * 4` mapped read-write bytes that live until
            // `drop`; `len * 4 <= isize::MAX`; anonymous pages read as zero
            // until written and every bit pattern is a valid `f32`; no
            // `&mut` view exists while `&self` is borrowed.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [f32] {
            // SAFETY: same bounds, alignment and initialisation as
            // `as_slice`; `&mut self` makes this the only view.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr .. ptr + extent` is exactly what `zeroed` kept
            // mapped, page-aligned at both ends, and `&mut self` in `drop`
            // proves no slice borrowed from it is alive. A failure would
            // only leak the region, so the result is ignored (and `drop`
            // must not panic).
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.extent);
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
mod mapped {
    //! No mapped backing here: `Mapping` has no values, so every store is a
    //! heap buffer and the `Mapped` arms compile to nothing.

    pub(super) enum Mapping {}

    impl Mapping {
        pub(super) fn zeroed(_len: usize, _bytes: usize) -> Option<Self> {
            None
        }

        pub(super) fn as_slice(&self) -> &[f32] {
            match *self {}
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [f32] {
            match *self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUGE_PAGE_ELEMS: usize = HUGE_PAGE_BYTES / std::mem::size_of::<f32>();

    #[test]
    fn zeroed_stores_read_zero_and_take_writes_at_every_length() {
        // Miri runs the heap backing only; keep it to sizes it can walk.
        let lens: &[usize] = if cfg!(miri) {
            &[0, 1, 7, 1000]
        } else {
            &[
                0,
                1,
                HUGE_PAGE_ELEMS - 1,
                HUGE_PAGE_ELEMS,
                HUGE_PAGE_ELEMS + 1,
                2 * HUGE_PAGE_ELEMS + 12_345,
            ]
        };
        for &len in lens {
            let mut store = RowStore::zeroed(len);
            assert_eq!(store.len(), len);
            assert!(store.iter().all(|&x| x.to_bits() == 0), "len {len}");
            for (i, x) in store.as_mut_slice().iter_mut().enumerate() {
                *x = i as f32;
            }
            assert!(
                store.iter().enumerate().all(|(i, &x)| x == i as f32),
                "len {len}"
            );
        }
    }

    #[test]
    fn backing_follows_size_and_platform() {
        let mappable = cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64"),
            not(miri)
        ));
        assert!(!RowStore::zeroed(0).is_mapped());
        if cfg!(miri) {
            return;
        }
        assert!(!RowStore::zeroed(HUGE_PAGE_ELEMS - 1).is_mapped());
        let store = RowStore::zeroed(HUGE_PAGE_ELEMS);
        assert_eq!(store.is_mapped(), mappable);
        if mappable {
            assert_eq!(store.as_ptr() as usize % HUGE_PAGE_BYTES, 0);
        }
        let dump = format!("{store:?}");
        assert!(dump.contains(&format!("len: {HUGE_PAGE_ELEMS}")), "{dump}");
    }

    #[test]
    #[should_panic(expected = "overflows isize::MAX bytes")]
    fn oversized_store_panics_before_allocating() {
        let _ = RowStore::zeroed(usize::MAX / 2);
    }
}
