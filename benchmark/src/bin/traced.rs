//! Traced runs: the same code behind an allocator that counts heap
//! acquisitions, for the `*.allocs_per_*` layer metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting `alloc`, `alloc_zeroed` and `realloc` calls.
struct Counting;

// SAFETY: every operation is passed to `System` unchanged; the only
// addition is a relaxed counter increment, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn acquisitions() -> u64 {
    ACQUISITIONS.load(Ordering::Relaxed)
}

fn main() -> std::process::ExitCode {
    wirebench::cli::main(wirebench::env::Allocator::Counting, acquisitions)
}
