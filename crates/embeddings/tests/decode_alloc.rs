//! Decoders size their reservations by the bytes actually present, never
//! by an untrusted length prefix alone. A counting global allocator
//! records the largest single allocation made while decoding tiny
//! payloads whose prefixes declare huge structures; each must fail
//! without reserving more than 1 MiB.
//!
//! Both payloads are reachable from a model snapshot: the PQ codebook
//! through the index section's PQ block, the index through the snapshot's
//! index section.

use kgpip_embeddings::pq::PqCodebook;
use kgpip_embeddings::VectorIndex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Largest single allocation (or reallocation) size seen since the last
/// reset. A statistic only — it publishes no other data.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwards the caller's layout unchanged to the system
        // allocator, whose contract the caller already upholds.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LIMIT: usize = 1 << 20;

/// Runs `decode` and returns the largest single allocation it made.
fn largest_allocation(decode: impl FnOnce() -> bool) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    let failed = decode();
    assert!(failed, "the inflated payload must be rejected");
    LARGEST.load(Ordering::Relaxed)
}

// One test function, so no concurrently running test in this binary can
// raise the shared maximum.
#[test]
fn inflated_length_prefixes_do_not_drive_allocation() {
    // 32-byte PQ codebook header: m, dim = 65 536, ksub = 256, rerank,
    // seed, then a codebook length matching ksub × dim — with no values.
    let mut book = Vec::new();
    for v in [1u32, 65_536, 256, 1] {
        book.extend_from_slice(&v.to_le_bytes());
    }
    book.extend_from_slice(&0u64.to_le_bytes());
    book.extend_from_slice(&(256u64 * 65_536).to_le_bytes());
    assert_eq!(book.len(), 32);
    let largest = largest_allocation(|| PqCodebook::from_bytes(&book).is_err());
    assert!(
        largest <= LIMIT,
        "PQ codebook decode reserved {largest} bytes for a 32-byte payload"
    );

    // 8-byte index payload declaring 2^40 entries.
    let index = (1u64 << 40).to_le_bytes();
    let largest = largest_allocation(|| VectorIndex::from_bytes(&index).is_err());
    assert!(
        largest <= LIMIT,
        "index decode reserved {largest} bytes for an 8-byte payload"
    );
}
