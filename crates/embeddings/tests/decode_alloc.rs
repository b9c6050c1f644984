//! Decoders size their reservations by the bytes actually present, never
//! by an untrusted length prefix alone, and a decoded index never sizes a
//! reservation by an untrusted parameter. A counting global allocator
//! records the largest single allocation made while decoding a tiny
//! payload whose prefix declares a huge structure (it must fail), and
//! while registering into a decoded graph whose `m` is forged; neither
//! may reserve more than 1 MiB.
//!
//! Both payloads are reachable from a model snapshot's index section,
//! and the forged graph from `kgpip-serve`'s online registration.

use kgpip_embeddings::{HnswConfig, VectorIndex};
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

/// Runs `work` and returns the largest single allocation it made.
fn largest_allocation(work: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    work();
    LARGEST.load(Ordering::Relaxed)
}

// One test function, so no concurrently running test in this binary can
// raise the shared maximum.
#[test]
fn untrusted_sizes_do_not_drive_allocation() {
    // 8-byte index payload declaring 2^40 entries.
    let index = (1u64 << 40).to_le_bytes();
    let largest = largest_allocation(|| {
        assert!(
            VectorIndex::from_bytes(&index).is_err(),
            "the inflated payload must be rejected"
        );
    });
    assert!(
        largest <= LIMIT,
        "index decode reserved {largest} bytes for an 8-byte payload"
    );

    // A valid 24-vector HNSW index section whose graph declares
    // `m = 2^40`: it decodes, and one registration must not reserve
    // `m` neighbor slots.
    let vectors: Vec<Vec<f64>> = (0..24)
        .map(|i| (0..6).map(|d| ((i * 6 + d) as f64 * 0.47).sin()).collect())
        .collect();
    let mut exact = VectorIndex::new();
    for (i, v) in vectors.iter().enumerate() {
        exact.add(format!("ds{i}"), v.clone());
    }
    let mut hnsw = exact.clone();
    hnsw.build_hnsw(HnswConfig::default());
    let mut bytes = hnsw.to_bytes();
    // Catalog entries, the IVF slot, the HNSW tag and its u64 length;
    // the graph payload opens with `m`.
    let at = exact.to_bytes().len() - 3 + 1 + 1 + 8;
    bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let mut forged = VectorIndex::from_bytes(&bytes).unwrap();
    let largest = largest_allocation(|| forged.register("probe", vectors[3].clone()));
    assert_eq!(forged.len(), 25);
    assert!(
        largest <= LIMIT,
        "registering into a graph with a forged m reserved {largest} bytes"
    );
}
