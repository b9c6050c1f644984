//! The KGPS decoder sizes its reservations by the bytes actually present,
//! never by an untrusted count alone. A counting global allocator records
//! the largest single allocation made while decoding tiny snapshots whose
//! counts declare huge structures; each must fail without reserving more
//! than 1 MiB.

use kgpip::Snapshot;
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

const TAG_CENTER: u32 = 2;
const TAG_VOCAB: u32 = 3;
const TAG_GENERATOR: u32 = 4;
const TAG_EMBEDDINGS: u32 = 6;

/// A snapshot holding exactly one section with `payload`.
fn one_section(tag: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Snapshot::MAGIC.to_vec();
    out.extend_from_slice(&Snapshot::FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes `bytes`, which must be rejected, and returns the largest single
/// allocation the decode made.
fn largest_allocation(bytes: &[u8]) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    let failed = Snapshot::from_bytes(bytes).is_err();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(failed, "the inflated snapshot must be rejected");
    largest
}

// One test function, so no concurrently running test in this binary can
// raise the shared maximum.
#[test]
fn inflated_counts_do_not_drive_allocation() {
    let huge = (1u64 << 40).to_le_bytes();

    // A generator section whose only tensor declares u32::MAX × u32::MAX
    // values and carries none.
    let config = serde_json::to_string(&kgpip_graphgen::GeneratorConfig::default()).unwrap();
    let mut generator = Vec::new();
    generator.extend_from_slice(&(config.len() as u64).to_le_bytes());
    generator.extend_from_slice(config.as_bytes());
    generator.extend_from_slice(&1u64.to_le_bytes());
    generator.extend_from_slice(&1u64.to_le_bytes());
    generator.push(b'w');
    generator.extend_from_slice(&u32::MAX.to_le_bytes());
    generator.extend_from_slice(&u32::MAX.to_le_bytes());

    let over: Vec<String> = [
        ("embeddings count", one_section(TAG_EMBEDDINGS, &huge)),
        ("generator tensor", one_section(TAG_GENERATOR, &generator)),
        ("center count", one_section(TAG_CENTER, &huge)),
        ("vocabulary count", one_section(TAG_VOCAB, &huge)),
    ]
    .iter()
    .filter_map(|(what, bytes)| {
        let largest = largest_allocation(bytes);
        (largest > LIMIT).then(|| {
            format!(
                "{what}: decoding {} bytes reserved {largest} bytes",
                bytes.len()
            )
        })
    })
    .collect();
    assert!(over.is_empty(), "{over:#?}");
}
