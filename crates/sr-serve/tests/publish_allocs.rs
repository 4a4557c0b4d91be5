//! Heap allocations of the publish path.
//!
//! A snapshot keeps every per-group table flat — bitmap words, one dense
//! feature table, CSR adjacency — so building one from an accepted outcome
//! and encoding it to v2 bytes costs a fixed number of allocations, not a
//! few per group. This file installs a counting global allocator and holds
//! `Snapshot::build` + `snapshot_to_bytes_v2` on an outcome of more than
//! 10,000 groups to a small constant. `ci.sh` runs it at `SR_THREADS=1`
//! and `SR_THREADS=4` with the rest of the workspace: the parallel
//! adjacency pass allocates per thread, not per group, too.

use sr_core::repartition;
use sr_grid::GridDataset;
use sr_serve::{snapshot_to_bytes_v2, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts every allocation and reallocation while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn tally() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made (on any thread) while `f` runs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), out)
}

/// A 120×120 grid of hashed values with a few null cells: at a tight
/// budget nearly every cell stays its own group.
fn rough_grid() -> GridDataset {
    let (rows, cols) = (120, 120);
    let values: Vec<f64> = (1..=(rows * cols) as u64)
        .map(|i| 10.0 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / (1u64 << 24) as f64)
        .collect();
    let mut grid = GridDataset::univariate(rows, cols, values).unwrap();
    for id in (0..(rows * cols) as u32).step_by(97) {
        grid.set_null(id);
    }
    grid
}

#[test]
fn build_and_encode_allocations_do_not_scale_with_groups() {
    let grid = rough_grid();
    let theta = 0.02;
    let outcome = repartition(&grid, theta).unwrap();
    let rep = &outcome.repartitioned;
    assert!(rep.num_groups() >= 10_000, "only {} groups", rep.num_groups());

    let publish = || snapshot_to_bytes_v2(&Snapshot::build(rep, &grid, theta).unwrap());
    // Warm-up: first use of the global pool spawns its workers.
    let expected = publish();
    let (allocations, bytes) = allocations_of(publish);
    assert_eq!(bytes, expected);
    assert!(
        allocations <= 64,
        "{allocations} allocations to build and encode {} groups",
        rep.num_groups()
    );
}
