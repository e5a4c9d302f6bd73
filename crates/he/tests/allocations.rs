//! Heap allocations per slot group on Paillier's batched paths, counted on
//! the calling thread: the glue between the exponentiations — noise
//! exponents, packing, `g^m`, the finishing product, the CRT tail, the
//! ciphertext sums — runs on buffers reused across a task, so what is
//! left per group is its ciphertext (encrypt, add) or a share of one
//! output vector (decrypt).
//!
//! A 256-bit key, a one-thread pool (every task runs on this thread, so
//! every allocation is counted), 480 groups. Measured per group, before
//! the glue moved onto caller-owned limbs → after:
//!
//! | path | before | after |
//! |---|---|---|
//! | `encrypt_many_on` | 10.2 | 1.2 |
//! | `decrypt_many_on` | 30.5 | 0.3 |
//! | `try_add` | 2.1 | 1.3 |
//!
//! The bounds leave a margin over "after"; a path that allocates per
//! group again (a `BigUint` per intermediate) lands far above them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vfps_he::scheme::{seeded_uniform, AdditiveHe, PackedPaillier, PaillierHe};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s guarantees carry over; the counter is a const-initialized
// `Cell<usize>` thread-local with no destructor, so touching it here
// neither allocates nor can run after the thread's TLS teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn glue_allocations_per_slot_group_are_bounded() {
    let scheme = PaillierHe::generate(256, 64, 7).unwrap();
    let pool = vfps_par::Pool::with_threads(1);
    let slots = scheme.layout().slots();
    let values = seeded_uniform(1, 480 * slots, 0.0, 9.0);
    let batches: Vec<&[f64]> = values.chunks(64).collect();
    let groups = values.len() / slots;
    let per_group = |count: usize| count as f64 / groups as f64;

    // A first call warms what is built once: the kernel's CPU detection,
    // and the key's sum factors (built by its first sum).
    let warm = scheme.encrypt_many_on(&batches[..1], &pool).unwrap();
    let _ = scheme.try_add(&warm[0], &warm[0]).unwrap();
    let (a, enc) = counted(|| scheme.encrypt_many_on(&batches, &pool).unwrap());
    let b = scheme.encrypt_many_on(&batches, &pool).unwrap();
    let (sums, add) = counted(|| {
        a.iter().zip(&b).map(|(x, y)| scheme.try_add(x, y).unwrap()).collect::<Vec<_>>()
    });
    let asks: Vec<(&PackedPaillier, usize)> = sums.iter().map(|ct| (ct, ct.count())).collect();
    let (plain, dec) = counted(|| scheme.decrypt_many_on(&asks, &pool).unwrap());
    assert_eq!(plain.concat().len(), values.len());

    let (enc, add, dec) = (per_group(enc), per_group(add), per_group(dec));
    println!("allocations per slot group: encrypt {enc:.2}, add {add:.2}, decrypt {dec:.2}");
    assert!(enc <= 2.0, "encrypt_many_on: {enc:.2} allocations per group");
    assert!(add <= 1.5, "try_add: {add:.2} allocations per group");
    assert!(dec <= 0.75, "decrypt_many_on: {dec:.2} allocations per group");
}
