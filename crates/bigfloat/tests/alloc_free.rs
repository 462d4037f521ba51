//! Pins the heap-free oracle hot path: at every precision up to the
//! 320-bit inline limit, `add`, `sub`, `mul` and `round_to` on `Normal`
//! operands allocate nothing — including the mixed `N x 1`-limb
//! products (a wide state times a 53-bit `from_f64` coefficient) that
//! the oracle sweeps run most. Wider values must still work, through
//! the heap.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel cannot disturb each other's counts.

use compstat_bigfloat::{bit_identical, testing, BigFloat, Context};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while this thread's locals are being torn
    // down; those allocations belong to no measurement.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce() -> BigFloat) -> u64 {
    let before = ALLOCS.with(Cell::get);
    drop(std::hint::black_box(f()));
    ALLOCS.with(Cell::get) - before
}

/// A full-width `prec`-bit operand with a nontrivial exponent.
fn operand(prec: u32, x: f64, y: f64) -> BigFloat {
    let ctx = Context::new(prec);
    ctx.div(&BigFloat::from_f64(x), &BigFloat::from_f64(y))
        .mul_pow2(-37)
}

const INLINE_PRECS: [u32; 5] = [53, 128, 192, 256, 320];

#[test]
fn inline_precisions_never_allocate() {
    for prec in INLINE_PRECS {
        let ctx = Context::new(prec);
        let a = operand(prec, 1.0, 3.0);
        let b = operand(prec, -2.0, 7.0);
        let coeff = BigFloat::from_f64(0.123_456_789);
        let cases: [(&str, &dyn Fn() -> BigFloat); 9] = [
            ("add", &|| ctx.add(&a, &b)),
            ("sub", &|| ctx.sub(&a, &b)),
            ("add zero", &|| ctx.add(&BigFloat::zero(), &a)),
            ("mul", &|| ctx.mul(&a, &b)),
            ("mul Nx53", &|| ctx.mul(&a, &coeff)),
            ("mul 53xN", &|| ctx.mul(&coeff, &a)),
            ("add Nx53", &|| ctx.add(&a, &coeff)),
            ("round_to 53", &|| a.round_to(53)),
            ("round_to 320", &|| a.round_to(320)),
        ];
        for (name, op) in cases {
            assert_eq!(allocations(op), 0, "{name} at {prec} bits allocated");
        }
    }
}

#[test]
fn oracle_shapes_never_allocate() {
    // The exact shapes of the forward and PBD oracle inner loops: a
    // 256- or 128-bit state times a 53-bit coefficient, then a sum.
    for prec in [128u32, 256] {
        let ctx = Context::new(prec);
        let state = operand(prec, 5.0, 11.0);
        let coeff = BigFloat::from_f64(0.3);
        assert_eq!(allocations(|| BigFloat::from_f64(0.3)), 0);
        assert_eq!(allocations(|| ctx.mul(&state, &coeff)), 0, "{prec}x53 mul");
        let term = ctx.mul(&state, &coeff);
        assert_eq!(allocations(|| ctx.add(&state, &term)), 0);
        assert_eq!(allocations(|| state.clone()), 0);
    }
}

#[test]
fn wider_values_still_work_through_the_heap() {
    for prec in [321u32, 1024] {
        let ctx = Context::new(prec);
        let a = operand(prec, 1.0, 3.0);
        let b = operand(prec, -2.0, 7.0);
        let coeff = BigFloat::from_f64(0.3);
        let pairs = [
            ("add", ctx.add(&a, &b), testing::add_general(&a, &b, prec)),
            ("sub", ctx.sub(&a, &b), testing::sub_general(&a, &b, prec)),
            ("mul", ctx.mul(&a, &b), testing::mul_general(&a, &b, prec)),
            (
                "mul Nx53",
                ctx.mul(&a, &coeff),
                testing::mul_general(&a, &coeff, prec),
            ),
        ];
        for (name, fast, reference) in pairs {
            assert!(bit_identical(&fast, &reference), "{name} at {prec} bits");
        }
        // Above the inline limit every result owns a heap buffer.
        assert!(allocations(|| ctx.add(&a, &b)) > 0);
        assert!(allocations(|| a.round_to(prec)) > 0);
        // Rounding a wide value down into the inline range does not.
        assert_eq!(allocations(|| a.round_to(256)), 0);
    }
}
