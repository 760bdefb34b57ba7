//! Pins the allocation-free contract of the Levenberg–Marquardt core: with a
//! prebuilt [`LmWorkspace`], a full `levenberg_marquardt_into` run — every
//! iteration, Jacobian fill, normal-equation solve and trial step — performs
//! zero heap allocation.
//!
//! A counting global allocator wraps the system allocator. Counting is armed
//! per thread: only allocations made by the thread running the measured fit
//! are counted, so work on sibling test threads (the harness runs tests
//! concurrently) can never land inside the counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use estima_core::levenberg::{levenberg_marquardt_into, Jacobian, LmOptions, LmWorkspace};
use estima_core::KernelKind;

struct CountingAllocator;

thread_local! {
    /// True while this thread is inside a counted window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while armed.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation if the calling thread is armed. `try_with` keeps the
/// allocator usable while thread-local storage is being torn down.
fn record_allocation() {
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
}

/// Run `f` with allocation counting armed on the calling thread only, and
/// return its result together with the number of allocations it made.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCATIONS.with(|count| count.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (result, ALLOCATIONS.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn series(kernel: KernelKind, params: &[f64], n: u32) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (1..=n).map(f64::from).collect();
    let ys: Vec<f64> = xs.iter().map(|x| kernel.eval(params, *x)).collect();
    (xs, ys)
}

#[test]
fn counting_sees_only_the_measuring_thread() {
    // A sibling thread allocates throughout the counted window — the window
    // waits until it has seen 100 more sibling allocations — and must not be
    // attributed; the measuring thread's own allocation must be.
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicUsize::new(0));
    let sibling = {
        let (stop, progress) = (Arc::clone(&stop), Arc::clone(&progress));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::hint::black_box(vec![0u8; 64]);
                progress.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let ((), quiet) = count_allocations(|| {
        let start = progress.load(Ordering::SeqCst);
        while progress.load(Ordering::SeqCst) < start + 100 {
            std::thread::yield_now();
        }
    });
    let (_, own) = count_allocations(|| std::hint::black_box(vec![1u8; 16]));
    stop.store(true, Ordering::SeqCst);
    sibling.join().unwrap();
    assert_eq!(quiet, 0, "a sibling thread's allocations were attributed");
    assert_eq!(own, 1, "the measuring thread's allocation was missed");
}

#[test]
fn lm_with_prebuilt_workspace_never_allocates() {
    // A Rat33 fit exercises the largest parameter count (7) the pipeline has.
    let kernel = KernelKind::Rat33;
    let truth = [30.0, 8.0, 1.0, 0.05, 0.1, 0.01, 0.001];
    let (xs, ys) = series(kernel, &truth, 12);
    // Deliberately offset initial guess so the optimiser has real work to do.
    let initial = [20.0, 6.0, 0.8, 0.04, 0.08, 0.008, 0.0008];
    let options = LmOptions::default();
    let mut workspace = LmWorkspace::with_capacity(xs.len(), initial.len());

    // Warm-up run: faults in any lazily initialised state and proves the fit
    // succeeds before the counted run.
    let mut params = initial;
    levenberg_marquardt_into(&kernel, &xs, &ys, &mut params, &options, &mut workspace)
        .expect("warm-up fit");

    let mut params = initial;
    let (stats, allocations) = count_allocations(|| {
        levenberg_marquardt_into(&kernel, &xs, &ys, &mut params, &options, &mut workspace)
    });
    let stats = stats.expect("counted fit");

    assert_eq!(
        allocations, 0,
        "levenberg_marquardt_into allocated {allocations} time(s) despite a prebuilt workspace"
    );
    assert!(stats.iterations >= 1);
    assert!(stats.residual_norm.is_finite(), "fit diverged: {stats:?}");
}

#[test]
fn finite_difference_mode_is_also_allocation_free() {
    // The verification oracle shares the same workspace discipline.
    let kernel = KernelKind::Rat22;
    let truth = [50.0, 10.0, 2.0, 0.05, 0.001];
    let (xs, ys) = series(kernel, &truth, 12);
    let initial = [40.0, 8.0, 1.5, 0.04, 0.002];
    let options = LmOptions {
        jacobian: Jacobian::FiniteDifference,
        ..LmOptions::default()
    };
    let mut workspace = LmWorkspace::with_capacity(xs.len(), initial.len());

    let mut params = initial;
    levenberg_marquardt_into(&kernel, &xs, &ys, &mut params, &options, &mut workspace)
        .expect("warm-up fit");

    let mut params = initial;
    let (result, allocations) = count_allocations(|| {
        levenberg_marquardt_into(&kernel, &xs, &ys, &mut params, &options, &mut workspace)
    });
    result.expect("counted fit");
    assert_eq!(allocations, 0, "FD mode allocated {allocations}");
}
