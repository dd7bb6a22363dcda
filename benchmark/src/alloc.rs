//! A byte-counting wrapper around the system allocator, so the traced
//! pass can report what `Network::new` keeps allocated per router as an
//! exact, repeatable count. Counting is off except inside
//! [`live_bytes_of`]; when off, every allocation costs one relaxed load
//! of a flag no one is writing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

/// The system allocator plus an on-demand live-byte counter.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    // Relaxed: a statistic that publishes no other data.
    if ON.load(Relaxed) {
        LIVE.fetch_add(delta, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which only ever hands
        // out `System` pointers, with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the net bytes it left allocated
/// (allocated minus freed while it ran, on any thread).
pub fn live_bytes_of<T>(f: impl FnOnce() -> T) -> (T, i64) {
    LIVE.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    (out, LIVE.load(Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_what_stays_allocated() {
        // Other tests allocate concurrently, so only a lower bound holds.
        let (kept, bytes) = live_bytes_of(|| vec![0u8; 1 << 20]);
        assert!(bytes >= 1 << 20, "{bytes}");
        drop(kept);
    }
}
