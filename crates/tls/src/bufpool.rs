//! A small per-thread free list of connection byte buffers.
//!
//! A scan (or a load generator) opens a fresh connection per probe, and
//! each connection grows a few tens of KiB of buffers: the record layer's
//! reassembly buffer, the outgoing wire buffer and the decrypted
//! application data. Freeing them when the connection drops lets the
//! allocator hand that memory back to the kernel, and the next connection
//! page-faults it in again. [`PooledBuf`] keeps the grown buffers on a
//! bounded thread-local list instead, so the next connection on the same
//! thread reuses them.
//!
//! Every buffer is zeroed over its used prefix (up to the longest length
//! it reached) when it is released, whether it goes back on the list or
//! is freed: decrypted record plaintext never outlives its connection,
//! neither in a pooled buffer nor in freed heap. Two fixed bounds keep the
//! list from pinning memory: at most [`MAX_POOLED`] buffers per thread,
//! and none with a capacity above [`MAX_CAPACITY`], so a peer that makes
//! one connection grow a huge buffer cannot keep it alive past that
//! connection.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Buffers kept per thread: the three of a client and a server
/// connection, so a thread that drives both ends of one pair reuses all
/// six.
const MAX_POOLED: usize = 6;

/// Largest capacity kept on the list. A 40 KB echo grows each buffer to
/// 64 KiB; anything above this is freed (after zeroing) instead.
const MAX_CAPACITY: usize = 128 * 1024;

thread_local! {
    // Released buffers, each zeroed over its used prefix. The length is
    // that prefix, so the zeroing is visible until the buffer is taken.
    static FREE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A byte buffer taken from the thread's free list and returned to it
/// (zeroed) on drop. It derefs to `Vec<u8>`.
///
/// The high-water mark is sampled each time the vector is borrowed
/// mutably, so every mutable borrow must either only grow or only shrink
/// the vector: a borrow that grows it and then shrinks it again would hide
/// the grown bytes from the zeroing on release. `extend_from_slice`,
/// `clear`, `drain` and passing `&mut Vec<u8>` to an appending writer all
/// qualify.
pub(crate) struct PooledBuf {
    vec: Vec<u8>,
    /// Longest length `vec` is known to have reached.
    high_water: usize,
}

impl PooledBuf {
    /// An empty buffer, reusing a released one from this thread if any.
    pub(crate) fn take() -> Self {
        let vec = FREE
            .try_with(|free| free.borrow_mut().pop())
            .ok()
            .flatten()
            .map(|mut vec| {
                vec.clear();
                vec
            })
            .unwrap_or_default();
        PooledBuf { vec, high_water: 0 }
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.high_water = self.high_water.max(self.vec.len());
        &mut self.vec
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let mut vec = std::mem::take(&mut self.vec);
        let used = self.high_water.max(vec.len());
        // `used` never exceeds the capacity (it was a length of this
        // vector), so this rewrites the used prefix in place.
        vec.clear();
        vec.resize(used, 0);
        if vec.capacity() > MAX_CAPACITY {
            return release_to_heap(vec);
        }
        // A pooled buffer stays reachable, so the zeroing above cannot be
        // elided. The list is gone during thread teardown; the buffer is
        // freed then, like one that finds the list full.
        let mut vec = Some(vec);
        let _ = FREE.try_with(|free| {
            let mut free = free.borrow_mut();
            if free.len() < MAX_POOLED {
                free.extend(vec.take());
            }
        });
        if let Some(vec) = vec {
            release_to_heap(vec);
        }
    }
}

/// Free a buffer already zeroed over its length, zeroing it once more
/// through volatile stores so the compiler cannot drop the zeroing as a
/// dead store before the free.
fn release_to_heap(mut vec: Vec<u8>) {
    ts_crypto::wipe::wipe_bytes(&mut vec);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled() -> Vec<Vec<u8>> {
        FREE.with(|free| free.borrow().clone())
    }

    /// Libtest runs each test on its own thread, so every test starts
    /// with an empty list; drain it anyway in case that ever changes.
    fn empty_list() {
        FREE.with(|free| free.borrow_mut().clear());
    }

    #[test]
    fn released_buffer_is_zeroed_over_its_used_prefix() {
        empty_list();
        let mut buf = PooledBuf::take();
        buf.extend_from_slice(&[0xa5; 3000]);
        buf.drain(..1000);
        buf.extend_from_slice(b"plaintext");
        buf.clear();
        buf.extend_from_slice(b"short");
        let addr = buf.as_ptr();
        drop(buf);

        let list = pooled();
        assert_eq!(list.len(), 1);
        assert_eq!(
            list[0].len(),
            3000,
            "the high-water mark, not the last length"
        );
        assert!(list[0].iter().all(|&b| b == 0), "used prefix zeroed");

        let again = PooledBuf::take();
        assert_eq!(again.as_ptr(), addr, "the same allocation comes back");
        assert!(again.is_empty());
        assert!(pooled().is_empty());
    }

    #[test]
    fn list_never_exceeds_its_cap() {
        empty_list();
        let bufs: Vec<PooledBuf> = (0..MAX_POOLED + 3)
            .map(|i| {
                let mut b = PooledBuf::take();
                b.extend_from_slice(&vec![i as u8 + 1; 100]);
                b
            })
            .collect();
        drop(bufs);
        let list = pooled();
        assert_eq!(list.len(), MAX_POOLED);
        assert!(list
            .iter()
            .all(|v| v.len() == 100 && v.iter().all(|&b| b == 0)));
    }

    #[test]
    fn oversize_buffer_is_not_kept() {
        empty_list();
        let mut big = PooledBuf::take();
        big.extend_from_slice(&vec![7; MAX_CAPACITY + 1]);
        drop(big);
        assert!(pooled().is_empty());

        let mut at_cap = PooledBuf::take();
        at_cap.reserve_exact(MAX_CAPACITY);
        at_cap.extend_from_slice(&vec![7; MAX_CAPACITY]);
        drop(at_cap);
        assert_eq!(pooled().len(), 1, "a buffer at the cap is kept");
    }

    #[test]
    fn buffers_dropped_on_another_thread_join_that_threads_list() {
        empty_list();
        let mut buf = PooledBuf::take();
        buf.extend_from_slice(b"secret");
        std::thread::spawn(move || {
            drop(buf);
            assert_eq!(pooled(), vec![vec![0u8; 6]]);
        })
        .join()
        .unwrap();
        assert!(pooled().is_empty());
    }
}
