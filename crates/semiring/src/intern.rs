//! A reusable string-interning pool: append-only, process-global, with
//! a lock-free per-thread memo in front and a lock-free name table
//! behind.
//!
//! Both [`crate::Var`] and `axml_uxml`'s `Label` intern names into
//! pools of this shape so they can be `Copy` 4-byte ids. Each pool is
//! its own set of statics (a `thread_local!` cannot be parameterized
//! per instance), so the pool is generated by the
//! `define_intern_pool!` macro rather than shared as a struct — one
//! implementation, expanded once per pool. The id → name side is a
//! plain [`NameTable`], which every expansion instantiates once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Slots in a [`NameTable`]'s first chunk (a power of two); chunk `c`
/// holds `FIRST_CHUNK << c` slots.
const FIRST_CHUNK_BITS: u32 = 6;
const FIRST_CHUNK: u64 = 1 << FIRST_CHUNK_BITS;
/// Chunks enough for every `u32` id: ids `0..2^32` span chunks
/// `0..=32 - FIRST_CHUNK_BITS`.
const CHUNKS: usize = (33 - FIRST_CHUNK_BITS) as usize;

/// Chunk and offset of an id: the chunks double in size, so id `i`
/// lives in chunk `⌊log2(i + FIRST_CHUNK)⌋ - FIRST_CHUNK_BITS`.
fn slot_of(id: u32) -> (usize, usize) {
    let n = u64::from(id) + FIRST_CHUNK;
    let chunk = 63 - n.leading_zeros() - FIRST_CHUNK_BITS;
    (chunk as usize, (n - (FIRST_CHUNK << chunk)) as usize)
}

/// The read side of an intern pool: an append-only id → name table
/// that readers consult without any lock.
///
/// Names live in lazily allocated chunks of doubling size, each slot a
/// `OnceLock<&'static str>`. A published slot never changes and a
/// chunk is never freed or moved, so [`NameTable::get`] is two acquire
/// loads (the chunk, then the slot) and an index — no lock, no shared
/// cache line written. The pool publishes each name *before* its id is
/// handed out, so every id a thread obtained through the pool resolves
/// here; [`NameTable::get`] returning `None` only means the id was
/// passed along without a happens-before edge, and the pool's lock
/// path supplies one.
pub struct NameTable {
    chunks: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNKS],
    count: AtomicUsize,
}

impl NameTable {
    /// An empty table (`const`, so it can back a `static`).
    pub const fn new() -> Self {
        NameTable {
            chunks: [const { OnceLock::new() }; CHUNKS],
            count: AtomicUsize::new(0),
        }
    }

    /// The name published under `id`, if this thread can see it.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&'static str> {
        let (chunk, off) = slot_of(id);
        self.chunks[chunk].get()?[off].get().copied()
    }

    /// Publish `name` under `id`. Ids must be published densely and
    /// in order, one writer at a time (the pool's write lock).
    pub fn publish(&self, id: u32, name: &'static str) {
        let (chunk, off) = slot_of(id);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        assert!(
            slots[off].set(name).is_ok(),
            "intern id {id} published twice"
        );
        self.count.store(id as usize + 1, Ordering::Release);
    }

    /// Names published so far — the pool's size, for stats gauges.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }
}

impl Default for NameTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Define a string-interning pool in the enclosing module:
///
/// - `fn intern_name(&str) -> u32` — id of the name, interning it on
///   first sight. Repeated interning of the same name on the same
///   thread is lock-free (per-thread memo); the slow path takes the
///   pool's `RwLock` read side, and only a genuinely new name takes
///   the write side.
/// - `fn interned_name(u32) -> &'static str` — the name for an id
///   produced by `intern_name`. Lock-free: a [`NameTable`] lookup.
/// - `fn interned_count() -> usize` — how many names the pool holds.
///
/// Ids are assigned densely from 0 in interning order and are stable
/// for the life of the process. Names are leaked (they live forever),
/// which is what makes `interned_name` allocation-free and the handles
/// `Copy`.
#[macro_export]
macro_rules! define_intern_pool {
    () => {
        struct InternPool {
            index: std::collections::HashMap<&'static str, u32>,
        }

        fn intern_pool() -> &'static std::sync::RwLock<InternPool> {
            static POOL: std::sync::OnceLock<std::sync::RwLock<InternPool>> =
                std::sync::OnceLock::new();
            POOL.get_or_init(|| {
                std::sync::RwLock::new(InternPool {
                    index: std::collections::HashMap::new(),
                })
            })
        }

        /// The pool's lock-free read side: every id's name, published
        /// under the write lock before the id is returned.
        static NAMES: $crate::intern::NameTable = $crate::intern::NameTable::new();

        thread_local! {
            // Lock-free fast path for repeated interning of the same
            // names (annotation- and node-heavy loops intern per
            // element): a per-thread memo of the global pool. Entries
            // are only ever copied out of the pool, so the two can
            // never disagree.
            static LOCAL_INDEX: std::cell::RefCell<
                std::collections::HashMap<&'static str, u32>,
            > = std::cell::RefCell::new(std::collections::HashMap::new());
        }

        /// Intern `name`, returning its stable dense id.
        fn intern_name(name: &str) -> u32 {
            if let Some(id) = LOCAL_INDEX.with(|m| m.borrow().get(name).copied()) {
                return id;
            }
            let hit = {
                let p = intern_pool().read().expect("intern pool lock poisoned");
                p.index.get_key_value(name).map(|(&l, &i)| (l, i))
            };
            let (leaked, id) = hit.unwrap_or_else(|| {
                let mut p = intern_pool().write().expect("intern pool lock poisoned");
                if let Some(found) = p.index.get_key_value(name).map(|(&l, &i)| (l, i)) {
                    found
                } else {
                    let id = u32::try_from(p.index.len()).expect("intern pool exhausted");
                    // Names live for the process lifetime; leaking makes
                    // lookups allocation-free and lets handles be Copy.
                    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
                    NAMES.publish(id, leaked);
                    p.index.insert(leaked, id);
                    (leaked, id)
                }
            });
            LOCAL_INDEX.with(|m| m.borrow_mut().insert(leaked, id));
            id
        }

        /// The interned name for an id produced by `intern_name`.
        #[inline]
        fn interned_name(id: u32) -> &'static str {
            NAMES.get(id).unwrap_or_else(|| {
                // An id that reached this thread without synchronizing
                // with its publisher: the lock supplies the edge.
                let _sync = intern_pool().read().expect("intern pool lock poisoned");
                NAMES.get(id).expect("id was never interned")
            })
        }

        /// Names interned so far (they are never freed). Not every
        /// pool reports this — hence the allow.
        #[allow(dead_code)]
        fn interned_count() -> usize {
            NAMES.count()
        }

        /// Read-only probe: the id of `name` if it has ever been
        /// interned, without interning it (and without leaking pool
        /// memory for a miss). Not every pool needs this — hence the
        /// allow.
        #[allow(dead_code)]
        fn probe_name(name: &str) -> Option<u32> {
            if let Some(id) = LOCAL_INDEX.with(|m| m.borrow().get(name).copied()) {
                return Some(id);
            }
            intern_pool()
                .read()
                .expect("intern pool lock poisoned")
                .index
                .get(name)
                .copied()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_tile_the_id_space() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(63), (0, 63));
        assert_eq!(slot_of(64), (1, 0));
        assert_eq!(slot_of(191), (1, 127));
        assert_eq!(slot_of(192), (2, 0));
        assert_eq!(slot_of(u32::MAX), (CHUNKS - 1, 63));
        // Consecutive ids walk each chunk to its end, then start the
        // next one at offset 0.
        let mut prev = slot_of(0);
        for id in 1..5000u32 {
            let s = slot_of(id);
            if s.0 == prev.0 {
                assert_eq!(s.1, prev.1 + 1, "id {id}");
            } else {
                assert_eq!((s.0, s.1), (prev.0 + 1, 0), "id {id}");
                assert_eq!(prev.1 as u64 + 1, FIRST_CHUNK << prev.0, "id {id}");
            }
            prev = s;
        }
    }

    #[test]
    fn concurrent_publish_and_get_agree() {
        // One writer publishes densely (as the pool's write lock
        // serializes it) while three readers resolve every id they
        // have seen published — including the ids on each chunk
        // boundary (63/64, 191/192, 447/448, …).
        static TABLE: NameTable = NameTable::new();
        const N: u32 = 3000;
        std::thread::scope(|s| {
            s.spawn(|| {
                for id in 0..N {
                    TABLE.publish(id, Box::leak(format!("n{id}").into_boxed_str()));
                }
            });
            for _ in 0..3 {
                s.spawn(|| {
                    let mut seen = 0;
                    while seen < N as usize {
                        let count = TABLE.count();
                        for id in seen..count {
                            let id = id as u32;
                            assert_eq!(TABLE.get(id), Some(&*format!("n{id}")));
                        }
                        seen = count;
                    }
                });
            }
        });
        assert_eq!(TABLE.count(), N as usize);
        assert_eq!(TABLE.get(N), None);
    }
}
