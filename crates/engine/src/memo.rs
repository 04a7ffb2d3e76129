//! A small bounded cache for process-wide reuse of admitted work.
//!
//! The engine keeps its admissions in one (by `(grid, neighbourhood,
//! threads)`), and a fleet coordinator its scenes and verified
//! partitions. All share one policy: look up under the lock, build a
//! miss outside it (so other keys never wait on a build), cache only
//! what the build returned `Ok`, and evict the oldest entry when full.

use parking_lot::Mutex;

/// A bounded cache of `capacity` entries, oldest first; lookup is a
/// linear scan, so keep `capacity` small.
#[derive(Debug)]
pub struct Memo<K, V> {
    capacity: usize,
    entries: Mutex<Vec<(K, V)>>,
}

impl<K: PartialEq, V: Clone> Memo<K, V> {
    /// An empty cache holding at most `capacity` entries (at least one).
    #[must_use]
    pub const fn new(capacity: usize) -> Self {
        Memo {
            capacity,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The value cached under `key` and `true`, or else `build`'s value
    /// and `false`. A built value replaces the oldest entry when the
    /// cache is full; a build error is returned and caches nothing.
    ///
    /// # Errors
    ///
    /// What `build` returns.
    pub fn fetch<E>(&self, key: K, build: impl FnOnce() -> Result<V, E>) -> Result<(V, bool), E> {
        if let Some((_, hit)) = self.entries.lock().iter().find(|(k, _)| *k == key) {
            return Ok((hit.clone(), true));
        }
        let value = build()?;
        let mut entries = self.entries.lock();
        entries.retain(|(k, _)| *k != key);
        if entries.len() >= self.capacity.max(1) {
            entries.remove(0);
        }
        entries.push((key, value.clone()));
        Ok((value, false))
    }
}

#[cfg(test)]
mod tests {
    use super::Memo;

    #[test]
    fn hits_misses_errors_and_the_oldest_evicted() {
        let memo: Memo<u8, u32> = Memo::new(2);
        let ok = |v| move || Ok::<_, ()>(v);
        assert_eq!(memo.fetch(1, ok(10)), Ok((10, false)));
        assert_eq!(memo.fetch(1, ok(11)), Ok((10, true)));
        assert_eq!(memo.fetch(2, || Err(())), Err(()), "errors are returned");
        assert_eq!(memo.fetch(2, ok(20)), Ok((20, false)), "and not cached");
        assert_eq!(memo.fetch(3, ok(30)), Ok((30, false)));
        assert_eq!(memo.fetch(2, ok(21)), Ok((20, true)));
        assert_eq!(memo.fetch(1, ok(12)), Ok((12, false)), "1 was evicted");
    }
}
