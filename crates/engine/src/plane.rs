//! The shared label plane workers update in place.
//!
//! The sweep reference (`mogs_gibbs::sweep`) snapshots the full labeling
//! before every phase so workers can read pre-phase neighbour labels while
//! new labels accumulate in per-thread update lists. The engine removes
//! both copies (snapshot in, updates out) with a single shared plane:
//!
//! Within one phase the updated sites form a conditionally *independent*
//! group — no two sites of the group are neighbours (that is exactly what
//! makes the phase a valid blocked Gibbs update). Therefore:
//!
//! - every neighbour a worker reads belongs to a *different* group, which
//!   is not written during this phase, so reads observe pre-phase values;
//! - a site's own cell is read (for the sampler's `current` label) only by
//!   the one worker that owns it, strictly before that worker writes it.
//!
//! The "double-buffered label planes" of the design thus degenerate to one
//! plane with provably disjoint writes — the in-place update is
//! bit-identical to the snapshot-based reference.
//!
//! This argument is no longer prose-only: `mogs_audit::verify_certificate`
//! verifies the three load-bearing premises — phase groups are
//! independent sets of the site interference graph, chunks partition each
//! group exactly, every site is covered once per sweep — at job
//! admission, and a job whose schedule fails the audit is rejected with a
//! typed [`mogs_audit::AuditReport`] before any plane is constructed.
//! The `shadow-audit` feature additionally cross-checks the verdict
//! dynamically by recording per-phase read/write sets in tests.

#![deny(clippy::as_conversions)]

use std::cell::UnsafeCell;

use mogs_mrf::Label;

/// A fixed-size plane of labels supporting disjoint concurrent writes.
///
/// All access is `unsafe`; callers must uphold the phase discipline
/// documented at module level.
pub(crate) struct LabelPlane {
    cells: Vec<UnsafeCell<Label>>,
}

// SAFETY: concurrent access is only performed under the independent-group
// phase discipline (see module docs): no cell is ever written by more than
// one thread in a phase, and no cell is read concurrently with a write to
// that same cell.
unsafe impl Sync for LabelPlane {}

impl LabelPlane {
    /// Builds the plane from an initial labeling.
    pub(crate) fn new(labels: Vec<Label>) -> Self {
        LabelPlane {
            cells: labels.into_iter().map(UnsafeCell::new).collect(),
        }
    }

    /// Number of sites.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Reads one cell.
    ///
    /// # Safety
    ///
    /// No other thread may be writing cell `site` concurrently.
    #[inline]
    pub(crate) unsafe fn read(&self, site: usize) -> Label {
        // SAFETY: the caller guarantees no concurrent writer for this
        // cell (this fn's contract), so the dereference cannot race.
        unsafe { *self.cells[site].get() }
    }

    /// Writes one cell.
    ///
    /// # Safety
    ///
    /// No other thread may be reading or writing cell `site` concurrently.
    #[inline]
    pub(crate) unsafe fn write(&self, site: usize, label: Label) {
        // SAFETY: the caller guarantees exclusive access to this cell
        // (this fn's contract), so the store cannot race a read or write.
        unsafe { *self.cells[site].get() = label }
    }

    /// Copies the whole plane out.
    ///
    /// # Safety
    ///
    /// The plane must be quiescent: no worker may hold an outstanding task
    /// for this job (the engine calls this only between phases).
    pub(crate) unsafe fn snapshot(&self) -> Vec<Label> {
        // SAFETY: quiescence (this fn's contract) means no worker is
        // writing any cell, so every dereference reads a settled value.
        self.cells.iter().map(|c| unsafe { *c.get() }).collect()
    }

    /// Copies the whole plane out as raw label values, one byte per
    /// site — the checkpoint capture path, which wants the bytes and
    /// not an intermediate `Vec<Label>`.
    ///
    /// # Safety
    ///
    /// Same contract as [`LabelPlane::snapshot`]: the plane must be
    /// quiescent.
    pub(crate) unsafe fn snapshot_values(&self) -> Vec<u8> {
        // SAFETY: quiescence (this fn's contract) means no worker is
        // writing any cell, so every dereference reads a settled value.
        let value = |cell: &UnsafeCell<Label>| unsafe { (*cell.get()).value() };
        self.cells.iter().map(value).collect()
    }

    /// Copies the whole plane into `out` (cleared first), reusing its
    /// allocation — the per-sweep path for jobs with observers, which
    /// must not allocate once the buffer reaches plane capacity.
    ///
    /// # Safety
    ///
    /// Same contract as [`LabelPlane::snapshot`]: the plane must be
    /// quiescent.
    pub(crate) unsafe fn snapshot_into(&self, out: &mut Vec<Label>) {
        out.clear();
        // SAFETY: quiescence (this fn's contract) means no worker is
        // writing any cell, so every dereference reads a settled value.
        out.extend(self.cells.iter().map(|c| unsafe { *c.get() }));
    }
}

impl std::fmt::Debug for LabelPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelPlane")
            .field("len", &self.cells.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_labels() {
        let plane = LabelPlane::new(vec![Label::new(1), Label::new(2)]);
        assert_eq!(plane.len(), 2);
        // SAFETY: single-threaded test; no concurrent access.
        unsafe {
            assert_eq!(plane.read(0), Label::new(1));
            plane.write(0, Label::new(3));
            assert_eq!(plane.read(0), Label::new(3));
            assert_eq!(plane.snapshot(), vec![Label::new(3), Label::new(2)]);
            assert_eq!(plane.snapshot_values(), vec![3, 2]);
        }
    }

    #[test]
    fn snapshot_into_reuses_the_buffer() {
        let plane = LabelPlane::new(vec![Label::new(1), Label::new(2)]);
        let mut buf = Vec::with_capacity(2);
        // SAFETY: single-threaded test; no concurrent access.
        unsafe {
            plane.snapshot_into(&mut buf);
            assert_eq!(buf, vec![Label::new(1), Label::new(2)]);
            let ptr = buf.as_ptr();
            plane.write(1, Label::new(7));
            plane.snapshot_into(&mut buf);
            assert_eq!(buf, vec![Label::new(1), Label::new(7)]);
            assert_eq!(ptr, buf.as_ptr(), "refill must not reallocate");
        }
    }
}
