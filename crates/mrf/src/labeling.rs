//! Persistent labelings: a sized label map with binary I/O.
//!
//! Inference results (segmentations, flow fields, disparity maps) are
//! labelings over a grid; this module gives them a durable on-disk form so
//! long runs can be checkpointed and results compared across sessions.
//! Format: magic `MOGL`, version byte, `u32` LE width and height, then one
//! byte per site in row-major order.

use crate::error::MrfError;
use crate::grid::Grid2D;
use crate::label::Label;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"MOGL";
const VERSION: u8 = 1;

/// A labeling bound to its grid dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    grid: Grid2D,
    labels: Vec<Label>,
}

impl Labeling {
    /// Wraps a label vector with its grid.
    ///
    /// # Errors
    ///
    /// Returns [`MrfError::LabelingSizeMismatch`] if the lengths disagree.
    pub fn new(grid: Grid2D, labels: Vec<Label>) -> Result<Self, MrfError> {
        if labels.len() != grid.len() {
            return Err(MrfError::LabelingSizeMismatch {
                expected: grid.len(),
                actual: labels.len(),
            });
        }
        Ok(Labeling { grid, labels })
    }

    /// The grid.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// The labels, row-major.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Fraction of sites where two labelings agree.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn agreement(&self, other: &Labeling) -> f64 {
        assert_eq!(self.grid, other.grid, "labelings must share a grid");
        let same = self
            .labels
            .iter()
            .zip(&other.labels)
            .filter(|(a, b)| a == b)
            .count();
        same as f64 / self.labels.len() as f64
    }

    /// Writes the binary representation.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&(self.grid.width() as u32).to_le_bytes())?;
        w.write_all(&(self.grid.height() as u32).to_le_bytes())?;
        let bytes: Vec<u8> = self.labels.iter().map(|l| l.value()).collect();
        w.write_all(&bytes)
    }

    /// Reads a labeling back.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic/version, impossible
    /// dimensions, out-of-range labels, or truncated data.
    pub fn read<R: Read>(mut r: R) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut header = [0u8; 13];
        r.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(bad("not a labeling file (bad magic)"));
        }
        if header[4] != VERSION {
            return Err(bad("unsupported labeling version"));
        }
        let mut quad = [0u8; 4];
        quad.copy_from_slice(&header[5..9]);
        let width = u32::from_le_bytes(quad) as usize;
        quad.copy_from_slice(&header[9..13]);
        let height = u32::from_le_bytes(quad) as usize;
        let grid =
            Grid2D::try_new(width, height).map_err(|_| bad("labeling has empty dimensions"))?;
        // Guard absurd headers before allocating.
        if grid.len() > 1 << 28 {
            return Err(bad("labeling dimensions implausibly large"));
        }
        let mut bytes = vec![0u8; grid.len()];
        r.read_exact(&mut bytes)?;
        let labels = bytes
            .into_iter()
            .map(|b| Label::try_new(b).map_err(|_| bad("label value out of 6-bit range")))
            .collect::<io::Result<Vec<Label>>>()?;
        Ok(Labeling { grid, labels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Labeling {
        let grid = Grid2D::new(5, 3);
        let labels = (0..15).map(|i| Label::new(i % 8)).collect();
        Labeling::new(grid, labels).unwrap()
    }

    #[test]
    fn round_trip() {
        let original = sample();
        let mut buf = Vec::new();
        original.write(&mut buf).unwrap();
        let restored = Labeling::read(Cursor::new(buf)).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn agreement_measures_overlap() {
        let a = sample();
        let mut labels = a.labels().to_vec();
        labels[0] = Label::new(7);
        labels[1] = Label::new(7);
        let b = Labeling::new(*a.grid(), labels).unwrap();
        let agreement = a.agreement(&b);
        assert!((agreement - 13.0 / 15.0).abs() < 1e-12);
        assert_eq!(a.agreement(&a), 1.0);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        sample().write(&mut buf).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(Labeling::read(Cursor::new(bad_magic)).is_err());
        let mut bad_version = buf.clone();
        bad_version[4] = 9;
        assert!(Labeling::read(Cursor::new(bad_version)).is_err());
    }

    #[test]
    fn rejects_out_of_range_labels() {
        let mut buf = Vec::new();
        sample().write(&mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] = 200; // not a 6-bit label
        assert!(Labeling::read(Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejects_truncation_and_absurd_headers() {
        let mut buf = Vec::new();
        sample().write(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(Labeling::read(Cursor::new(buf)).is_err());
        // Implausibly large dimensions fail before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(b"MOGL");
        huge.push(1);
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Labeling::read(Cursor::new(huge)).is_err());
    }

    #[test]
    fn size_mismatch_rejected() {
        let grid = Grid2D::new(2, 2);
        assert!(matches!(
            Labeling::new(grid, vec![Label::new(0)]),
            Err(MrfError::LabelingSizeMismatch { .. })
        ));
    }
}
