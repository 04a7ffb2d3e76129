//! 6-bit labels and label spaces (paper §4.4, §5.1).
//!
//! Random variables take one of `M ≤ 64` labels, carried in hardware as
//! 6-bit unsigned integers. A label is interpreted either as a **scalar**
//! (3 significant bits in the energy datapath) or as a **2-vector** whose
//! components occupy 3 bits each — the encoding used by dense motion
//! estimation, where a label is a `(dx, dy)` displacement in a search
//! window.

#![deny(clippy::as_conversions)]

use crate::error::MrfError;
use serde::{Deserialize, Serialize};

/// Maximum number of labels a 6-bit variable can take.
pub const MAX_LABELS: u16 = 64;

/// Bits available per vector component.
pub const COMPONENT_BITS: u32 = 3;

/// A 6-bit label value.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Label(u8);

impl Label {
    /// Creates a label.
    ///
    /// # Panics
    ///
    /// Panics if `value >= 64` (does not fit in 6 bits). Use
    /// [`Label::try_new`] for a fallible constructor.
    pub fn new(value: u8) -> Self {
        Label::try_new(value).expect("label must fit in 6 bits")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`MrfError::LabelTooLarge`] if `value >= 64`.
    pub fn try_new(value: u8) -> Result<Self, MrfError> {
        if u16::from(value) >= MAX_LABELS {
            Err(MrfError::LabelTooLarge {
                value: u16::from(value),
            })
        } else {
            Ok(Label(value))
        }
    }

    /// The raw 6-bit value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Splits the label into its two 3-bit components `(lo, hi)`:
    /// bits `[2:0]` and `[5:3]`.
    pub fn components(self) -> (u8, u8) {
        (self.0 & 0b111, self.0 >> COMPONENT_BITS)
    }

    /// Builds a label from two 3-bit components.
    ///
    /// # Panics
    ///
    /// Panics if either component exceeds 7.
    pub fn from_components(lo: u8, hi: u8) -> Self {
        assert!(lo < 8 && hi < 8, "components must fit in 3 bits");
        Label((hi << COMPONENT_BITS) | lo)
    }
}

impl From<Label> for u8 {
    fn from(l: Label) -> u8 {
        l.0
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Whether labels are interpreted as scalars or 2-vectors in the energy
/// datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LabelKind {
    /// Scalar labels: only the low 3 bits enter the doubleton distance.
    Scalar,
    /// 2-vector labels: both 3-bit components enter the distance.
    Vector2,
}

/// A label space: how many labels exist and how they are interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LabelSpace {
    count: u8,
    kind: LabelKind,
}

impl LabelSpace {
    /// A scalar label space with `count` labels.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds [`MAX_LABELS`]. Use
    /// [`LabelSpace::try_scalar`] for a fallible constructor.
    pub fn scalar(count: u16) -> Self {
        Self::try_scalar(count).expect("label count must be in 1..=64")
    }

    /// Fallible scalar constructor.
    ///
    /// # Errors
    ///
    /// Returns [`MrfError::InvalidLabelCount`] for counts outside `1..=64`.
    pub fn try_scalar(count: u16) -> Result<Self, MrfError> {
        if count == 0 || count > MAX_LABELS {
            Err(MrfError::InvalidLabelCount { count })
        } else {
            Ok(LabelSpace {
                // The guard above proves count <= MAX_LABELS (64).
                count: u8::try_from(count).unwrap_or(u8::MAX),
                kind: LabelKind::Scalar,
            })
        }
    }

    /// A vector label space enumerating a `width × height` search window:
    /// label `k` encodes displacement `(k % width, k / width)` in its two
    /// 3-bit components.
    ///
    /// # Errors
    ///
    /// Returns [`MrfError::WindowTooLarge`] if either dimension exceeds 8
    /// (3-bit components) or [`MrfError::InvalidLabelCount`] if the window
    /// has more than 64 cells or is empty.
    pub fn try_window(width: u8, height: u8) -> Result<Self, MrfError> {
        if width > 8 || height > 8 {
            return Err(MrfError::WindowTooLarge { width, height });
        }
        let count = u16::from(width) * u16::from(height);
        if count == 0 || count > MAX_LABELS {
            return Err(MrfError::InvalidLabelCount { count });
        }
        Ok(LabelSpace {
            // The guard above proves count <= MAX_LABELS (64).
            count: u8::try_from(count).unwrap_or(u8::MAX),
            kind: LabelKind::Vector2,
        })
    }

    /// Infallible window constructor.
    ///
    /// # Panics
    ///
    /// Panics under the conditions [`LabelSpace::try_window`] reports.
    pub fn window(width: u8, height: u8) -> Self {
        Self::try_window(width, height).expect("window must fit 3-bit components")
    }

    /// Number of labels `M`.
    pub fn count(&self) -> usize {
        usize::from(self.count)
    }

    /// Scalar or vector interpretation.
    pub fn kind(&self) -> LabelKind {
        self.kind
    }

    /// Iterator over every label in the space.
    pub fn labels(&self) -> impl Iterator<Item = Label> + 'static {
        (0..self.count).map(Label)
    }

    /// Whether `label` belongs to this space.
    pub fn contains(&self, label: Label) -> bool {
        label.0 < self.count
    }

    /// The exact integer squared distance `d²(a, b)` of the paper's Eq. 2
    /// with unit weights: scalar spaces use the low 3-bit component only,
    /// vector spaces sum both component differences.
    ///
    /// Maximum value: `49` for scalars (7²), `98` for vectors — both fit
    /// comfortably in the 8-bit energy budget before weighting.
    pub fn distance_sq(&self, a: Label, b: Label) -> u16 {
        match self.kind {
            LabelKind::Scalar => {
                let (a0, _) = a.components();
                let (b0, _) = b.components();
                let d = u16::from(a0.abs_diff(b0));
                d * d
            }
            LabelKind::Vector2 => {
                let (a0, a1) = a.components();
                let (b0, b1) = b.components();
                let d0 = u16::from(a0.abs_diff(b0));
                let d1 = u16::from(a1.abs_diff(b1));
                d0 * d0 + d1 * d1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_component_round_trip() {
        for lo in 0..8 {
            for hi in 0..8 {
                let l = Label::from_components(lo, hi);
                assert_eq!(l.components(), (lo, hi));
            }
        }
    }

    #[test]
    fn label_rejects_seven_bits() {
        assert!(Label::try_new(63).is_ok());
        assert!(Label::try_new(64).is_err());
    }

    #[test]
    fn scalar_space_counts() {
        let s = LabelSpace::scalar(5);
        assert_eq!(s.count(), 5);
        assert_eq!(s.labels().count(), 5);
        assert!(s.contains(Label::new(4)));
        assert!(!s.contains(Label::new(5)));
    }

    #[test]
    fn window_space_for_motion() {
        // The paper's dense motion estimation: 7×7 window, 49 labels.
        let s = LabelSpace::window(7, 7);
        assert_eq!(s.count(), 49);
        assert_eq!(s.kind(), LabelKind::Vector2);
    }

    #[test]
    fn window_limits() {
        assert!(LabelSpace::try_window(9, 1).is_err());
        assert!(LabelSpace::try_window(0, 4).is_err());
        assert!(LabelSpace::try_window(8, 8).is_ok()); // exactly 64 labels
    }

    #[test]
    fn scalar_distance_ignores_high_bits() {
        let s = LabelSpace::scalar(64);
        // Labels 1 and 9 share the low component (1): scalar distance 0.
        assert_eq!(s.distance_sq(Label::new(1), Label::new(9)), 0);
        assert_eq!(s.distance_sq(Label::new(0), Label::new(7)), 49);
    }

    #[test]
    fn vector_distance_is_euclidean_squared() {
        let s = LabelSpace::window(8, 8);
        let a = Label::from_components(1, 2);
        let b = Label::from_components(4, 6);
        assert_eq!(s.distance_sq(a, b), 9 + 16);
        assert_eq!(s.distance_sq(a, a), 0);
    }

    #[test]
    fn distance_is_symmetric() {
        let s = LabelSpace::window(7, 7);
        for a in s.labels() {
            for b in s.labels() {
                assert_eq!(s.distance_sq(a, b), s.distance_sq(b, a));
            }
        }
    }

    #[test]
    fn max_distances_fit_energy_budget() {
        let scalar = LabelSpace::scalar(64);
        let vector = LabelSpace::window(8, 8);
        let max_s = scalar
            .labels()
            .flat_map(|a| scalar.labels().map(move |b| scalar.distance_sq(a, b)))
            .max()
            .unwrap();
        let max_v = vector
            .labels()
            .flat_map(|a| vector.labels().map(move |b| vector.distance_sq(a, b)))
            .max()
            .unwrap();
        assert_eq!(max_s, 49);
        assert_eq!(max_v, 98);
    }
}
