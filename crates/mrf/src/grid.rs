//! 2-D lattices, 4-neighbourhoods, and checkerboard parity.
//!
//! The paper's first-order MRF (Fig. 4) places one random variable per
//! pixel with the four axis-aligned neighbours as its Markov blanket. Sites
//! of equal checkerboard parity are conditionally independent given the
//! other parity, which exposes the parallelism both the GPU baselines and
//! the RSU-augmented sweeps exploit.

#![deny(clippy::as_conversions)]

use serde::{Deserialize, Serialize};

/// Checkerboard colour of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Parity {
    /// Sites where `(x + y)` is even.
    Even,
    /// Sites where `(x + y)` is odd.
    Odd,
}

impl Parity {
    /// The other colour.
    pub fn flipped(self) -> Parity {
        match self {
            Parity::Even => Parity::Odd,
            Parity::Odd => Parity::Even,
        }
    }

    /// Both colours, in sweep order.
    pub const BOTH: [Parity; 2] = [Parity::Even, Parity::Odd];
}

/// A rectangular lattice of sites addressed either by `(x, y)` coordinates
/// or by flat row-major index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Grid2D {
    width: usize,
    height: usize,
}

impl Grid2D {
    /// Creates a `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; use [`Grid2D::try_new`] for a
    /// fallible constructor.
    pub fn new(width: usize, height: usize) -> Self {
        Self::try_new(width, height).expect("grid dimensions must be non-zero")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MrfError::EmptyGrid`] if either dimension is zero.
    pub fn try_new(width: usize, height: usize) -> Result<Self, crate::MrfError> {
        if width == 0 || height == 0 {
            Err(crate::MrfError::EmptyGrid)
        } else {
            Ok(Grid2D { width, height })
        }
    }

    /// Grid width in sites.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in sites.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of sites.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the grid has no sites (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinates are out of range.
    pub fn index(&self, x: usize, y: usize) -> usize {
        debug_assert!(
            x < self.width && y < self.height,
            "({x}, {y}) out of bounds"
        );
        y * self.width + x
    }

    /// Coordinates of a flat index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index is out of range.
    pub fn coords(&self, site: usize) -> (usize, usize) {
        debug_assert!(site < self.len(), "site {site} out of bounds");
        (site % self.width, site / self.width)
    }

    /// Checkerboard parity of a site.
    pub fn parity(&self, site: usize) -> Parity {
        let (x, y) = self.coords(site);
        if (x + y) % 2 == 0 {
            Parity::Even
        } else {
            Parity::Odd
        }
    }

    /// The up-to-four axis neighbours of a site, in (left, right, up, down)
    /// order; boundary sites have fewer (`None` entries).
    pub fn neighbors4(&self, site: usize) -> [Option<usize>; 4] {
        let (x, y) = self.coords(site);
        [
            (x > 0).then(|| self.index(x - 1, y)),
            (x + 1 < self.width).then(|| self.index(x + 1, y)),
            (y > 0).then(|| self.index(x, y - 1)),
            (y + 1 < self.height).then(|| self.index(x, y + 1)),
        ]
    }

    /// The up-to-four diagonal neighbours of a site, in (up-left, up-right,
    /// down-left, down-right) order — the additional cliques of a
    /// second-order MRF (paper §9 future work).
    pub fn neighbors_diagonal(&self, site: usize) -> [Option<usize>; 4] {
        let (x, y) = self.coords(site);
        [
            (x > 0 && y > 0).then(|| self.index(x - 1, y - 1)),
            (x + 1 < self.width && y > 0).then(|| self.index(x + 1, y - 1)),
            (x > 0 && y + 1 < self.height).then(|| self.index(x - 1, y + 1)),
            (x + 1 < self.width && y + 1 < self.height).then(|| self.index(x + 1, y + 1)),
        ]
    }

    /// The 2×2-block colour of a site, in `0..4`: `(x % 2) + 2·(y % 2)`.
    ///
    /// In an 8-neighbourhood no two sites of the same block colour are
    /// adjacent, so the four colour classes are the conditionally
    /// independent update groups of a second-order MRF (the 8-neighbour
    /// analogue of checkerboard parity).
    pub fn block_color(&self, site: usize) -> u8 {
        let (x, y) = self.coords(site);
        u8::from(x % 2 == 1) + 2 * u8::from(y % 2 == 1)
    }

    /// Iterator over the sites of one 2×2-block colour (`0..4`).
    ///
    /// # Panics
    ///
    /// Panics if `color >= 4`.
    pub fn sites_of_block_color(&self, color: u8) -> impl Iterator<Item = usize> + '_ {
        assert!(color < 4, "block colours are 0..4");
        let grid = *self;
        grid.sites().filter(move |&s| grid.block_color(s) == color)
    }

    /// Iterator over all site indices in row-major order.
    pub fn sites(&self) -> std::ops::Range<usize> {
        0..self.len()
    }

    /// Iterator over the sites of one checkerboard colour.
    pub fn sites_of_parity(&self, parity: Parity) -> impl Iterator<Item = usize> + '_ {
        let grid = *self;
        grid.sites().filter(move |&s| grid.parity(s) == parity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let g = Grid2D::new(7, 5);
        for site in g.sites() {
            let (x, y) = g.coords(site);
            assert_eq!(g.index(x, y), site);
        }
    }

    #[test]
    fn corner_neighbors() {
        let g = Grid2D::new(3, 3);
        let n = g.neighbors4(g.index(0, 0));
        assert_eq!(n, [None, Some(1), None, Some(3)]);
        let n = g.neighbors4(g.index(2, 2));
        assert_eq!(n, [Some(7), None, Some(5), None]);
    }

    #[test]
    fn interior_site_has_four_neighbors() {
        let g = Grid2D::new(3, 3);
        let n = g.neighbors4(g.index(1, 1));
        assert!(n.iter().all(Option::is_some));
    }

    #[test]
    fn neighborhood_is_symmetric() {
        let g = Grid2D::new(6, 4);
        for s in g.sites() {
            for n in g.neighbors4(s).into_iter().flatten() {
                assert!(
                    g.neighbors4(n).into_iter().flatten().any(|b| b == s),
                    "site {s} lists {n} but not vice versa"
                );
            }
        }
    }

    #[test]
    fn parity_partitions_all_sites() {
        let g = Grid2D::new(5, 5);
        let even: Vec<_> = g.sites_of_parity(Parity::Even).collect();
        let odd: Vec<_> = g.sites_of_parity(Parity::Odd).collect();
        assert_eq!(even.len() + odd.len(), g.len());
        assert_eq!(even.len(), 13); // 5x5 has 13 even, 12 odd sites
    }

    #[test]
    fn neighbors_always_have_opposite_parity() {
        let g = Grid2D::new(8, 6);
        for s in g.sites() {
            for n in g.neighbors4(s).into_iter().flatten() {
                assert_eq!(g.parity(n), g.parity(s).flipped());
            }
        }
    }

    #[test]
    fn diagonal_neighbors_at_corners() {
        let g = Grid2D::new(3, 3);
        let n = g.neighbors_diagonal(g.index(0, 0));
        assert_eq!(n, [None, None, None, Some(g.index(1, 1))]);
        let n = g.neighbors_diagonal(g.index(1, 1));
        assert!(n.iter().all(Option::is_some));
    }

    #[test]
    fn diagonal_neighborhood_is_symmetric() {
        let g = Grid2D::new(5, 4);
        for s in g.sites() {
            for n in g.neighbors_diagonal(s).into_iter().flatten() {
                assert!(
                    g.neighbors_diagonal(n)
                        .into_iter()
                        .flatten()
                        .any(|b| b == s),
                    "site {s} lists {n} but not vice versa"
                );
            }
        }
    }

    #[test]
    fn block_colors_partition_sites() {
        let g = Grid2D::new(6, 6);
        let total: usize = (0..4).map(|c| g.sites_of_block_color(c).count()).sum();
        assert_eq!(total, g.len());
        assert_eq!(g.sites_of_block_color(0).count(), 9);
    }

    #[test]
    fn same_block_color_sites_are_never_8_adjacent() {
        // The conditional-independence property the 4-colour schedule
        // relies on.
        let g = Grid2D::new(7, 5);
        for s in g.sites() {
            let color = g.block_color(s);
            let axis = g.neighbors4(s);
            let diag = g.neighbors_diagonal(s);
            for n in axis.into_iter().chain(diag).flatten() {
                assert_ne!(g.block_color(n), color, "sites {s} and {n} share a colour");
            }
        }
    }

    #[test]
    fn try_new_rejects_empty() {
        assert!(Grid2D::try_new(0, 5).is_err());
        assert!(Grid2D::try_new(5, 0).is_err());
        assert!(Grid2D::try_new(1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn new_panics_on_empty() {
        Grid2D::new(0, 0);
    }
}
