//! Sparse interference topologies: CSR adjacency over arbitrary graphs.
//!
//! Everything upstream of this module models a 2-D lattice; everything
//! downstream (the audit layer's schedule prover, the engine's phase
//! sharding) only ever needs the *interference graph* — which sites read
//! which other sites' labels during a Gibbs update. A [`Topology`] is
//! that graph in compressed-sparse-row form, with two constructors:
//!
//! * [`Topology::from_grid`] — the lattice under a clique
//!   [`Neighborhood`], the degenerate case every existing workload uses;
//! * [`Topology::from_edges`] — an arbitrary undirected, self-loop-free
//!   edge list, the general case (sparse factor graphs, MaxSAT-as-MRF
//!   encodings, RBM bipartite layers).
//!
//! The adjacency is canonical: each row lists neighbours in ascending
//! order, duplicates collapsed, every edge stored in both rows. Two
//! topologies over the same interference graph therefore have the same
//! [`fingerprint`](Topology::fingerprint) no matter how they were built,
//! which is what lets a schedule certificate be bound to the adjacency
//! it was proved against rather than to a constructor path.

use crate::field::Neighborhood;
use crate::grid::Grid2D;
use crate::MrfError;

/// An undirected interference graph in CSR form.
///
/// Sites are `0..len()`; `neighbors(site)` is a sorted, duplicate-free
/// slice. Self-loops are structurally excluded: a site that interfered
/// with itself could never be scheduled in any phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `offsets[site]..offsets[site + 1]` indexes `neighbors`.
    offsets: Vec<usize>,
    /// Concatenated adjacency rows, each sorted ascending.
    neighbors: Vec<usize>,
    /// The originating lattice, when there is one — used only to render
    /// sites as `(x, y)` coordinates in audit reports.
    layout: Option<Grid2D>,
    /// [`Topology::fingerprint`], hashed once at construction: the
    /// adjacency is immutable, and admission, certificate binding and
    /// the sharding audit all ask for it.
    fingerprint: u64,
}

impl Topology {
    /// The interference graph of `grid` under `neighborhood` cliques:
    /// 4-neighbour rook adjacency first order, plus the diagonals second
    /// order.
    #[must_use]
    pub fn from_grid(grid: Grid2D, neighborhood: Neighborhood) -> Self {
        let n = grid.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        let mut row = Vec::with_capacity(8);
        for site in 0..n {
            row.clear();
            row.extend(grid.neighbors4(site).into_iter().flatten());
            if neighborhood == Neighborhood::SecondOrder {
                row.extend(grid.neighbors_diagonal(site).into_iter().flatten());
            }
            row.sort_unstable();
            neighbors.extend_from_slice(&row);
            offsets.push(neighbors.len());
        }
        Topology::seal(offsets, neighbors, Some(grid))
    }

    /// A topology over `sites` vertices from an undirected edge list.
    /// Edges may appear in either orientation and repeatedly; the
    /// adjacency is symmetrized and deduplicated. Isolated sites are
    /// fine (they can join any phase).
    ///
    /// # Errors
    ///
    /// [`MrfError::EmptyGrid`] when `sites == 0`;
    /// [`MrfError::SelfLoopEdge`] for an `(s, s)` edge;
    /// [`MrfError::EdgeOutOfRange`] when an endpoint is `>= sites`.
    pub fn from_edges(sites: usize, edges: &[(usize, usize)]) -> Result<Self, MrfError> {
        if sites == 0 {
            return Err(MrfError::EmptyGrid);
        }
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); sites];
        for &(a, b) in edges {
            if a == b {
                return Err(MrfError::SelfLoopEdge { site: a });
            }
            if a >= sites || b >= sites {
                return Err(MrfError::EdgeOutOfRange { a, b, sites });
            }
            rows[a].push(b);
            rows[b].push(a);
        }
        let mut offsets = Vec::with_capacity(sites + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len());
        }
        Ok(Topology::seal(offsets, neighbors, None))
    }

    /// Both constructors' tail: fingerprints the finished adjacency.
    fn seal(offsets: Vec<usize>, neighbors: Vec<usize>, layout: Option<Grid2D>) -> Self {
        let sites = offsets.len() - 1;
        let fingerprint = std::iter::once(&sites)
            .chain(&offsets)
            .chain(&neighbors)
            .fold(FNV_OFFSET, |hash, &value| {
                fnv_fold(hash, &(value as u64).to_le_bytes())
            });
        Topology {
            offsets,
            neighbors,
            layout,
            fingerprint,
        }
    }

    /// Number of sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the topology has no sites (never true for a constructed
    /// one — both constructors reject or cannot express zero sites).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbours of `site`, sorted ascending, without `site` itself.
    #[must_use]
    pub fn neighbors(&self, site: usize) -> &[usize] {
        &self.neighbors[self.offsets[site]..self.offsets[site + 1]]
    }

    /// The degree of `site`.
    #[must_use]
    pub fn degree(&self, site: usize) -> usize {
        self.offsets[site + 1] - self.offsets[site]
    }

    /// The largest degree over all sites (0 for an edgeless graph).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|s| self.degree(s)).max().unwrap_or(0)
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The originating lattice, when the topology was built from one.
    #[must_use]
    pub fn layout(&self) -> Option<&Grid2D> {
        self.layout.as_ref()
    }

    /// `(x, y)` coordinates for report rendering: lattice coordinates
    /// when a layout exists, `(site, 0)` otherwise.
    #[must_use]
    pub fn coords(&self, site: usize) -> (usize, usize) {
        match &self.layout {
            Some(grid) => grid.coords(site),
            None => (site, 0),
        }
    }

    /// FNV-1a fingerprint of the canonical adjacency (site count,
    /// offsets, neighbour lists, each as 8 little-endian bytes). Two
    /// topologies fingerprint equal iff they are the same interference
    /// graph; the lattice layout tag does not participate, so
    /// `from_grid` and an equivalent `from_edges` agree. Computed once,
    /// at construction.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit hash over `bytes`.
fn fnv_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64-bit hash of `bytes` — the workspace's one non-cryptographic
/// digest: topology fingerprints, shard site-list digests, and the
/// checkpoint payload checksum.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_topology_matches_neighbor_queries() {
        let grid = Grid2D::new(4, 3);
        let first = Topology::from_grid(grid, Neighborhood::FirstOrder);
        assert_eq!(first.len(), 12);
        // Interior site 5 = (1, 1): left 4, right 6, up 1, down 9.
        assert_eq!(first.neighbors(5), &[1, 4, 6, 9]);
        // Corner site 0: right 1, down 4.
        assert_eq!(first.neighbors(0), &[1, 4]);
        let second = Topology::from_grid(grid, Neighborhood::SecondOrder);
        assert_eq!(second.neighbors(5), &[0, 1, 2, 4, 6, 8, 9, 10]);
        // Edge counts: 3·3 horizontal + 4·2 vertical (+ 2·3·2 diagonal).
        assert_eq!(first.edge_count(), 9 + 8);
        assert_eq!(second.edge_count(), 9 + 8 + 12);
        assert_eq!(first.coords(5), (1, 1));
        assert!(first.layout().is_some());
    }

    #[test]
    fn edge_list_is_symmetrized_and_deduplicated() {
        let topo =
            Topology::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 1), (3, 0)]).expect("valid");
        assert_eq!(topo.neighbors(0), &[1, 3]);
        assert_eq!(topo.neighbors(1), &[0, 2]);
        assert_eq!(topo.neighbors(2), &[1]);
        assert_eq!(topo.neighbors(3), &[0]);
        assert_eq!(topo.edge_count(), 3);
        assert_eq!(topo.max_degree(), 2);
        assert_eq!(topo.coords(2), (2, 0));
        assert!(topo.layout().is_none());
    }

    #[test]
    fn isolated_sites_and_empty_edge_lists_are_allowed() {
        let topo = Topology::from_edges(3, &[]).expect("edgeless graph");
        assert_eq!(topo.len(), 3);
        assert_eq!(topo.edge_count(), 0);
        assert_eq!(topo.max_degree(), 0);
        assert!(topo.neighbors(1).is_empty());
    }

    #[test]
    fn invalid_edge_lists_are_rejected() {
        assert_eq!(
            Topology::from_edges(0, &[]),
            Err(MrfError::EmptyGrid),
            "zero sites"
        );
        assert_eq!(
            Topology::from_edges(3, &[(1, 1)]),
            Err(MrfError::SelfLoopEdge { site: 1 })
        );
        assert_eq!(
            Topology::from_edges(3, &[(0, 7)]),
            Err(MrfError::EdgeOutOfRange {
                a: 0,
                b: 7,
                sites: 3
            })
        );
    }

    #[test]
    fn fingerprint_is_constructor_independent_and_adjacency_sensitive() {
        let grid = Grid2D::new(3, 2);
        let from_grid = Topology::from_grid(grid, Neighborhood::FirstOrder);
        let mut edges = Vec::new();
        for site in 0..grid.len() {
            for n in grid.neighbors4(site).into_iter().flatten() {
                if n > site {
                    edges.push((site, n));
                }
            }
        }
        let from_edges = Topology::from_edges(grid.len(), &edges).expect("grid edges");
        assert_eq!(from_grid.fingerprint(), from_edges.fingerprint());
        assert_ne!(
            from_grid.fingerprint(),
            Topology::from_grid(grid, Neighborhood::SecondOrder).fingerprint()
        );
        let mut fewer = edges.clone();
        fewer.pop();
        assert_ne!(
            from_edges.fingerprint(),
            Topology::from_edges(grid.len(), &fewer)
                .expect("still valid")
                .fingerprint()
        );
    }

    #[test]
    fn digest_matches_the_published_fnv_vectors_and_the_fingerprint() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // The fingerprint is the same digest over the adjacency words.
        let topology = Topology::from_grid(Grid2D::new(3, 2), Neighborhood::FirstOrder);
        let sites = topology.len();
        let words = std::iter::once(&sites)
            .chain(&topology.offsets)
            .chain(&topology.neighbors);
        let bytes: Vec<u8> = words.flat_map(|&w| (w as u64).to_le_bytes()).collect();
        assert_eq!(topology.fingerprint(), fnv1a(&bytes));
    }
}
