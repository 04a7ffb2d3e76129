//! Topology fingerprints across commits, and the two constructions that
//! must agree with each other.
//!
//! A fingerprint is bound into every `StateBinding` and schedule
//! certificate, so a checkpoint written by one build resumes on another
//! only if both hash the same adjacency to the same value. A change to
//! how a topology is built or hashed must leave these constants alone.

use mogs_mrf::{Grid2D, Neighborhood, Topology};

const ORDERS: [Neighborhood; 2] = [Neighborhood::FirstOrder, Neighborhood::SecondOrder];

fn grid_fingerprint(width: usize, height: usize, order: Neighborhood) -> u64 {
    Topology::from_grid(Grid2D::new(width, height), order).fingerprint()
}

#[test]
fn grid_fingerprints_are_pinned() {
    // (width, height, first order, second order)
    let pins: [(usize, usize, u64, u64); 6] = [
        (1, 1, 0x5b2a_969b_42d2_38a4, 0x5b2a_969b_42d2_38a4),
        (1, 7, 0x12d4_7ec3_4d65_526a, 0x12d4_7ec3_4d65_526a),
        (7, 1, 0x12d4_7ec3_4d65_526a, 0x12d4_7ec3_4d65_526a),
        (4, 3, 0x5ad6_4286_00e6_b07b, 0xae28_9c7f_6886_2f49),
        (9, 8, 0xa97a_9e3f_da89_f02b, 0xc971_d960_3a11_71bf),
        // The `fleet2` stereo shape (the stereo field is first order).
        (256, 192, 0x5258_d83b_b0f8_0d89, 0x9572_838c_03ec_f8ac),
    ];
    for (width, height, first, second) in pins {
        let pinned = [first, second];
        for (order, pin) in ORDERS.into_iter().zip(pinned) {
            assert_eq!(
                grid_fingerprint(width, height, order),
                pin,
                "{width}x{height} {order:?}"
            );
        }
    }
    assert_eq!(
        grid_fingerprint(320, 320, Neighborhood::FirstOrder),
        0xa6e4_07ee_40df_1471,
        "320x320 first order"
    );
}

#[test]
fn an_edge_list_fingerprint_is_pinned() {
    // Site indices with low zero bytes (0x100, 0x1_0000) and the widest
    // offsets the graph reaches.
    let edges = [
        (0, 1),
        (1, 0),
        (5, 2),
        (3, 4),
        (2, 0),
        (6, 3),
        (4, 9),
        (0, 9),
        (8, 7),
        (0x100, 1),
        (0x1_0000, 0x100),
    ];
    let topology = Topology::from_edges(0x1_0001, &edges).expect("valid edge list");
    assert_eq!(topology.fingerprint(), 0xda70_3f59_ce81_ed8e);
}

/// The grid's edge list from `Grid2D`'s own neighbour queries, each
/// edge once.
fn grid_edges(grid: Grid2D, order: Neighborhood) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for site in grid.sites() {
        let mut near: Vec<usize> = grid.neighbors4(site).into_iter().flatten().collect();
        if order == Neighborhood::SecondOrder {
            near.extend(grid.neighbors_diagonal(site).into_iter().flatten());
        }
        edges.extend(near.into_iter().filter(|&n| n > site).map(|n| (site, n)));
    }
    edges
}

#[test]
fn from_grid_equals_from_edges_over_the_same_grid() {
    for width in 1..=9 {
        for height in 1..=9 {
            for order in ORDERS {
                let grid = Grid2D::new(width, height);
                let built = Topology::from_grid(grid, order);
                let edges = grid_edges(grid, order);
                let listed = Topology::from_edges(grid.len(), &edges).expect("grid edges");
                let at = format!("{width}x{height} {order:?}");
                assert_eq!(built.len(), listed.len(), "{at}");
                for site in grid.sites() {
                    // Equal degrees at every site are equal offsets.
                    assert_eq!(built.degree(site), listed.degree(site), "{at} site {site}");
                    assert_eq!(
                        built.neighbors(site),
                        listed.neighbors(site),
                        "{at} site {site}"
                    );
                }
                assert_eq!(built.fingerprint(), listed.fingerprint(), "{at}");
                assert_eq!(built.edge_count(), listed.edge_count(), "{at}");
                assert_eq!(built.edge_count(), edges.len(), "{at}");
            }
        }
    }
}
