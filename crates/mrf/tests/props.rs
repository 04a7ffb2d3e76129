//! Property-based invariants of the MRF substrate.

use mogs_mrf::energy::ZeroSingleton;
use mogs_mrf::precision::{redundant_label_groups, saturating_energy_sum, EnergyQuantizer};
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Index ↔ coordinate round trip for arbitrary grid sizes.
    #[test]
    fn grid_index_round_trip(w in 1usize..40, h in 1usize..40) {
        let g = Grid2D::new(w, h);
        for site in g.sites() {
            let (x, y) = g.coords(site);
            prop_assert_eq!(g.index(x, y), site);
        }
    }

    /// Neighbourhoods are symmetric and never self-referential, for both
    /// orders.
    #[test]
    fn neighborhoods_symmetric(w in 1usize..20, h in 1usize..20) {
        let g = Grid2D::new(w, h);
        for s in g.sites() {
            for n in g.neighbors4(s).into_iter().chain(g.neighbors_diagonal(s)).flatten() {
                prop_assert_ne!(n, s);
                let back: Vec<usize> = g
                    .neighbors4(n)
                    .into_iter()
                    .chain(g.neighbors_diagonal(n))
                    .flatten()
                    .collect();
                prop_assert!(back.contains(&s));
            }
        }
    }

    /// The label distance is a symmetric, zero-diagonal, non-negative form
    /// for every space kind.
    #[test]
    fn distance_is_a_premetric(m in 1u16..=64, a in 0u8..64, b in 0u8..64) {
        let space = LabelSpace::scalar(m);
        let (a, b) = (a % m as u8, b % m as u8);
        let (la, lb) = (Label::new(a), Label::new(b));
        prop_assert_eq!(space.distance_sq(la, lb), space.distance_sq(lb, la));
        prop_assert_eq!(space.distance_sq(la, la), 0);
    }

    /// Quantization is monotone: larger energies never produce smaller
    /// codes.
    #[test]
    fn quantizer_is_monotone(scale in 0.01f64..100.0, a in 0.0f64..1000.0, b in 0.0f64..1000.0) {
        let q = EnergyQuantizer::new(scale);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(lo) <= q.quantize(hi));
    }

    /// The saturating sum is permutation-invariant and bounded.
    #[test]
    fn saturating_sum_invariants(mut terms in prop::collection::vec(0u8..=255, 0..6)) {
        let forward = saturating_energy_sum(&terms);
        terms.reverse();
        let backward = saturating_energy_sum(&terms);
        prop_assert_eq!(forward, backward);
    }

    /// Redundant-label groups partition the label set exactly.
    #[test]
    fn redundant_groups_partition(quantized in prop::collection::vec(0u8..=255, 1..32)) {
        let groups = redundant_label_groups(&quantized);
        let total: usize = groups.iter().map(Vec::len).sum();
        prop_assert_eq!(total, quantized.len());
        let mut seen = vec![false; quantized.len()];
        for group in &groups {
            for label in group {
                let idx = usize::from(label.value());
                prop_assert!(!seen[idx], "label {} appears twice", idx);
                seen[idx] = true;
            }
        }
    }

    /// Single-site energy deltas equal total-energy deltas for random
    /// flips, in both neighbourhoods — the core consistency property that
    /// makes Gibbs sampling correct.
    #[test]
    fn flip_delta_consistency(
        w in 2usize..8,
        h in 2usize..8,
        site_pick in 0usize..64,
        new_label in 0u8..4,
        second_order in proptest::bool::ANY,
    ) {
        let neighborhood = if second_order {
            Neighborhood::SecondOrder
        } else {
            Neighborhood::FirstOrder
        };
        let mrf = MarkovRandomField::builder(Grid2D::new(w, h), LabelSpace::scalar(4))
            .prior(SmoothnessPrior::squared_difference(1.3))
            .neighborhood(neighborhood)
            .singleton(ZeroSingleton)
            .build();
        let mut labels: Vec<Label> =
            (0..w * h).map(|i| Label::new((i % 4) as u8)).collect();
        let site = site_pick % (w * h);
        let before = mrf.total_energy(&labels);
        let e_old = mrf.site_energy(&labels, site, labels[site]);
        let e_new = mrf.site_energy(&labels, site, Label::new(new_label));
        labels[site] = Label::new(new_label);
        let after = mrf.total_energy(&labels);
        prop_assert!(((after - before) - (e_new - e_old)).abs() < 1e-9);
    }

    /// Independent groups never contain adjacent sites (w.r.t. the field's
    /// own neighbourhood).
    #[test]
    fn independent_groups_are_independent(
        w in 2usize..10,
        h in 2usize..10,
        second_order in proptest::bool::ANY,
    ) {
        let neighborhood = if second_order {
            Neighborhood::SecondOrder
        } else {
            Neighborhood::FirstOrder
        };
        let mrf = MarkovRandomField::builder(Grid2D::new(w, h), LabelSpace::scalar(2))
            .neighborhood(neighborhood)
            .singleton(ZeroSingleton)
            .build();
        let grid = mrf.grid();
        for group in mrf.independent_groups() {
            let members: std::collections::HashSet<usize> = group.iter().copied().collect();
            for &s in &group {
                let axis = grid.neighbors4(s).into_iter().flatten();
                let diag: Vec<usize> = if second_order {
                    grid.neighbors_diagonal(s).into_iter().flatten().collect()
                } else {
                    Vec::new()
                };
                for n in axis.chain(diag) {
                    prop_assert!(!members.contains(&n), "{} adjacent to {} in group", s, n);
                }
            }
        }
    }
}

proptest! {
    /// Labeling round trip for arbitrary grids and contents, and the
    /// parser never panics on arbitrary byte soup.
    #[test]
    fn labeling_round_trip(w in 1usize..20, h in 1usize..20, fill in 0u8..64) {
        use mogs_mrf::labeling::Labeling;
        let grid = Grid2D::new(w, h);
        let labels = vec![Label::new(fill); w * h];
        let original = Labeling::new(grid, labels).unwrap();
        let mut buf = Vec::new();
        original.write(&mut buf).unwrap();
        prop_assert_eq!(Labeling::read(std::io::Cursor::new(buf)).unwrap(), original);
    }

    #[test]
    fn labeling_parser_never_panics(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        use mogs_mrf::labeling::Labeling;
        let _ = Labeling::read(std::io::Cursor::new(bytes)); // may Err, must not panic
    }
}

/// The `f64::round` formula `quantize` used to be, as the oracle.
fn round_formula(q: &EnergyQuantizer, energy: f64) -> u8 {
    let scaled = (energy * q.scale()).round();
    if scaled <= 0.0 {
        0
    } else if scaled >= 255.0 {
        255
    } else {
        scaled as u8
    }
}

#[test]
fn quantize_equals_the_round_formula() {
    let mut edges = vec![
        0.499_999_999_999_999_94,
        0.5,
        254.5,
        254.5f64.next_up(),
        254.5f64.next_down(),
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        -0.5,
        -3.7,
        -1e300,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    for k in 0..256u32 {
        let tie = f64::from(k) + 0.5;
        edges.extend([tie, tie.next_down(), tie.next_up()]);
    }
    let scales = [1.0, 3.0, 8.0, 16.0, 0.37, 255.0 / 7.0];
    for scale in scales {
        let q = EnergyQuantizer::new(scale);
        for &v in &edges {
            // At scale 1 each edge is hit exactly; elsewhere the
            // product lands near it.
            for e in [v, v / scale] {
                assert_eq!(q.quantize(e), round_formula(&q, e), "e={e:e} scale={scale}");
            }
        }
    }
    // 10⁶ random values: raw bit patterns (every magnitude, NaN, inf)
    // and values spread over the 8-bit range, from SplitMix64.
    let mut state = 0x5EED_0025_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in 0..1_000_000 {
        let bits = next();
        let q = EnergyQuantizer::new(scales[i % scales.len()]);
        let e = if i % 2 == 0 {
            f64::from_bits(bits)
        } else {
            (bits >> 11) as f64 / (1u64 << 53) as f64 * 300.0 - 20.0
        };
        assert_eq!(q.quantize(e), round_formula(&q, e), "e={e:e}");
    }
}
