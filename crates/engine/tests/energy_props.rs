//! The table-driven plane energy equals `MarkovRandomField::total_energy`
//! bit for bit.
//!
//! The engine prices a plane from its own singleton and prior tables —
//! at every sweep boundary (`record_energy`) and on a raw plane such as
//! a fleet mirror (`ShardRunner::price`) — instead of re-evaluating the
//! field per edge. The energy trace is part of the bit-identity
//! contract, so the two must agree in every bit, not within a tolerance:
//!
//! - first- and second-order fields, Potts, squared-difference and
//!   truncated-quadratic priors, `M` ∈ {1, 2, 5, 49, 64}, 1×N and odd
//!   sizes, random labelings — through the shard runner and through an
//!   engine run's last energy-trace entry;
//! - a field above the singleton-cache cap, where the singleton is
//!   evaluated directly instead of read from the table;
//! - dyadic first-order fields, which take the exact integer path
//!   (`FixedRows`): shifts 0..=16, rows at the `i16` bound, negative
//!   singletons, `M` ∈ {2, 5, 49, 64}, 1×N and odd sizes — through
//!   `ShardRunner::price` on a raw plane and an engine run's last
//!   energy-trace entry; `price` refuses a short plane, a long plane and
//!   an out-of-range label with a typed `InvalidSpec`.

use mogs_engine::prelude::*;
use mogs_gibbs::SoftmaxGibbs;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABEL_COUNTS: [u16; 5] = [1, 2, 5, 49, 64];

fn prior(kind: usize) -> SmoothnessPrior {
    match kind {
        0 => SmoothnessPrior::potts(0.7),
        1 => SmoothnessPrior::squared_difference(0.13),
        _ => SmoothnessPrior::truncated_quadratic(0.31, 40.0),
    }
}

/// A field whose singletons have no short binary form, so any change in
/// summation order would show in the low bits.
fn field(
    width: usize,
    height: usize,
    labels: u16,
    prior_kind: usize,
    second_order: bool,
) -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    let neighborhood = if second_order {
        Neighborhood::SecondOrder
    } else {
        Neighborhood::FirstOrder
    };
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(labels))
        .neighborhood(neighborhood)
        .prior(prior(prior_kind))
        .singleton(|site: usize, label: Label| {
            (site as f64 * 0.731 + f64::from(label.value()) * 1.37).sin() * 3.3
        })
        .build()
}

fn random_plane(sites: usize, labels: u16, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..sites).map(|_| rng.gen_range(0..labels) as u8).collect()
}

/// The shard runner's energy of `plane` and the field's, as bit patterns.
fn both_energies<S>(mrf: &MarkovRandomField<S>, plane: &[u8]) -> (u64, u64)
where
    S: SingletonPotential + Clone + 'static,
{
    // One chunk per group: admission refuses more chunks than a tiny
    // field's groups have sites, and the energy does not depend on it.
    let spec = InferenceJob::new(mrf.clone(), SoftmaxGibbs::new())
        .threads(1)
        .build()
        .expect("valid spec");
    let runner = ShardRunner::try_new(spec, &[]).expect("admits");
    let labels: Vec<Label> = plane.iter().map(|&l| Label::new(l)).collect();
    (
        runner.price(plane).expect("plane fits the field").to_bits(),
        mrf.total_energy(&labels).to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_energy_is_total_energy_bit_for_bit(
        width in 1usize..12,
        height in 1usize..12,
        m in 0usize..5,
        prior_kind in 0usize..3,
        second_order in prop::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let labels = LABEL_COUNTS[m];
        let mrf = field(width, height, labels, prior_kind, second_order);
        for salt in 0..4 {
            let plane = random_plane(width * height, labels, seed ^ salt);
            let (table, field) = both_energies(&mrf, &plane);
            prop_assert_eq!(table, field);
        }
    }

    #[test]
    fn engine_energy_trace_is_total_energy_bit_for_bit(
        width in 1usize..10,
        height in 1usize..10,
        m in 0usize..5,
        prior_kind in 0usize..3,
        second_order in prop::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let mrf = field(width, height, LABEL_COUNTS[m], prior_kind, second_order);
        let spec = InferenceJob::new(mrf.clone(), SoftmaxGibbs::new())
            .threads(1)
            .seed(seed)
            .iterations(3)
            .record_energy(true)
            .build()
            .expect("valid spec");
        let engine = Engine::with_default_config();
        let out = engine.submit(spec).expect("admits").wait();
        engine.shutdown();
        let last = out.energy_trace.last().copied().expect("trace recorded");
        prop_assert_eq!(last.to_bits(), mrf.total_energy(&out.labels).to_bits());
    }
}

const DYADIC_LABEL_COUNTS: [u16; 4] = [2, 5, 49, 64];

/// A first-order field whose energies are integer multiples of `2^-k`
/// whose worst row sits at the `i16` bound: prior weight `weight` units
/// (one of the three priors), singletons hashed over `±span` units with
/// `span` filling the rest of the row, and every seventh entry at `±span`.
fn dyadic_field(
    width: usize,
    height: usize,
    labels: u16,
    k: u32,
    weight: u32,
    prior_kind: usize,
) -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    let steps = f64::from(labels - 1).powi(2);
    let (prior, worst) = match prior_kind {
        0 => (SmoothnessPrior::potts as fn(f64) -> SmoothnessPrior, 1.0),
        _ => (
            SmoothnessPrior::squared_difference as fn(f64) -> SmoothnessPrior,
            steps,
        ),
    };
    // Keep 4·max|prior| inside the bound: at most 8191 units of prior.
    let weight = f64::from(weight).min((8191.0 / worst).floor()).max(1.0);
    let span = f64::from(i16::MAX) - 4.0 * weight * worst;
    let unit = 0.5f64.powi(k as i32);
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(labels))
        .prior(prior(weight * unit))
        .singleton(move |site: usize, label: Label| {
            let key = site * 64 + usize::from(label.value());
            let units = if key.is_multiple_of(7) {
                if key.is_multiple_of(2) {
                    span
                } else {
                    -span
                }
            } else {
                let h = (key as u64 ^ 0x9E37_79B9).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 11;
                (h % (2 * span as u64 + 1)) as f64 - span
            };
            units * unit
        })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dyadic_fields_price_exactly_on_the_integer_path(
        width in 1usize..12,
        height in 1usize..12,
        m in 0usize..4,
        k in 0u32..=16,
        weight in 1u32..9000,
        prior_kind in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let labels = DYADIC_LABEL_COUNTS[m];
        let mrf = dyadic_field(width, height, labels, k, weight, prior_kind);
        prop_assert!(mrf.fixed_rows().is_some(), "the field takes the integer path");
        let spec = |seed: u64| {
            InferenceJob::new(mrf.clone(), SoftmaxGibbs::new())
                .threads(1)
                .seed(seed)
                .iterations(3)
                .record_energy(true)
                .build()
                .expect("valid spec")
        };
        let runner = ShardRunner::try_new(spec(seed), &[]).expect("admits");
        let sites = width * height;
        for salt in 0..4 {
            let plane = random_plane(sites, labels, seed ^ salt);
            let field: Vec<Label> = plane.iter().map(|&l| Label::new(l)).collect();
            let exact = mrf.total_energy(&field).to_bits();
            prop_assert_eq!(runner.price(&plane).expect("plane fits").to_bits(), exact);
        }
        let engine = Engine::with_default_config();
        let out = engine.submit(spec(seed)).expect("admits").wait();
        engine.shutdown();
        let last = out.energy_trace.last().copied().expect("trace recorded");
        prop_assert_eq!(last.to_bits(), mrf.total_energy(&out.labels).to_bits());

        let plane = random_plane(sites, labels, seed);
        let mut long = plane.clone();
        long.push(0);
        let mut foreign = plane.clone();
        foreign[sites / 2] = labels as u8;
        for bad in [&plane[..sites - 1], &long[..], &foreign[..]] {
            let refused = runner.price(bad);
            prop_assert!(
                matches!(refused, Err(EngineError::InvalidSpec { field: "plane", .. })),
                "{} labels priced as {:?}",
                bad.len(),
                refused
            );
        }
    }
}

/// Above `SINGLETON_CACHE_CAP` (2²² `sites × labels` entries) the runner
/// has no singleton table and evaluates the potential in place.
#[test]
fn uncached_singletons_are_total_energy_bit_for_bit() {
    // 300 × 225 sites × 64 labels = 4,320,000 > 4,194,304.
    for (prior_kind, second_order) in [(1, true), (2, false)] {
        let mrf = field(300, 225, 64, prior_kind, second_order);
        let plane = random_plane(300 * 225, 64, 0xCA9);
        let (table, field) = both_energies(&mrf, &plane);
        assert_eq!(
            table, field,
            "prior {prior_kind}, second order {second_order}"
        );
    }
}
