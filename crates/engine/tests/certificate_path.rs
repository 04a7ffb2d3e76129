//! Integration tests for certificate-based admission: the engine's
//! greedy-colored schedule certificate degenerates to the field's
//! reference phase groups on grids, explicit overrides are still
//! admitted (and bit-identical to the default path), and a coloring
//! that puts neighbours in one phase is rejected before any label
//! plane is allocated.

use mogs_audit::{color_schedule, verify_certificate};
use mogs_engine::prelude::*;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{
    Grid2D, Label, LabelSpace, MarkovRandomField, Neighborhood, SmoothnessPrior, Topology,
};

/// A deterministic field; two calls with the same arguments build
/// identical fields.
fn field(
    width: usize,
    height: usize,
    order: Neighborhood,
) -> MarkovRandomField<impl SingletonPotential + Clone + 'static> {
    MarkovRandomField::builder(Grid2D::new(width, height), LabelSpace::scalar(4))
        .prior(SmoothnessPrior::potts(0.9))
        .neighborhood(order)
        .temperature(2.0)
        .singleton(|site: usize, label: Label| {
            if usize::from(label.value()) == site % 4 {
                0.0
            } else {
                1.2
            }
        })
        .build()
}

fn small_engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 2,
        max_active_jobs: 1,
        ..EngineConfig::default()
    })
}

/// The greedy coloring the engine admits grid jobs under is exactly the
/// field's reference phase groups — same class order, same within-class
/// site order — for every grid shape the runtime tests exercise. This
/// is the static half of the bit-identity argument (`kernel_identity`
/// holds the dynamic half).
#[test]
fn greedy_certificate_reproduces_the_reference_grid_schedule() {
    for order in [Neighborhood::FirstOrder, Neighborhood::SecondOrder] {
        for (width, height) in [(2, 2), (3, 5), (7, 4), (9, 9), (12, 10)] {
            let mrf = field(width, height, order);
            let topology = Topology::from_grid(Grid2D::new(width, height), order);
            let certificate = color_schedule(&topology, 1);
            assert!(
                verify_certificate(&topology, &certificate).is_clean(),
                "greedy certificate must verify on {width}x{height} {order:?}"
            );
            assert_eq!(
                certificate.classes(),
                &mrf.independent_groups()[..],
                "greedy classes diverge from reference groups on {width}x{height} {order:?}"
            );
        }
    }
}

/// An explicit group override equal to the reference schedule is
/// admitted through the claimed-certificate path and produces output
/// bit-identical to the default greedy path.
#[test]
fn explicit_group_override_is_admitted_and_bit_identical() {
    let engine = small_engine();
    let run = |groups: Option<Vec<Vec<usize>>>| {
        let sampler = BackendSampler::try_new(Backend::Softmax, 2.0).expect("backend");
        let mrf = field(6, 5, Neighborhood::SecondOrder);
        let mut builder = InferenceJob::new(mrf, sampler)
            .threads(2)
            .seed(0x5EED_CAFE)
            .iterations(3)
            .record_energy(false);
        if let Some(groups) = groups {
            builder = builder.groups(groups);
        }
        let spec = builder.build().expect("valid spec");
        engine.submit(spec).expect("admitted").wait()
    };
    let default_path = run(None);
    let explicit = field(6, 5, Neighborhood::SecondOrder).independent_groups();
    let override_path = run(Some(explicit));
    engine.shutdown();
    assert_eq!(default_path.labels, override_path.labels);
}

/// A coloring that places two adjacent sites in the same phase is
/// rejected at submission with `EngineError::Schedule`; the job never
/// runs.
#[test]
fn interfering_override_is_rejected_at_admission() {
    let engine = small_engine();
    let sampler = BackendSampler::try_new(Backend::Softmax, 2.0).expect("backend");
    let mrf = field(4, 4, Neighborhood::FirstOrder);
    // Sites 0 and 1 are horizontal neighbours; force them into phase 0.
    let mut groups = mrf.independent_groups();
    let moved = groups[1].remove(0);
    groups[0].push(moved);
    groups[0].sort_unstable();
    let spec = InferenceJob::new(mrf, sampler)
        .threads(1)
        .seed(1)
        .iterations(1)
        .groups(groups)
        .build()
        .expect("spec validation does not audit the schedule");
    let err = engine.submit(spec).expect_err("must be rejected");
    engine.shutdown();
    assert!(
        matches!(err, EngineError::Schedule(_)),
        "expected a schedule rejection, got {err:?}"
    );
}
