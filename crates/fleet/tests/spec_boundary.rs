//! Byte-boundary tests for the fleet spec: the text every worker is
//! launched with and every fleet checkpoint carries as its meta.
//!
//! The claims under test:
//!
//! - `FleetSpec::parse` on arbitrary strings returns a spec or a typed
//!   `Protocol`/`Spec` error, never a panic, and a spec it returns gets
//!   through `FleetStructure::of` (shard admission) with a typed
//!   outcome;
//! - a spec with any `u64` width, height, sweep budget and RSU pool size
//!   parses exactly when its grid names 1 to 2³² sites, its budget is at
//!   least one sweep and its pool holds `1..=MAX_REPLICAS` units, and is
//!   otherwise a typed `Spec` error — never an overflow (a product that
//!   wraps to one site included) or an abort allocating the pool;
//! - 100,000 levels of nesting under an unknown key are a typed
//!   `Protocol` error, not a stack overflow, and the parser's nesting
//!   bound sits well above the deepest spec or frame head the fleet
//!   writes.

use mogs_engine::MAX_REPLICAS;
use mogs_fleet::wire::{encode_to_coordinator, encode_to_worker, ToCoordinator, ToWorker};
use mogs_fleet::{BackendKind, FleetError, FleetSpec, FleetStructure, Workload};
use proptest::prelude::*;

/// Fragments of fleet specs, whitespace-separated, spliced at random by
/// [`arb_fleet_text`].
const FLEET_TOKENS: &str = r#"{ } : , " "workload" "kind" "demo" "stereo" "width" "height"
    "labels" "disparity" "noise_sigma" "scene_seed" "backend" "softmax" "rsu" "replicas"
    "iterations" "threads" "seed" "burn_in" "0000000000000011" 0 3 -1 1e309 8589934592
    67280421310721 4503599627370496 18446744073709551615"#;

/// Strings drawn from [`FLEET_TOKENS`], with a valid spec's text mixed in.
fn arb_fleet_text() -> impl Strategy<Value = String> {
    let valid = spec(6, 4, 3, None).encode();
    let tokens: Vec<&str> = FLEET_TOKENS.split_whitespace().collect();
    let parts = (0u8..3, 0usize..tokens.len(), 0usize..valid.len());
    prop::collection::vec(parts, 0..48).prop_map(move |parts| {
        parts
            .into_iter()
            .map(|(kind, token, cut)| match kind {
                0 => &valid[..cut],
                _ => tokens[token],
            })
            .collect()
    })
}

/// A `u64` that is often an edge: arbitrary, small, near 2^32, or a
/// power of two.
fn arb_edge_u64() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..=u64::MAX).prop_map(|(kind, bits)| match kind {
        0 => bits,
        1 => bits % 65,
        2 => (1u64 << 32) - 2 + bits % 5,
        _ => 1u64 << (bits % 64),
    })
}

/// A demo spec; `replicas` picks the RSU backend.
fn spec(width: usize, height: usize, iterations: usize, replicas: Option<usize>) -> FleetSpec {
    FleetSpec {
        workload: Workload::Demo {
            width,
            height,
            labels: 3,
        },
        backend: replicas.map_or(BackendKind::Softmax, |replicas| BackendKind::Rsu {
            replicas,
        }),
        iterations,
        threads: 2,
        seed: 17,
        burn_in: 1,
    }
}

/// Largest plane a test admits: admission builds the whole field.
const ADMIT_MAX_SITES: usize = 1 << 16;

/// Parses (and so validates) `text`, then admits what parses when its
/// plane is small.
fn parse_and_admit(text: &str) -> Result<(), FleetError> {
    let spec = FleetSpec::parse(text)?;
    if spec.workload.sites() <= ADMIT_MAX_SITES {
        FleetStructure::of(&spec)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_strings_never_panic_the_fleet_spec_parser(text in arb_fleet_text()) {
        if let Err(err) = parse_and_admit(&text) {
            prop_assert!(["protocol", "spec"].contains(&err.variant()), "{text:?}: {err:?}");
        }
    }

    #[test]
    fn any_u64_dimensions_budget_and_pool_are_typed(
        width in arb_edge_u64(),
        height in arb_edge_u64(),
        iterations in arb_edge_u64(),
        rsu in prop::bool::ANY,
        replicas in arb_edge_u64(),
    ) {
        let [w, h, n] = [width, height, iterations].map(|v| usize::try_from(v).unwrap_or(usize::MAX));
        let r = rsu.then(|| usize::try_from(replicas).unwrap_or(usize::MAX));
        let text = spec(w, h, n, r).encode();
        // Overflowing, or past what a u32 site index can name.
        let grid_ok = w.checked_mul(h).is_some_and(|s| (1..=1 << 32).contains(&s));
        let pool_ok = r.is_none_or(|r| (1..=MAX_REPLICAS).contains(&r));
        let admissible = grid_ok && n >= 1 && pool_ok;
        match FleetSpec::parse(&text) {
            Ok(_) => prop_assert!(admissible, "{}", text),
            Err(err) => {
                prop_assert!(!admissible, "{}: {:?}", text, err);
                prop_assert_eq!(err.variant(), "spec", "{}", text);
            }
        }
        // Admission may still refuse a parsed spec (two chunks on a
        // one-site group, say), but only typed.
        if let Err(err) = parse_and_admit(&text) {
            prop_assert_eq!(err.variant(), "spec", "{}: {:?}", text, err);
        }
    }
}

#[test]
fn overflowing_grids_are_typed_spec_errors() {
    // 2^33 x 2^31 overflows the site count, and 274177 x 67280421310721
    // is 2^64 + 1, which a wrapping product reads as one site.
    for (width, height) in [(1 << 33, 1 << 31), (274_177, 67_280_421_310_721)] {
        let err = FleetSpec::parse(&spec(width, height, 3, None).encode())
            .expect_err("grid out of range");
        assert_eq!(err.variant(), "spec", "{width}x{height}: {err}");
    }
    parse_and_admit(&spec(6, 4, 3, None).encode()).expect("a small grid admits");
}

#[test]
fn unbounded_rsu_pools_are_typed_spec_errors() {
    // 2^40 units would abort the process allocating the pool, and
    // usize::MAX would overflow its capacity.
    for replicas in [0, MAX_REPLICAS + 1, 1 << 40, usize::MAX] {
        let err = FleetSpec::parse(&spec(6, 4, 3, Some(replicas)).encode())
            .expect_err("pool out of range");
        assert_eq!(err.variant(), "spec", "{replicas}: {err}");
    }
    parse_and_admit(&spec(6, 4, 3, Some(MAX_REPLICAS)).encode()).expect("the largest pool admits");
}

/// The deepest nesting of objects and arrays in `json`, strings skipped.
fn nesting(json: &str) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for c in json.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            '}' | ']' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// The JSON head line of an encoded frame payload.
fn head(payload: &[u8]) -> String {
    let end = payload
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(payload.len());
    String::from_utf8(payload[..end].to_vec()).expect("UTF-8 head")
}

#[test]
fn a_spec_nested_100000_deep_under_an_unknown_key_is_a_typed_protocol_error() {
    let valid = spec(6, 4, 3, None).encode();
    let deep = format!(
        "{{\"future\":{}{},{}",
        "[".repeat(100_000),
        "]".repeat(100_000),
        &valid[1..]
    );
    let err = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || FleetSpec::parse(&deep))
        .expect("spawn the parsing thread")
        .join()
        .expect("the parse returns instead of overflowing its stack")
        .expect_err("nesting past the bound");
    let FleetError::Protocol { reason } = err else {
        panic!("expected a typed Protocol error, got {err:?}");
    };
    assert!(reason.contains("nested deeper than"), "{reason}");
}

#[test]
fn the_nesting_bound_sits_well_above_every_fleet_head() {
    let rsu = spec(6, 4, 3, Some(4)).encode();
    let heads = [
        rsu.clone(),
        head(&encode_to_worker(&ToWorker::Assign {
            digest: u64::MAX,
            cells: vec![(0, 1), (1, 0)],
            plane: Some(vec![0, 1, 2]),
            resume_sweep: 2,
            replay: vec![vec![(0, 1)], vec![]],
        })),
        head(&encode_to_worker(&ToWorker::Halo {
            updates: vec![(3, 1)],
        })),
        head(&encode_to_coordinator(&ToCoordinator::PhaseDone {
            sweep: 1,
            group: 0,
            updates: vec![(0, 2)],
        })),
        head(&encode_to_coordinator(&ToCoordinator::Fault {
            reason: "[[[\"a string, not a level\"]]]".to_string(),
        })),
    ];
    let deepest = heads.iter().map(|h| nesting(h)).max().unwrap_or(0);
    assert_eq!(deepest, 2, "{heads:?}");
    assert!(8 * deepest <= serde::de::MAX_DEPTH);
    FleetSpec::parse(&rsu).expect("the spec parses");
}
