//! The RSU-G tournament's integer tick table against the f64 draw it
//! replaces, and the RNG premise that makes the two see the same number.
//!
//! The f64 path maps a raw draw `r = next_u64() >> 11` to
//! `capture(-(1 - r · 2⁻⁵³).ln() / rate)`. Multiplying by 2⁻⁵³ and `1 - u`
//! are exact, `ln` is within an ulp, and `÷` and `floor` are monotone, so
//! a tick can only be misplaced a few raw steps from one of its edges:
//! checking every edge, its predecessor and a window around it covers
//! every place the table could disagree with the f64 path.

use mogs_core::intensity::CODE_MAX;
use mogs_core::rsu_g::RsuGSampler;
use mogs_core::ttf::TtfRegister;
use mogs_mrf::{EnergyQuantizer, Label};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One past the largest raw draw.
const RAW_END: u64 = 1 << 53;

/// Raw draws checked on each side of every edge.
const WINDOW: u64 = 64;

/// The f64 tournament's reading for raw draw `raw` at intensity code
/// `code`, written out as the replaced tournament wrote it.
fn f64_tick(ttf: &TtfRegister, code: u8, raw: u64) -> u8 {
    let u = raw as f64 * (1.0 / RAW_END as f64);
    let rate = f64::from(code) * 0.04;
    ttf.capture(Some(-(1.0 - u).ln() / rate)).raw()
}

/// The tick the table gives `raw`: the largest `k` with `row[k] ≤ raw`.
fn table_tick(row: &[u64; 256], raw: u64) -> u8 {
    (row.partition_point(|&edge| edge <= raw) - 1) as u8
}

/// The registers under test: the 15 nm and 45 nm design points and a
/// faster and a slower clock.
fn samplers() -> Vec<(TtfRegister, RsuGSampler)> {
    let base = RsuGSampler::new(EnergyQuantizer::new(8.0), 4.0);
    let mut all = vec![(TtfRegister::at_1ghz(), base.clone())];
    for period in [1.0 / 0.59, 0.5, 3.0] {
        let ttf = TtfRegister::new(period);
        all.push((ttf, base.clone().with_ttf(ttf)));
    }
    all
}

#[test]
fn every_edge_is_the_first_raw_draw_reaching_its_tick() {
    for (ttf, sampler) in samplers() {
        for code in 1..=CODE_MAX {
            let row = sampler.tick_thresholds(code);
            assert_eq!(row[0], 0, "code {code}: tick 0 starts at raw 0");
            assert!(
                row.windows(2).all(|w| w[0] <= w[1]),
                "code {code}: thresholds must not decrease"
            );
            for k in 1..=255u8 {
                let edge = row[usize::from(k)];
                assert!(edge <= RAW_END, "code {code} tick {k}: edge {edge}");
                if edge < RAW_END {
                    assert!(
                        f64_tick(&ttf, code, edge) >= k,
                        "code {code} tick {k} at {edge}"
                    );
                }
                assert!(
                    f64_tick(&ttf, code, edge - 1) < k,
                    "code {code} tick {k} below {edge}"
                );
            }
        }
    }
}

#[test]
fn the_f64_tick_is_monotone_and_matches_the_table_around_every_edge() {
    for (ttf, sampler) in samplers() {
        for code in 1..=CODE_MAX {
            let row = sampler.tick_thresholds(code);
            for &edge in &row[1..] {
                let lo = edge.saturating_sub(WINDOW);
                let hi = (edge + WINDOW).min(RAW_END - 1);
                let mut last = f64_tick(&ttf, code, lo);
                for raw in lo..=hi {
                    let tick = f64_tick(&ttf, code, raw);
                    assert!(tick >= last, "code {code}: tick falls at raw {raw}");
                    assert_eq!(tick, table_tick(row, raw), "code {code} raw {raw}");
                    last = tick;
                }
            }
        }
    }
}

#[test]
fn random_raw_draws_read_the_same_tick() {
    for (ttf, sampler) in samplers() {
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..20_000 {
            let code = rng.gen_range(1..=CODE_MAX);
            let raw = rng.next_u64() >> 11;
            assert_eq!(
                f64_tick(&ttf, code, raw),
                table_tick(sampler.tick_thresholds(code), raw),
                "code {code} raw {raw}"
            );
        }
    }
}

/// An RNG that replays a script of raw draws.
struct Script(std::vec::IntoIter<u64>);

impl RngCore for Script {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the tournament draws u64s")
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("script exhausted") << 11
    }
}

/// Random draws almost never land on an edge, so script them there: two
/// equal energies light code 15 twice, and the second label wins only
/// from a strictly earlier tick.
#[test]
fn the_tournament_reads_ticks_exactly_at_the_edges() {
    let sampler = RsuGSampler::new(EnergyQuantizer::new(8.0), 4.0);
    let row = sampler.tick_thresholds(CODE_MAX);
    let current = Label::new(7);
    let draw = |first: u64, second: u64| {
        let mut rng = Script(vec![first, second].into_iter());
        sampler.draw_row(&[0.0, 0.0], current, &mut rng).value()
    };
    for (k, &edge) in row.iter().enumerate().take(255).skip(1) {
        assert_eq!(draw(edge, edge - 1), 1, "tick {} beats tick {k}", k - 1);
        assert_eq!(draw(edge, edge), 0, "a tie at tick {k} keeps label 0");
        assert_eq!(draw(edge - 1, edge), 0, "tick {} holds off tick {k}", k - 1);
    }
    assert_eq!(draw(row[255], row[255]), 7, "saturated twice keeps current");
    assert_eq!(draw(row[255], row[255] - 1), 1, "tick 254 beats saturation");
}

#[test]
fn default_samplers_share_one_table() {
    let a = RsuGSampler::new(EnergyQuantizer::new(8.0), 4.0);
    let b = RsuGSampler::new(EnergyQuantizer::new(3.0), 0.5);
    assert!(std::ptr::eq(a.tick_thresholds(7), b.tick_thresholds(7)));
    let own = a.clone().with_ttf(TtfRegister::at_1ghz());
    assert_eq!(own.tick_thresholds(7), a.tick_thresholds(7));
}

/// The table indexes by `next_u64() >> 11`; that is only the draw the f64
/// path saw while `gen::<f64>()` is that value times 2⁻⁵³ and consumes
/// exactly one `u64`.
#[test]
fn gen_f64_is_one_raw_draw_times_two_to_the_minus_53() {
    for seed in [0, 1, 27, u64::MAX] {
        let mut via_gen = StdRng::seed_from_u64(seed);
        let mut via_raw = via_gen.clone();
        for _ in 0..10_000 {
            let u: f64 = via_gen.gen();
            let raw = via_raw.next_u64() >> 11;
            assert_eq!(u.to_bits(), (raw as f64 * 2f64.powi(-53)).to_bits());
            assert_eq!(via_gen, via_raw, "gen::<f64>() must consume one u64");
        }
    }
}
