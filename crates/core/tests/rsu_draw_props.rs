//! Property test: the fused RSU-G draw (`RsuGSampler::draw_row` behind
//! `sample_label`, both chunk kernels and `probe_distribution`, and its
//! fixed-point twin `draw_fixed_row` behind both fixed chunk kernels) is
//! bit-identical to the tournament it replaced — same labels out, same
//! RNG state afterwards — on adversarial rows, maps, scales, TTF
//! registers and faults.
//!
//! [`Reference`] keeps the replaced arithmetic verbatim: an `f64::round`
//! quantizer, every label through the LUT, one draw per non-zero code.

use mogs_core::intensity::{IntensityMap, LUT_ENTRIES};
use mogs_core::rsu_g::RsuGSampler;
use mogs_core::ttf::{TtfReading, TtfRegister};
use mogs_engine::prelude::RsuPool;
use mogs_gibbs::kernel::{KernelScratch, SweepKernel, UnitFault};
use mogs_gibbs::LabelSampler;
use mogs_mrf::label::MAX_LABELS;
use mogs_mrf::{EnergyQuantizer, Label};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The quantizer scales under test.
const SCALES: [f64; 4] = [1.0, 3.0, 8.0, 16.0];

/// The replaced RSU-G draw, test-only.
#[derive(Debug, Clone)]
struct Reference {
    scale: f64,
    map: IntensityMap,
    ttf: TtfRegister,
    base_rate_per_code: f64,
    fault: Option<UnitFault>,
}

impl Reference {
    fn quantize(&self, energy: f64) -> u8 {
        let scaled = (energy * self.scale).round();
        if scaled <= 0.0 {
            0
        } else if scaled >= 255.0 {
            255
        } else {
            scaled as u8
        }
    }

    fn codes(&self, energies: &[f64]) -> Vec<u8> {
        let min = energies.iter().copied().fold(f64::INFINITY, f64::min);
        energies
            .iter()
            .map(|e| self.map.lookup(self.quantize(e - min)))
            .collect()
    }

    fn dark_reading<R: Rng + ?Sized>(&self, rng: &mut R) -> TtfReading {
        if let Some(UnitFault::DarkCount { rate_per_ns }) = self.fault {
            if rate_per_ns > 0.0 {
                let ttf = -(1.0 - rng.gen::<f64>()).ln() / rate_per_ns;
                return self.ttf.capture(Some(ttf));
            }
        }
        TtfReading::Saturated
    }

    fn sample_label<R: Rng + ?Sized>(
        &self,
        energies: &[f64],
        current: Label,
        rng: &mut R,
    ) -> Label {
        match self.fault {
            Some(UnitFault::Dead) => return current,
            Some(UnitFault::Stuck(label)) => return label,
            _ => {}
        }
        let dark = self.dark_reading(rng);
        let mut best_label = current;
        let mut best = TtfReading::Saturated;
        let min = energies.iter().copied().fold(f64::INFINITY, f64::min);
        for (m, e) in energies.iter().enumerate() {
            let q = self.quantize(e - min);
            let code = self.map.lookup(q);
            if code == 0 {
                continue;
            }
            let rate = f64::from(code) * self.base_rate_per_code;
            let ttf = -(1.0 - rng.gen::<f64>()).ln() / rate;
            let reading = self.ttf.capture(Some(ttf));
            if reading < best {
                best = reading;
                best_label = Label::new(m as u8);
            }
        }
        if dark < best {
            return Label::new(rng.gen_range(0..energies.len().max(1)) as u8);
        }
        best_label
    }

    fn probe_distribution(&self, energies: &[f64], draws: u32, seed: u64) -> Vec<f64> {
        let worst = energies
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        let current = Label::new(u8::try_from(worst).unwrap_or(u8::MAX));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; usize::from(MAX_LABELS)];
        for _ in 0..draws {
            counts[usize::from(self.sample_label(energies, current, &mut rng).value())] += 1;
        }
        let total = f64::from(draws.max(1));
        counts.into_iter().map(|c| c as f64 / total).collect()
    }
}

/// One unit under test and its reference twin.
fn unit(rng: &mut StdRng) -> (RsuGSampler, Reference) {
    let scale = SCALES[rng.gen_range(0..SCALES.len())];
    let quantizer = EnergyQuantizer::new(scale);
    let t_model = [0.05, 0.4, 1.5, 4.0, 30.0][rng.gen_range(0..5usize)];
    let mut sampler = RsuGSampler::new(quantizer, t_model);
    let mut map = IntensityMap::boltzmann(t_model * scale);
    let mut table = [0u8; LUT_ENTRIES];
    match rng.gen_range(0..6) {
        // Random, non-monotone: any code at any energy.
        0 => table.iter_mut().for_each(|c| *c = rng.gen_range(0..=15)),
        // Sparse, non-monotone, dark at the top.
        1 => {
            let lit = rng.gen_range(0usize..255);
            for _ in 0..rng.gen_range(1..6) {
                table[rng.gen_range(0..=lit)] = rng.gen_range(1..=15);
            }
        }
        // All LEDs off.
        2 => {}
        // The top entry lit, so no energy can be filtered out.
        3 => {
            table.iter_mut().for_each(|c| *c = rng.gen_range(0..=3));
            table[LUT_ENTRIES - 1] = rng.gen_range(1..=15);
        }
        // The Boltzmann map `new` built.
        _ => table = *map.entries(),
    }
    if table != *map.entries() {
        map = IntensityMap::from_entries(table);
        sampler = sampler.with_map(map.clone());
    }
    let fault = match rng.gen_range(0..6) {
        0 => Some(UnitFault::Dead),
        1 => Some(UnitFault::Stuck(Label::new(rng.gen_range(0..64)))),
        2 => Some(UnitFault::DarkCount {
            rate_per_ns: rng.gen_range(0.001..2.0),
        }),
        3 => Some(UnitFault::DarkCount { rate_per_ns: 0.0 }),
        _ => None,
    };
    sampler.set_fault(fault);
    // Half the units get their own register, so their own tick table.
    let ttf = match rng.gen_range(0..4) {
        0 => TtfRegister::new(1.0 / 0.59),
        1 => TtfRegister::new(rng.gen_range(0.25..4.0)),
        _ => TtfRegister::at_1ghz(),
    };
    if ttf != TtfRegister::at_1ghz() {
        sampler = sampler.with_ttf(ttf);
    }
    let reference = Reference {
        scale,
        map,
        ttf,
        base_rate_per_code: 0.04,
        fault,
    };
    (sampler, reference)
}

/// An energy row of `m` labels: ordinary energies around a random base,
/// exact `(k + 0.5) / scale` rounding ties and their neighbouring
/// floats, the row's minimum planted so ties stay exact, ±inf, NaN, ±0,
/// or one value repeated across the row.
fn row(rng: &mut StdRng, m: usize) -> Vec<f64> {
    let scale = SCALES[rng.gen_range(0..SCALES.len())];
    let base = [0.0, -0.0, 3.25, -17.0, 1e6, 1e17][rng.gen_range(0..6usize)];
    let tie =
        |rng: &mut StdRng| -> f64 { base + (f64::from(rng.gen_range(0u16..256)) + 0.5) / scale };
    if rng.gen_range(0..8) == 0 {
        let v =
            [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.5][rng.gen_range(0..6usize)];
        return vec![v; m];
    }
    // Non-finite entries in one row of four, so most rows keep a finite
    // minimum and a live tournament.
    let kinds = if rng.gen_range(0..4) == 0 { 16 } else { 11 };
    let mut row: Vec<f64> = (0..m)
        .map(|_| match rng.gen_range(0..kinds) {
            0..=5 => base + rng.gen_range(0.0..300.0) / scale,
            6..=8 => tie(rng),
            9 => tie(rng).next_up(),
            10 => tie(rng).next_down(),
            11 => f64::NAN,
            12 => f64::INFINITY,
            13 => f64::NEG_INFINITY,
            14 => -0.0,
            _ => base,
        })
        .collect();
    if rng.gen_range(0..2) == 0 {
        let at = rng.gen_range(0..m);
        row[at] = base;
    }
    row
}

/// A fixed-point row of `m` labels in units of `2^-k`: offsets around
/// a random base that land on, and one unit either side of, the
/// quantizer's rounding ties `(q + 0.5) / scale`, ordinary offsets, the
/// base itself, and the `i16` extremes (offsets up to 65,535 units).
fn fixed_row(rng: &mut StdRng, m: usize, k: u32, scale: f64) -> Vec<i16> {
    let base = rng.gen_range(-20_000i32..20_000);
    let units = f64::from(1u32 << k);
    let clamp = |v: i32| v.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
    let mut row: Vec<i16> = (0..m)
        .map(|_| match rng.gen_range(0..10) {
            0..=3 => {
                let tie = (f64::from(rng.gen_range(0u16..256)) + 0.5) / scale * units;
                clamp(base + tie.floor() as i32 + rng.gen_range(-1..=1))
            }
            4..=6 => clamp(base + rng.gen_range(0..(300.0 * units / scale) as i32 + 2)),
            7 => clamp(base),
            8 => i16::MIN,
            _ => i16::MAX,
        })
        .collect();
    if rng.gen_range(0..2) == 0 {
        let at = rng.gen_range(0..m);
        row[at] = clamp(base);
    }
    row
}

fn labels(rng: &mut StdRng, n: usize, m: usize) -> Vec<Label> {
    (0..n)
        .map(|_| Label::new(rng.gen_range(0..m) as u8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `sample_label`, `codes` and the single-unit chunk kernel against
    /// the reference, row by row, with the RNG compared at the end.
    #[test]
    fn fused_draw_matches_the_reference_tournament(
        seed in 0u64..u64::MAX,
        m in 1usize..=64,
        sites in 1usize..12,
    ) {
        let mut gen = StdRng::seed_from_u64(seed);
        let (sampler, reference) = unit(&mut gen);
        let energies: Vec<f64> = (0..sites).flat_map(|_| row(&mut gen, m)).collect();
        let current = labels(&mut gen, sites, m);

        let mut rng_ref = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut rng_new = rng_ref.clone();
        let mut rng_chunk = rng_ref.clone();
        let mut per_site = sampler.clone();
        let mut expect = Vec::with_capacity(sites);
        for (j, e) in energies.chunks_exact(m).enumerate() {
            prop_assert_eq!(sampler.codes(e), reference.codes(e));
            let want = reference.sample_label(e, current[j], &mut rng_ref);
            let got = per_site.sample_label(e, 1.0, current[j], &mut rng_new);
            prop_assert_eq!(got, want);
            expect.push(want);
        }
        let mut out = vec![Label::new(0); sites];
        sampler.clone().sample_chunk(
            &energies, m, 1.0, &current, &mut out, &mut KernelScratch::new(), &mut rng_chunk,
        );
        prop_assert_eq!(out, expect);
        let next = rng_ref.gen::<u64>();
        prop_assert_eq!(rng_new.gen::<u64>(), next);
        prop_assert_eq!(rng_chunk.gen::<u64>(), next);
    }

    /// The fixed-point entry (`draw_fixed_row` and the single-unit fixed
    /// chunk) against the reference on the same rows scaled to f64, for
    /// every shift 0..=16, row by row, with the RNG compared at the end.
    #[test]
    fn fixed_row_draw_matches_the_reference_tournament(
        seed in 0u64..u64::MAX,
        m in 1usize..=64,
        sites in 1usize..12,
        k in 0u32..=16,
    ) {
        let mut gen = StdRng::seed_from_u64(seed);
        let (sampler, reference) = unit(&mut gen);
        let rows: Vec<i16> = (0..sites).flat_map(|_| fixed_row(&mut gen, m, k, reference.scale)).collect();
        let energies: Vec<f64> = rows.iter().map(|&u| f64::from(u) * 0.5f64.powi(k as i32)).collect();
        let current = labels(&mut gen, sites, m);

        let mut rng_ref = StdRng::seed_from_u64(seed ^ 0xF1ED);
        let mut rng_new = rng_ref.clone();
        let mut rng_chunk = rng_ref.clone();
        let mut expect = Vec::with_capacity(sites);
        for (j, (row, e)) in rows.chunks_exact(m).zip(energies.chunks_exact(m)).enumerate() {
            let want = reference.sample_label(e, current[j], &mut rng_ref);
            prop_assert_eq!(sampler.draw_fixed_row(row, k, current[j], &mut rng_new), want);
            expect.push(want);
        }
        let mut out = vec![Label::new(0); sites];
        sampler.clone().sample_fixed_chunk(
            &rows, m, k, 1.0, &current, &mut out, &mut KernelScratch::new(), &mut rng_chunk,
        );
        prop_assert_eq!(out, expect);
        let next = rng_ref.gen::<u64>();
        prop_assert_eq!(rng_new.gen::<u64>(), next);
        prop_assert_eq!(rng_chunk.gen::<u64>(), next);
    }

    /// A pool's fixed chunk against its f64 chunk on the same rows, with
    /// a quarantined subset and a skewed rotation: same labels, same RNG
    /// state, and the same pool state (rotation included) afterwards.
    #[test]
    fn pooled_fixed_chunk_matches_the_pooled_f64_chunk(
        seed in 0u64..u64::MAX,
        m in 1usize..=64,
        sites in 1usize..24,
        replicas in 1usize..6,
        skew in 0usize..11,
        k in 0u32..=16,
    ) {
        let mut gen = StdRng::seed_from_u64(seed);
        let (units, references): (Vec<_>, Vec<_>) = (0..replicas).map(|_| unit(&mut gen)).unzip();
        let mut pool = RsuPool::from_units(units);
        let mut live: Vec<bool> = (0..replicas).map(|_| gen.gen_range(0..3) > 0).collect();
        live[gen.gen_range(0..replicas)] = true;
        prop_assert!(pool.set_live_units(&live) > 0);
        let skew_row = row(&mut gen, m);
        let mut skew_rng = StdRng::seed_from_u64(seed ^ 0x5CE7);
        for _ in 0..skew {
            let _ = pool.sample_label(&skew_row, 1.0, Label::new(0), &mut skew_rng);
        }
        let scale = references[0].scale;
        let rows: Vec<i16> = (0..sites).flat_map(|_| fixed_row(&mut gen, m, k, scale)).collect();
        let energies: Vec<f64> = rows.iter().map(|&u| f64::from(u) * 0.5f64.powi(k as i32)).collect();
        let current = labels(&mut gen, sites, m);

        let mut f64_pool = pool.clone();
        let mut rng_f64 = StdRng::seed_from_u64(seed ^ 0x9002);
        let mut rng_fixed = rng_f64.clone();
        let mut want = vec![Label::new(0); sites];
        f64_pool.sample_chunk(
            &energies, m, 1.0, &current, &mut want, &mut KernelScratch::new(), &mut rng_f64,
        );
        let mut got = vec![Label::new(0); sites];
        pool.sample_fixed_chunk(
            &rows, m, k, 1.0, &current, &mut got, &mut KernelScratch::new(), &mut rng_fixed,
        );
        prop_assert_eq!(got, want);
        prop_assert_eq!(rng_fixed.gen::<u64>(), rng_f64.gen::<u64>());
        prop_assert_eq!(format!("{pool:?}"), format!("{f64_pool:?}"), "pool state diverged");
    }

    /// The health monitor's probe against the reference probe.
    #[test]
    fn probe_distribution_matches_the_reference(
        seed in 0u64..u64::MAX,
        m in 1usize..=64,
        draws in 1u32..200,
    ) {
        let mut gen = StdRng::seed_from_u64(seed);
        let (sampler, reference) = unit(&mut gen);
        let e = row(&mut gen, m);
        prop_assert_eq!(
            sampler.probe_distribution(&e, draws, seed),
            reference.probe_distribution(&e, draws, seed)
        );
    }

    /// A pool of distinct units with a quarantined subset and a rotation
    /// skewed off unit 0: site `j` must land on live unit
    /// `(skew + j) % live` and draw what that unit's reference draws.
    #[test]
    fn pooled_chunk_matches_the_reference_rotation(
        seed in 0u64..u64::MAX,
        m in 1usize..=64,
        sites in 1usize..24,
        replicas in 1usize..6,
        skew in 0usize..11,
    ) {
        let mut gen = StdRng::seed_from_u64(seed);
        let (units, references): (Vec<_>, Vec<_>) = (0..replicas).map(|_| unit(&mut gen)).unzip();
        let mut pool = RsuPool::from_units(units);
        let mut live: Vec<bool> = (0..replicas).map(|_| gen.gen_range(0..3) > 0).collect();
        live[gen.gen_range(0..replicas)] = true;
        prop_assert!(pool.set_live_units(&live) > 0);
        let rotation: Vec<usize> = (0..replicas).filter(|&i| live[i]).collect();
        let skew_row = row(&mut gen, m);
        let mut skew_rng = StdRng::seed_from_u64(seed ^ 0x5CE7);
        for _ in 0..skew {
            let _ = pool.sample_label(&skew_row, 1.0, Label::new(0), &mut skew_rng);
        }
        let energies: Vec<f64> = (0..sites).flat_map(|_| row(&mut gen, m)).collect();
        let current = labels(&mut gen, sites, m);

        let mut rng_ref = StdRng::seed_from_u64(seed ^ 0x9001);
        let mut rng_new = rng_ref.clone();
        let expect: Vec<Label> = energies
            .chunks_exact(m)
            .enumerate()
            .map(|(j, e)| {
                references[rotation[(skew + j) % rotation.len()]]
                    .sample_label(e, current[j], &mut rng_ref)
            })
            .collect();
        let mut out = vec![Label::new(0); sites];
        pool.sample_chunk(
            &energies, m, 1.0, &current, &mut out, &mut KernelScratch::new(), &mut rng_new,
        );
        prop_assert_eq!(out, expect);
        prop_assert_eq!(rng_new.gen::<u64>(), rng_ref.gen::<u64>());
    }
}
