//! The RSU-G: a Gibbs sampling unit for first-order MRFs (paper §4–§5).
//!
//! [`RsuG`] is the bit-level functional model: 6-bit inputs in, one 6-bit
//! label out, with the exact quantization chain of the hardware —
//! 8-bit saturating energies → 4-bit intensity codes → exponential TTFs
//! captured in an 8-bit register → first-to-fire selection.
//!
//! [`RsuGSampler`] adapts the same chain to the
//! [`mogs_gibbs::LabelSampler`] interface, so any MCMC chain in the
//! workspace can run on the "hardware" sampler and be compared against the
//! exact software Gibbs sampler — the fidelity and quality experiments of
//! DESIGN.md (A1, A3).

use crate::energy_unit::{EnergyUnit, EnergyUnitConfig};
use crate::intensity::{IntensityMap, CODE_MAX};
use crate::ttf::{TtfReading, TtfRegister, TTF_TICKS};
use crate::variants::RsuVariant;
use mogs_gibbs::kernel::{KernelScratch, SweepKernel, UnitFault};
use mogs_gibbs::LabelSampler;
use mogs_mrf::field::FIXED_SHIFT_MAX;
use mogs_mrf::label::MAX_LABELS;
use mogs_mrf::precision::{EnergyQuantizer, ENERGY_MAX};
use mogs_mrf::Label;
use mogs_ret::circuit::{RetCircuit, RetCircuitConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// How the unit's RET stage produces TTF samples.
#[derive(Debug, Clone, Default)]
pub enum RetBackend {
    /// Draw from the matched exponential directly (fast; the default).
    #[default]
    Ideal,
    /// Drive a simulated [`RetCircuit`] per label evaluation — the full
    /// optical path with SPAD efficiency, dark counts, and the circuit's
    /// nonlinear code→rate curve. Used for substrate-fidelity studies.
    Circuit(RetCircuitConfig),
}

/// Configuration of an RSU-G unit.
#[derive(Debug, Clone)]
pub struct RsuGConfig {
    /// Number of labels `M` (1..=64); the down-counter's initial value is
    /// `M − 1`.
    pub labels: u8,
    /// Width variant (how many labels are evaluated per cycle).
    pub variant: RsuVariant,
    /// Energy datapath configuration.
    pub energy: EnergyUnitConfig,
    /// The energy→intensity lookup table.
    pub map: IntensityMap,
    /// TTF capture register (sets the clock and window).
    pub ttf: TtfRegister,
    /// Exponential rate contributed by one intensity-code unit (ns⁻¹):
    /// a circuit at code `c` fires at rate `c · base_rate_per_code`.
    ///
    /// The default (0.04) balances the two 8-bit-register quantization
    /// artifacts: higher rates make same-tick ties (broken toward the
    /// lower label) more likely; lower rates push weak labels past the
    /// 32 ns capture window.
    pub base_rate_per_code: f64,
    /// The RET sampling stage's physical fidelity.
    pub backend: RetBackend,
}

impl RsuGConfig {
    /// A standard RSU-G1 configuration for `labels` labels with a Boltzmann
    /// intensity map at 8-bit-domain temperature `t8`.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is outside `1..=64` or `t8` is not positive.
    pub fn for_labels(labels: u8, t8: f64) -> Self {
        assert!((1..=64).contains(&labels), "label count must be in 1..=64");
        RsuGConfig {
            labels,
            variant: RsuVariant::g1(),
            energy: EnergyUnitConfig::default(),
            map: IntensityMap::boltzmann(t8),
            ttf: TtfRegister::at_1ghz(),
            base_rate_per_code: 0.04,
            backend: RetBackend::Ideal,
        }
    }
}

/// The per-site inputs of an RSU-G sampling operation (§6: four neighbour
/// labels, the site's data value, and a per-label comparison data stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteInputs {
    /// Current labels of the four neighbours; `None` marks an absent
    /// (image-boundary) neighbour, which contributes zero doubleton energy.
    pub neighbors: [Option<u8>; 4],
    /// `DATA1`: the site's 6-bit observation.
    pub data1: u8,
    /// `DATA2` stream: the per-label 6-bit comparison value. A single
    /// entry is broadcast to every label; otherwise the length must be `M`.
    pub data2: Vec<u8>,
}

impl SiteInputs {
    /// The `DATA2` value for label `m`.
    fn data2_for(&self, m: usize) -> u8 {
        if self.data2.len() == 1 {
            self.data2[0]
        } else {
            self.data2[m]
        }
    }
}

/// The result of one site evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSample {
    /// The winning label (the site's new value).
    pub label: Label,
    /// Latency of the operation in unit cycles (variant formula, §5.1).
    pub cycles: u32,
    /// The winning TTF reading (saturated when no circuit fired).
    pub ttf: TtfReading,
}

/// The RSU-G functional unit.
#[derive(Debug, Clone)]
pub struct RsuG {
    config: RsuGConfig,
    energy_unit: EnergyUnit,
    /// Instantiated when the backend is [`RetBackend::Circuit`].
    circuit: Option<RetCircuit>,
}

impl RsuG {
    /// Creates a unit.
    ///
    /// # Panics
    ///
    /// Panics if the label count is outside `1..=64` or the base rate is
    /// not strictly positive and finite.
    pub fn new(config: RsuGConfig) -> Self {
        assert!(
            (1..=64).contains(&config.labels),
            "label count must be in 1..=64"
        );
        assert!(
            config.base_rate_per_code.is_finite() && config.base_rate_per_code > 0.0,
            "base rate must be positive"
        );
        let energy_unit = EnergyUnit::new(config.energy);
        let circuit = match &config.backend {
            RetBackend::Ideal => None,
            RetBackend::Circuit(circuit_config) => Some(RetCircuit::new(circuit_config.clone())),
        };
        RsuG {
            config,
            energy_unit,
            circuit,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RsuGConfig {
        &self.config
    }

    /// Mutable access to the configuration (the ISA layer rewrites the map
    /// and down counter through control-register writes).
    pub(crate) fn config_mut(&mut self) -> &mut RsuGConfig {
        &mut self.config
    }

    /// The 8-bit energies of every candidate label for these inputs
    /// (pipeline stage 2 output, one per down-counter step).
    pub fn energies(&self, inputs: &SiteInputs) -> Vec<u8> {
        (0..usize::from(self.config.labels))
            .map(|m| {
                self.energy_unit.energy(
                    m as u8,
                    inputs.neighbors,
                    inputs.data1,
                    inputs.data2_for(m),
                )
            })
            .collect()
    }

    /// The intensity codes after the LUT (pipeline stage 3 output).
    pub fn intensity_codes(&self, inputs: &SiteInputs) -> Vec<u8> {
        self.energies(inputs)
            .iter()
            .map(|&e| self.config.map.lookup(e))
            .collect()
    }

    /// Ideal (quantization-free) win probabilities implied by the intensity
    /// codes: `P(m) = code_m / Σ codes`. The TTF register adds further
    /// quantization on top; tests measure the residual gap.
    ///
    /// Returns a uniform-over-`M` vector when every code is zero.
    pub fn ideal_win_probabilities(&self, inputs: &SiteInputs) -> Vec<f64> {
        let codes = self.intensity_codes(inputs);
        let total: f64 = codes.iter().map(|&c| f64::from(c)).sum();
        if total <= 0.0 {
            let m = codes.len() as f64;
            return vec![1.0 / m; codes.len()];
        }
        codes.into_iter().map(|c| f64::from(c) / total).collect()
    }

    /// Performs one complete sampling operation: evaluates all `M` labels
    /// and returns the first-to-fire winner with its latency.
    ///
    /// Hardware tie behaviour: the selection stage keeps the *earlier*
    /// evaluated label on an exact tick tie, and if no circuit fires within
    /// the window, label 0's (saturated) reading survives — the returned
    /// label is then 0. Both behaviours match a strict-less-than
    /// compare-and-update (§5.2 Selection).
    ///
    /// # Panics
    ///
    /// Panics if the `DATA2` stream has neither 1 nor `M` entries.
    pub fn sample_site<R: Rng + ?Sized>(&mut self, inputs: &SiteInputs, rng: &mut R) -> SiteSample {
        if self.data2_len_invalid(inputs) {
            panic!(
                "DATA2 stream must have 1 or M={} entries, got {}",
                self.config.labels,
                inputs.data2.len()
            );
        }
        let mut best_label = 0u8;
        let mut best = TtfReading::Saturated;
        let mut first = true;
        for m in 0..self.config.labels {
            let e = self.energy_unit.energy(
                m,
                inputs.neighbors,
                inputs.data1,
                inputs.data2_for(usize::from(m)),
            );
            let code = self.config.map.lookup(e);
            let ttf = self.draw_ttf(code, rng);
            let reading = self.config.ttf.capture(ttf);
            if first || reading < best {
                best = reading;
                best_label = m;
                first = false;
            }
        }
        SiteSample {
            label: Label::new(best_label),
            cycles: self.config.variant.latency_cycles(self.config.labels),
            ttf: best,
        }
    }

    fn data2_len_invalid(&self, inputs: &SiteInputs) -> bool {
        inputs.data2.len() != 1 && inputs.data2.len() != usize::from(self.config.labels)
    }

    /// Draws a physical TTF (ns) for an intensity code, or `None` when the
    /// LEDs are off (or, on the circuit backend, when no photon arrives in
    /// the observation window).
    fn draw_ttf<R: Rng + ?Sized>(&mut self, code: u8, rng: &mut R) -> Option<f64> {
        if code == 0 {
            return None;
        }
        match &mut self.circuit {
            Some(circuit) => {
                circuit.set_intensity_code(code);
                circuit.sample_ttf(rng)
            }
            None => {
                let rate = f64::from(code) * self.config.base_rate_per_code;
                Some(-(1.0 - rng.gen::<f64>()).ln() / rate)
            }
        }
    }
}

/// Adapter running the RSU-G quantization chain behind the
/// [`mogs_gibbs::LabelSampler`] interface.
///
/// Model-level (f64) conditional energies are min-shifted (software
/// pre-conditioning: the Boltzmann distribution is shift-invariant and the
/// paper pre-factors application scaling into the data), quantized to 8
/// bits, mapped through the LUT, and submitted to the first-to-fire
/// tournament. The chain's runtime temperature argument is **ignored**:
/// hardware bakes the temperature into the intensity map at initialization.
#[derive(Debug, Clone)]
pub struct RsuGSampler {
    quantizer: EnergyQuantizer,
    map: IntensityMap,
    /// [`candidate_span`] of `quantizer` and `map`, kept in step with both.
    candidate_span: f64,
    ttf: TtfRegister,
    /// The tournament's thresholds for `ttf` at [`SAMPLER_BASE_RATE`].
    ticks: Arc<TickTable>,
    /// Fixed-row intensity codes of `quantizer` and `map`, shared by
    /// clones and reset by [`RsuGSampler::with_map`].
    codes: Arc<CodeTables>,
    fault: Option<UnitFault>,
}

/// The sampler's exponential rate per intensity-code unit (ns⁻¹).
const SAMPLER_BASE_RATE: f64 = 0.04;

/// 2⁵³: one past the largest raw draw `next_u64() >> 11`, and the
/// threshold of a tick no draw reaches.
const RAW_END: u64 = 1 << 53;

const TICKS: usize = TTF_TICKS as usize;

/// The raw register value the f64 tournament captures for raw draw `raw`
/// at firing rate `rate`: `gen::<f64>()` is `raw · 2⁻⁵³`, so this is the
/// exponential draw `-(1 - u).ln() / rate` through [`TtfRegister::capture`].
fn f64_tick(ttf: &TtfRegister, rate: f64, raw: u64) -> u8 {
    let u = raw as f64 * (1.0 / RAW_END as f64);
    ttf.capture(Some(-(1.0 - u).ln() / rate)).raw()
}

/// A [`TickTable`] guide bucket is the top ten bits of a 53-bit raw draw.
const GUIDE_BITS: u32 = 10;

/// The raw-draw bits below a guide bucket's.
const GUIDE_SHIFT: u32 = 53 - GUIDE_BITS;

/// A guide entry whose bucket the 8-step search must resolve.
const WIDE: u8 = u8::MAX;

/// Per-code tick thresholds: `edges[c][k]` is the smallest raw draw whose
/// [`f64_tick`] at code `c` is ≥ `k` ([`RAW_END`] if none is), so a draw's
/// tick is the largest `k` with `edges[c][k] ≤ raw`, and column 255 is the
/// saturated reading. `guide[c][b]` is the tick at the first raw draw of
/// bucket `b = raw >> GUIDE_SHIFT`, or [`WIDE`] unless every draw in the
/// bucket reads that tick or the next. Row 0 is unused: code 0 draws
/// nothing.
struct TickTable {
    edges: [[u64; TICKS]; CODE_MAX as usize + 1],
    guide: [[u8; 1 << GUIDE_BITS]; CODE_MAX as usize + 1],
}

impl TickTable {
    /// Bisects [`f64_tick`] itself for every edge, so the table is exact
    /// wherever the tick is monotone in the raw draw (DESIGN §11).
    fn build(ttf: &TtfRegister) -> Self {
        let mut edges = [[RAW_END; TICKS]; CODE_MAX as usize + 1];
        for (code, row) in edges.iter_mut().enumerate().skip(1) {
            let rate = code as f64 * SAMPLER_BASE_RATE;
            row[0] = 0;
            for (k, edge) in row.iter_mut().enumerate().skip(1) {
                // u ≥ 1 − exp(−k · tick · rate) fires at or after tick k.
                let x = k as f64 * ttf.tick_ns() * rate;
                let guess = (-(-x).exp_m1() * RAW_END as f64) as u64;
                *edge = first_reaching(|raw| usize::from(f64_tick(ttf, rate, raw)) >= k, guess);
            }
        }
        // On a non-decreasing row the search is monotone in the draw, so
        // a bucket whose last draw reads at most one tick past its first
        // holds only those two ticks, told apart by one edge.
        let guide = std::array::from_fn(|code| {
            let row = &edges[code];
            let sorted = row.is_sorted();
            std::array::from_fn(|bucket| {
                let first = (bucket as u64) << GUIDE_SHIFT;
                let lo = search(row, first);
                let hi = search(row, first + (1 << GUIDE_SHIFT) - 1);
                if sorted && lo < TICKS - 1 && hi <= lo + 1 {
                    lo as u8
                } else {
                    WIDE
                }
            })
        });
        TickTable { edges, guide }
    }

    /// The tick a lit code's raw draw captures: the guide's bucket and
    /// one edge compare, or the 8-step search where the guide is [`WIDE`].
    #[inline]
    fn tick(&self, code: u8, raw: u64) -> usize {
        let row = &self.edges[usize::from(code)];
        match self.guide[usize::from(code)][(raw >> GUIDE_SHIFT) as usize] {
            WIDE => search(row, raw),
            lo => usize::from(lo) + usize::from(row[usize::from(lo) + 1] <= raw),
        }
    }

    /// The table of [`TtfRegister::at_1ghz`], built once per process and
    /// shared by every sampler [`RsuGSampler::new`] makes.
    fn shared_default() -> Arc<TickTable> {
        static DEFAULT: OnceLock<Arc<TickTable>> = OnceLock::new();
        Arc::clone(DEFAULT.get_or_init(|| Arc::new(TickTable::build(&TtfRegister::at_1ghz()))))
    }
}

impl fmt::Debug for TickTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TickTable")
    }
}

/// The largest `k` with `row[k] ≤ raw` on a non-decreasing threshold row
/// (`row[0] = 0`), in eight halvings without branching.
#[inline]
fn search(row: &[u64; TICKS], raw: u64) -> usize {
    let mut tick = 0;
    for step in [128, 64, 32, 16, 8, 4, 2, 1] {
        tick += usize::from(row[tick + step] <= raw) * step;
    }
    tick
}

/// A sampler's fixed-row code tables, one per shift, each built on first
/// use: entry `d` is the intensity code of a label `d · 2^-shift` above
/// its row's minimum, for every candidate offset `d`.
#[derive(Default)]
struct CodeTables([OnceLock<Box<[u8]>>; FIXED_SHIFT_MAX as usize + 1]);

impl fmt::Debug for CodeTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CodeTables")
    }
}

/// The smallest raw draw in `0..=RAW_END` at which `reaches` holds, for a
/// predicate false at 0 and taken as true at [`RAW_END`]: gallops out from
/// `guess` until the edge is bracketed, then bisects.
fn first_reaching(reaches: impl Fn(u64) -> bool, guess: u64) -> u64 {
    let guess = guess.clamp(1, RAW_END - 1);
    let (mut lo, mut hi);
    let mut step = 1;
    if reaches(guess) {
        hi = guess;
        while step < hi && reaches(hi - step) {
            hi -= step;
            step *= 2;
        }
        lo = hi.saturating_sub(step);
    } else {
        lo = guess;
        while lo + step < RAW_END && !reaches(lo + step) {
            lo += step;
            step *= 2;
        }
        hi = (lo + step).min(RAW_END);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// How far above its row's minimum an energy can sit and still light an
/// LED. Quantized energies above the map's cutoff read code 0, and
/// `e > min + (cutoff + 1) / scale` quantizes above the cutoff: the half
/// quantum beyond the rounding boundary absorbs the f64 error of forming
/// `min + span` and `e - min`. A map with LUT[255] lit has no dark
/// energies, so its span is infinite (DESIGN §11).
fn candidate_span(quantizer: &EnergyQuantizer, map: &IntensityMap) -> f64 {
    let cutoff = map.cutoff_energy();
    if cutoff == ENERGY_MAX {
        f64::INFINITY
    } else {
        (f64::from(cutoff) + 1.0) / quantizer.scale()
    }
}

/// The row minimum as `fold(INFINITY, f64::min)` finds it (NaN skipped),
/// over four independent accumulators so the compares pipeline; the two
/// can differ only in the sign of a zero minimum, which no code sees.
#[inline]
fn row_min(row: &[f64]) -> f64 {
    let min = |acc: f64, e: f64| if e < acc { e } else { acc };
    let mut blocks = row.chunks_exact(4);
    let acc = (&mut blocks).fold([f64::INFINITY; 4], |acc, b| {
        std::array::from_fn(|k| min(acc[k], b[k]))
    });
    let rest = acc.iter().chain(blocks.remainder());
    rest.fold(f64::INFINITY, |acc, &e| min(acc, e))
}

impl RsuGSampler {
    /// Creates a sampler whose LUT realizes temperature `t_model` for
    /// model energies quantized with `quantizer`.
    pub fn new(quantizer: EnergyQuantizer, t_model: f64) -> Self {
        let map = IntensityMap::boltzmann(t_model * quantizer.scale());
        RsuGSampler {
            candidate_span: candidate_span(&quantizer, &map),
            map,
            quantizer,
            ttf: TtfRegister::at_1ghz(),
            ticks: TickTable::shared_default(),
            codes: Arc::default(),
            fault: None,
        }
    }

    /// Sets or clears this unit's device fault. A `None` fault is the
    /// healthy path and costs nothing in the sampling loops.
    pub fn set_fault(&mut self, fault: Option<UnitFault>) {
        self.fault = fault;
    }

    /// The currently injected device fault, if any.
    pub fn fault(&self) -> Option<UnitFault> {
        self.fault
    }

    /// Overrides the TTF register (clock/window ablations), building the
    /// register's own tick table.
    pub fn with_ttf(mut self, ttf: TtfRegister) -> Self {
        self.ticks = Arc::new(TickTable::build(&ttf));
        self.ttf = ttf;
        self
    }

    /// The tournament's thresholds for intensity code `code`: entry `k` is
    /// the smallest raw draw `next_u64() >> 11` that captures at tick ≥ `k`
    /// (2⁵³ when none does; entry 255 is saturation). Samplers built by
    /// [`RsuGSampler::new`] share one table.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds [`CODE_MAX`].
    pub fn tick_thresholds(&self, code: u8) -> &[u64; TICKS] {
        &self.ticks.edges[usize::from(code)]
    }

    /// Overrides the intensity map (precision ablations).
    pub fn with_map(mut self, map: IntensityMap) -> Self {
        self.candidate_span = candidate_span(&self.quantizer, &map);
        self.codes = Arc::default();
        self.map = map;
        self
    }

    /// The intensity codes this sampler would assign to a set of model
    /// energies (exposed for fidelity analysis).
    pub fn codes(&self, energies: &[f64]) -> Vec<u8> {
        let min = row_min(energies);
        energies
            .iter()
            .map(|e| self.map.lookup(self.quantizer.quantize(e - min)))
            .collect()
    }

    /// One first-to-fire tournament over a site's energy row: the RSU-G
    /// draw behind [`LabelSampler::sample_label`], both chunk kernels and
    /// [`RsuGSampler::probe_distribution`].
    ///
    /// In label order, each non-zero code draws one exponential firing
    /// time captured by the TTF register; zero codes (LEDs off) draw
    /// nothing, ties keep the earlier label, and an all-saturated window
    /// keeps `current`. Labels a candidate mask proves dark are skipped
    /// unquantized, which moves neither the labels nor the RNG stream. The
    /// captured tick is read off [`RsuGSampler::tick_thresholds`] with the
    /// raw draw, through a guide keyed by its top ten bits, which equals
    /// the f64 capture bit for bit (DESIGN §11).
    ///
    /// An injected [`UnitFault`] changes the outcome the way the device
    /// would: a dead unit keeps `current`, a stuck unit returns its
    /// latched label (neither consumes randomness), and a dark-count
    /// fault draws one spurious firing time *before* the tournament —
    /// if it beats every real label the draw lands on a uniformly
    /// random label.
    ///
    /// # Panics
    ///
    /// Panics if the row holds more than [`MAX_LABELS`] energies.
    pub fn draw_row<R: Rng + ?Sized>(
        &self,
        energies: &[f64],
        current: Label,
        rng: &mut R,
    ) -> Label {
        self.tournament(energies.len(), current, rng, || {
            let min = row_min(energies);
            // Bit `m` is set unless label `m` is provably dark. `e > limit`
            // is false for a NaN energy (and for every label when `limit`
            // is NaN), so those stay candidates: the reference maps NaN to
            // LUT[0]. Whole blocks of eight unroll into runs of
            // independent compares.
            let limit = min + self.candidate_span;
            let lit = |bits: u64, (k, &e): (usize, &f64)| bits | ((u64::from(e > limit) ^ 1) << k);
            let mut blocks = energies.chunks_exact(8);
            let mut candidates = (&mut blocks).enumerate().fold(0, |mask, (b, block)| {
                mask | (block.iter().enumerate().fold(0, lit) << (8 * b))
            });
            let base = energies.len() - blocks.remainder().len();
            let tail = blocks.remainder().iter().enumerate();
            candidates = tail.fold(candidates, |bits, (k, e)| lit(bits, (base + k, e)));
            let code_of =
                move |m: usize| self.map.lookup(self.quantizer.quantize(energies[m] - min));
            (candidates, code_of)
        })
    }

    /// [`RsuGSampler::draw_row`] over a row of exact fixed-point energies
    /// in units of `2^-shift` (see [`SweepKernel::sample_fixed_chunk`]):
    /// the same labels and RNG stream as `draw_row` on the row scaled by
    /// `2^-shift`. The minimum is taken in `i16` and label `m` is a
    /// candidate when its offset `d = e − min` is at most
    /// `⌊span · 2^shift⌋`, where `span` is the f64 path's candidate span;
    /// `d · 2^-shift` is exactly `draw_row`'s `e − min`, so each code,
    /// read from a per-shift table indexed by `d`, is the one `draw_row`
    /// reads (DESIGN §11).
    ///
    /// # Panics
    ///
    /// Panics if the row holds more than [`MAX_LABELS`] energies or
    /// `shift` exceeds [`FIXED_SHIFT_MAX`].
    pub fn draw_fixed_row<R: Rng + ?Sized>(
        &self,
        row: &[i16],
        shift: u32,
        current: Label,
        rng: &mut R,
    ) -> Label {
        assert!(
            shift <= FIXED_SHIFT_MAX,
            "fixed-point unit finer than 2^-16"
        );
        self.tournament(row.len(), current, rng, || {
            let min = row.iter().copied().min().unwrap_or(0);
            // `e ≥ min`, so the wrapped difference read as u16 is exact.
            let offset = move |e: i16| e.wrapping_sub(min) as u16;
            // Offsets past the code table are provably dark.
            let codes = self.fixed_codes(shift);
            let limit = (codes.len() - 1) as u16;
            let mut flags = [0u8; MAX_LABELS as usize];
            for (flag, &e) in flags.iter_mut().zip(row) {
                *flag = u8::from(offset(e) <= limit);
            }
            // Eight 0/1 bytes gather into one byte of the mask: the
            // multiply moves byte `i`'s low bit to bit `56 + i`.
            let (blocks, _) = flags[..row.len().div_ceil(8) * 8].as_chunks::<8>();
            let candidates = blocks.iter().enumerate().fold(0, |mask, (b, block)| {
                let bits = u64::from_le_bytes(*block).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                mask | (bits << (8 * b))
            });
            (candidates, move |m: usize| {
                codes[usize::from(offset(row[m]))]
            })
        })
    }

    /// The code table for offsets `0..=⌊span · 2^shift⌋` (capped at
    /// `u16::MAX`), where `span` is the f64 path's candidate span: entry
    /// `d` is `draw_row`'s code for an energy `d · 2^-shift` above the row
    /// minimum, and `2^-shift` is exact (DESIGN §11).
    fn fixed_codes(&self, shift: u32) -> &[u8] {
        self.codes.0[shift as usize].get_or_init(|| {
            let scale = f64::from(1u32 << shift);
            // The cast floors the non-negative product and saturates an
            // infinite span at u16::MAX, above every offset.
            let limit = (self.candidate_span * scale) as u16;
            let unit = scale.recip();
            (0..=limit)
                .map(|d| {
                    self.map
                        .lookup(self.quantizer.quantize(f64::from(d) * unit))
                })
                .collect()
        })
    }

    /// The tournament tail both row entries share: fault handling, the
    /// dark-count draw, then one draw per lit candidate in label order.
    /// `prepare` runs once the row is known to be drawn and returns the
    /// candidate mask and each candidate label's intensity code.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_LABELS`].
    #[inline]
    fn tournament<R, F>(
        &self,
        len: usize,
        current: Label,
        rng: &mut R,
        prepare: impl FnOnce() -> (u64, F),
    ) -> Label
    where
        R: Rng + ?Sized,
        F: Fn(usize) -> u8,
    {
        match self.fault {
            Some(UnitFault::Dead) => return current,
            Some(UnitFault::Stuck(label)) => return label,
            _ => {}
        }
        assert!(
            len <= usize::from(MAX_LABELS),
            "an RSU-G row holds at most {MAX_LABELS} labels"
        );
        let dark = self.dark_reading(rng);
        let (mut candidates, code_of) = prepare();
        let mut best_m = usize::from(current.value());
        let mut best_tick = TICKS - 1;
        while candidates != 0 {
            let m = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let code = code_of(m);
            if code == 0 {
                continue;
            }
            // The one u64 `gen::<f64>()` would consume, read as a tick.
            let tick = self.ticks.tick(code, rng.next_u64() >> 11);
            let wins = tick < best_tick;
            best_tick = if wins { tick } else { best_tick };
            best_m = if wins { m } else { best_m };
        }
        if usize::from(dark) < best_tick {
            return Label::new(rng.gen_range(0..len.max(1)) as u8);
        }
        Label::new(best_m as u8)
    }

    /// Draws the spurious dark-count firing time for this window as a raw
    /// register value, if a dark-count fault is injected. Consumes RNG only
    /// when faulted, so the healthy path stays bit-identical to a
    /// fault-free sampler.
    fn dark_reading<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
        match self.fault {
            Some(UnitFault::DarkCount { rate_per_ns }) if rate_per_ns > 0.0 => {
                f64_tick(&self.ttf, rate_per_ns, rng.next_u64() >> 11)
            }
            _ => TtfReading::Saturated.raw(),
        }
    }

    /// Empirical label distribution of this unit over `draws` repeated
    /// first-to-fire tournaments on a fixed probe row, as a length-
    /// [`MAX_LABELS`] frequency vector indexed by label value.
    ///
    /// The probe runs on its own [`StdRng`] seeded from `seed` — it
    /// never touches a job's sampling stream — so for fixed inputs the
    /// result is a pure function of the unit's device state (LUT,
    /// quantizer, TTF window, injected fault). The health monitor
    /// compares it against the same unit's pristine baseline.
    ///
    /// The "current" label fed to each tournament is the probe row's
    /// *highest-energy* entry, never its ground state: a dead or stuck
    /// unit parrots the current label back, and probing from the ground
    /// state would let such a unit impersonate a healthy, sharply
    /// peaked distribution. From the worst label the impostor's mass
    /// lands where a healthy unit puts almost none.
    pub fn probe_distribution(&self, energies: &[f64], draws: u32, seed: u64) -> Vec<f64> {
        let worst = energies
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        let current = Label::new(u8::try_from(worst).unwrap_or(u8::MAX));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; usize::from(MAX_LABELS)];
        for _ in 0..draws {
            let label = self.draw_row(energies, current, &mut rng);
            counts[usize::from(label.value())] += 1;
        }
        let total = f64::from(draws.max(1));
        counts.into_iter().map(|c| c as f64 / total).collect()
    }
}

/// The RSU-G sampler over a chunk: one [`RsuGSampler::draw_row`] (or
/// [`RsuGSampler::draw_fixed_row`]) per site in chunk order, so the RNG
/// is consumed exactly as the per-site path consumes it.
impl SweepKernel for RsuGSampler {
    fn sample_chunk<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        m: usize,
        _temperature: f64,
        current: &[Label],
        out: &mut [Label],
        _scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        debug_assert_eq!(energies.len(), current.len() * m);
        debug_assert_eq!(out.len(), current.len());
        for (j, (&cur, slot)) in current.iter().zip(out.iter_mut()).enumerate() {
            *slot = self.draw_row(&energies[j * m..(j + 1) * m], cur, rng);
        }
    }

    fn wants_fixed_rows(&self) -> bool {
        true
    }

    fn sample_fixed_chunk<R: Rng + ?Sized>(
        &mut self,
        rows: &[i16],
        m: usize,
        shift: u32,
        _temperature: f64,
        current: &[Label],
        out: &mut [Label],
        _scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        for (j, (&cur, slot)) in current.iter().zip(out.iter_mut()).enumerate() {
            *slot = self.draw_fixed_row(&rows[j * m..(j + 1) * m], shift, cur, rng);
        }
    }

    fn inject_unit_fault(&mut self, unit: usize, fault: UnitFault) -> bool {
        if unit == 0 {
            self.fault = Some(fault);
            true
        } else {
            false
        }
    }

    fn probe_unit(&self, unit: usize, energies: &[f64], draws: u32, seed: u64) -> Option<Vec<f64>> {
        (unit == 0).then(|| self.probe_distribution(energies, draws, seed))
    }
}

impl LabelSampler for RsuGSampler {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        _temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        self.draw_row(energies, current, rng)
    }

    fn name(&self) -> &'static str {
        "rsu-g"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_gibbs::SoftmaxGibbs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flat_inputs(m: u8) -> SiteInputs {
        SiteInputs {
            neighbors: [Some(0); 4],
            data1: 0,
            data2: vec![0; usize::from(m)],
        }
    }

    #[test]
    fn latency_matches_paper_formula() {
        let mut rsu = RsuG::new(RsuGConfig::for_labels(5, 32.0));
        let mut rng = StdRng::seed_from_u64(0);
        let s = rsu.sample_site(&flat_inputs(5), &mut rng);
        assert_eq!(s.cycles, 7 + 4); // 7 + (M − 1)
    }

    #[test]
    fn energies_follow_datapath() {
        let rsu = RsuG::new(RsuGConfig::for_labels(4, 32.0));
        let inputs = SiteInputs {
            neighbors: [Some(1), Some(1), None, None],
            data1: 0,
            data2: vec![0; 4],
        };
        // Scalar doubletons to two neighbours at label 1: 2·(m−1)².
        assert_eq!(rsu.energies(&inputs), vec![2, 0, 2, 8]);
    }

    #[test]
    fn winner_distribution_tracks_boltzmann() {
        // Distinct energies via DATA2; compare empirical wins with the
        // exact softmax over the *quantized* energies.
        let t8 = 24.0;
        let mut rsu = RsuG::new(RsuGConfig::for_labels(3, t8));
        let inputs = SiteInputs {
            neighbors: [None; 4],
            data1: 0,
            data2: vec![0, 20, 28], // singleton energies 0, 25, 49 (shift 4)
        };
        let energies = rsu.energies(&inputs);
        let expect = SoftmaxGibbs::probabilities(
            &energies.iter().map(|&e| f64::from(e)).collect::<Vec<_>>(),
            t8,
        );
        let mut rng = StdRng::seed_from_u64(42);
        let n = 40_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[usize::from(rsu.sample_site(&inputs, &mut rng).label.value())] += 1;
        }
        for (m, c) in counts.iter().enumerate() {
            let p = *c as f64 / f64::from(n);
            // 4-bit codes + 8-bit TTF (tick ties break toward lower
            // labels) leave a few percent of quantization error; the
            // distribution shape must still track Boltzmann.
            assert!(
                (p - expect[m]).abs() < 0.06,
                "label {m}: {p} vs {}",
                expect[m]
            );
        }
    }

    #[test]
    fn ideal_win_probabilities_normalize() {
        let rsu = RsuG::new(RsuGConfig::for_labels(5, 32.0));
        let p = rsu.ideal_win_probabilities(&flat_inputs(5));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_codes_zero_returns_label_zero() {
        // A cold map sends all non-zero energies to code 0.
        let mut rsu = RsuG::new(RsuGConfig::for_labels(3, 0.1));
        let inputs = SiteInputs {
            neighbors: [Some(7); 4],
            data1: 63,
            data2: vec![0, 0, 0],
        };
        assert!(rsu.intensity_codes(&inputs).iter().all(|&c| c == 0));
        let mut rng = StdRng::seed_from_u64(1);
        let s = rsu.sample_site(&inputs, &mut rng);
        assert_eq!(s.label, Label::new(0));
        assert_eq!(s.ttf, TtfReading::Saturated);
    }

    #[test]
    fn broadcast_data2_is_accepted() {
        let mut rsu = RsuG::new(RsuGConfig::for_labels(4, 32.0));
        let inputs = SiteInputs {
            neighbors: [None; 4],
            data1: 5,
            data2: vec![5],
        };
        let mut rng = StdRng::seed_from_u64(2);
        let s = rsu.sample_site(&inputs, &mut rng);
        assert!(s.label.value() < 4);
    }

    #[test]
    #[should_panic(expected = "DATA2 stream")]
    fn wrong_data2_length_panics() {
        let mut rsu = RsuG::new(RsuGConfig::for_labels(4, 32.0));
        let inputs = SiteInputs {
            neighbors: [None; 4],
            data1: 5,
            data2: vec![1, 2],
        };
        let mut rng = StdRng::seed_from_u64(3);
        rsu.sample_site(&inputs, &mut rng);
    }

    #[test]
    fn circuit_backend_tracks_ideal_backend() {
        use mogs_ret::circuit::{RetCircuitConfig, SpadConfig};
        let t8 = 24.0;
        let inputs = SiteInputs {
            neighbors: [None; 4],
            data1: 0,
            data2: vec![0, 20, 28],
        };
        let mut ideal = RsuG::new(RsuGConfig::for_labels(3, t8));
        let mut physical = RsuG::new(RsuGConfig {
            backend: RetBackend::Circuit(RetCircuitConfig {
                spad: SpadConfig {
                    dark_rate_per_ns: 0.0,
                    ..SpadConfig::default()
                },
                ..RetCircuitConfig::default()
            }),
            ..RsuGConfig::for_labels(3, t8)
        });
        let mut rng = StdRng::seed_from_u64(19);
        let n = 30_000;
        let mut ideal_counts = [0usize; 3];
        let mut circuit_counts = [0usize; 3];
        for _ in 0..n {
            ideal_counts[usize::from(ideal.sample_site(&inputs, &mut rng).label.value())] += 1;
            circuit_counts[usize::from(physical.sample_site(&inputs, &mut rng).label.value())] += 1;
        }
        // The circuit's code→rate curve is affine (exciton transit adds a
        // fixed delay), not purely proportional, so the circuit-backed
        // distribution follows the *effective* rates, slightly compressed
        // relative to the ideal code-proportional model.
        let probe = mogs_ret::circuit::RetCircuit::new(RetCircuitConfig {
            spad: SpadConfig {
                dark_rate_per_ns: 0.0,
                ..SpadConfig::default()
            },
            ..RetCircuitConfig::default()
        });
        let codes = physical.intensity_codes(&inputs);
        let rates: Vec<f64> = codes.iter().map(|&c| probe.effective_rate(c)).collect();
        let total: f64 = rates.iter().sum();
        for m in 0..3 {
            let pc = circuit_counts[m] as f64 / f64::from(n);
            let expect = rates[m] / total;
            assert!(
                (pc - expect).abs() < 0.03,
                "label {m}: circuit {pc} vs effective-rate prediction {expect}"
            );
            let pi = ideal_counts[m] as f64 / f64::from(n);
            // The compression vs the ideal backend is visible but bounded.
            assert!(
                (pi - pc).abs() < 0.15,
                "label {m}: ideal {pi} vs circuit {pc}"
            );
        }
    }

    #[test]
    fn sampler_adapter_tracks_softmax() {
        let quantizer = EnergyQuantizer::new(8.0);
        let mut sampler = RsuGSampler::new(quantizer, 4.0);
        let energies = [0.0, 2.0, 6.0];
        let expect = SoftmaxGibbs::probabilities(&energies, 4.0);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 40_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let l = sampler.sample_label(&energies, 4.0, Label::new(0), &mut rng);
            counts[usize::from(l.value())] += 1;
        }
        for (m, c) in counts.iter().enumerate() {
            let p = *c as f64 / f64::from(n);
            assert!(
                (p - expect[m]).abs() < 0.06,
                "label {m}: {p} vs {}",
                expect[m]
            );
        }
    }

    #[test]
    fn sampler_keeps_current_label_when_all_off() {
        let quantizer = EnergyQuantizer::new(1.0);
        let mut sampler = RsuGSampler::new(quantizer, 1.0).with_map(IntensityMap::from_entries(
            [0u8; crate::intensity::LUT_ENTRIES],
        ));
        let mut rng = StdRng::seed_from_u64(5);
        let l = sampler.sample_label(&[1.0, 2.0], 1.0, Label::new(1), &mut rng);
        assert_eq!(l, Label::new(1));
    }

    #[test]
    fn batched_kernel_is_bit_identical_to_per_site_path() {
        use mogs_gibbs::kernel::KernelScratch;
        let m = 4;
        let sites = 37;
        let mut gen = StdRng::seed_from_u64(21);
        let energies: Vec<f64> = (0..sites * m).map(|_| gen.gen_range(0.0..24.0)).collect();
        let current: Vec<Label> = (0..sites)
            .map(|_| Label::new(gen.gen_range(0..m) as u8))
            .collect();
        let mut reference = RsuGSampler::new(EnergyQuantizer::new(8.0), 4.0);
        let mut batched = reference.clone();
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let expect: Vec<Label> = (0..sites)
            .map(|j| {
                reference.sample_label(&energies[j * m..(j + 1) * m], 4.0, current[j], &mut rng_a)
            })
            .collect();
        let mut got = vec![Label::new(0); sites];
        let mut scratch = KernelScratch::new();
        batched.sample_chunk(
            &energies,
            m,
            4.0,
            &current,
            &mut got,
            &mut scratch,
            &mut rng_b,
        );
        assert_eq!(got, expect, "labels diverged");
        assert_eq!(
            rng_a.gen::<u64>(),
            rng_b.gen::<u64>(),
            "RNG consumption diverged"
        );
    }

    #[test]
    fn guided_ticks_equal_the_search_at_every_edge_and_bucket_end() {
        let registers = [
            TtfRegister::at_1ghz(),
            TtfRegister::new(1.0 / 0.59),
            TtfRegister::new(2.5),
        ];
        for ttf in registers {
            let table = TickTable::build(&ttf);
            let mut guided = 0;
            for code in 1..=CODE_MAX {
                let row = &table.edges[usize::from(code)];
                let buckets = (0..1u64 << GUIDE_BITS)
                    .flat_map(|b| [b << GUIDE_SHIFT, ((b + 1) << GUIDE_SHIFT) - 1]);
                let edges = row[1..]
                    .iter()
                    .filter(|&&edge| edge < RAW_END)
                    .flat_map(|&edge| [edge - 1, edge]);
                for raw in buckets.chain(edges) {
                    assert_eq!(
                        table.tick(code, raw),
                        search(row, raw),
                        "code {code}, raw {raw:#x}, period {}",
                        ttf.tick_ns()
                    );
                }
                guided += table.guide[usize::from(code)]
                    .iter()
                    .filter(|&&lo| lo != WIDE)
                    .count();
            }
            // Most buckets hold one or two ticks; the search is the
            // exception, not the rule.
            assert!(guided > 15 * 1024 * 3 / 4, "{guided} guided buckets");
        }
    }

    /// A map of each family `rsu_draw_props` draws units from.
    fn map_family(family: usize, t8: f64, rng: &mut StdRng) -> IntensityMap {
        let mut table = [0u8; crate::intensity::LUT_ENTRIES];
        match family {
            // Random, non-monotone.
            0 => table.iter_mut().for_each(|c| *c = rng.gen_range(0..=15)),
            // Sparse, non-monotone, dark at the top.
            1 => {
                for _ in 0..4 {
                    table[rng.gen_range(0usize..200)] = rng.gen_range(1..=15);
                }
            }
            // All LEDs off.
            2 => {}
            // LUT[255] lit: no energy is dark.
            3 => {
                table.iter_mut().for_each(|c| *c = rng.gen_range(0..=3));
                table[255] = 9;
            }
            _ => return IntensityMap::boltzmann(t8),
        }
        IntensityMap::from_entries(table)
    }

    #[test]
    fn code_tables_hold_the_quantized_code_of_every_candidate_offset() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for family in 0..5 {
            for scale in [1.0, 3.0, 8.0, 16.0] {
                let quantizer = EnergyQuantizer::new(scale);
                let map = map_family(family, 1.5 * scale, &mut rng);
                let sampler = RsuGSampler::new(quantizer, 1.5).with_map(map.clone());
                for shift in 0..=FIXED_SHIFT_MAX {
                    let unit = f64::from(1u32 << shift);
                    let codes = sampler.fixed_codes(shift);
                    let limit = (candidate_span(&quantizer, &map) * unit).min(65_535.0);
                    assert_eq!(codes.len(), limit as usize + 1, "shift {shift}");
                    for (d, &code) in codes.iter().enumerate() {
                        let expect = map.lookup(quantizer.quantize(d as f64 / unit));
                        assert_eq!(code, expect, "family {family}, shift {shift}, d {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn with_map_rebuilds_the_code_tables_its_clones_share() {
        let m = 7;
        let shift = 3;
        let mut gen = StdRng::seed_from_u64(31);
        let rows: Vec<i16> = (0..40 * m).map(|_| gen.gen_range(0..120)).collect();
        let draw = |sampler: &RsuGSampler, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let labels: Vec<Label> = rows
                .chunks(m)
                .map(|row| sampler.draw_fixed_row(row, shift, Label::new(0), &mut rng))
                .collect();
            (labels, rng.gen::<u64>())
        };
        let quantizer = EnergyQuantizer::new(8.0);
        let original = RsuGSampler::new(quantizer, 1.5);
        let before = draw(&original, 1);
        let other = map_family(0, 12.0, &mut gen);
        let swapped = original.clone().with_map(other.clone());
        let fresh = RsuGSampler::new(quantizer, 1.5).with_map(other);
        for seed in 1..4 {
            assert_eq!(draw(&swapped, seed), draw(&fresh, seed), "seed {seed}");
        }
        assert_ne!(draw(&swapped, 1), before, "the maps must draw apart");
        assert_eq!(draw(&original, 1), before, "the original keeps its map");
    }

    #[test]
    fn sampler_is_shift_invariant() {
        // Adding a constant to all energies must not change the codes.
        let sampler = RsuGSampler::new(EnergyQuantizer::new(4.0), 8.0);
        let a = sampler.codes(&[0.0, 3.0, 9.0]);
        let b = sampler.codes(&[100.0, 103.0, 109.0]);
        assert_eq!(a, b);
    }
}
