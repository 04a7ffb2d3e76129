//! The Markov Random Field itself: grid + potentials + temperature.
//!
//! [`MarkovRandomField`] bundles everything Eq. 1 of the paper needs: the
//! lattice, the label space, the smoothness prior, the application
//! singleton, and the temperature `T`. Its central operation is computing
//! the **full conditional energies** of one site — the `M` numbers that
//! parameterize a Gibbs draw, and exactly what an RSU-G computes in
//! hardware.

use std::sync::{Arc, OnceLock};

use crate::energy::{SingletonPotential, SmoothnessPrior};
use crate::error::MrfError;
use crate::grid::Grid2D;
use crate::label::{Label, LabelSpace};

/// The clique neighbourhood of the field.
///
/// The paper's RSU-G targets first-order (4-neighbour) MRFs; second-order
/// (8-neighbour) fields are its §9 "other MRF problems" extension —
/// supported here at the model/software level, with diagonal doubletons
/// weighted by `1/√2` (inverse distance, the standard geometric
/// correction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Neighborhood {
    /// 4-neighbour cliques (paper Fig. 4).
    #[default]
    FirstOrder,
    /// 8-neighbour cliques (axis + diagonal).
    SecondOrder,
}

/// Weight applied to diagonal doubletons in a second-order field.
pub const DIAGONAL_WEIGHT: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Upper bound on `sites × labels` for the dense singleton table
/// (8 bytes per entry, so at most 32 MiB per field).
pub const SINGLETON_CACHE_CAP: usize = 1 << 22;

/// `2^-FIXED_SHIFT_MAX` is the finest unit the `i16` row path takes.
pub const FIXED_SHIFT_MAX: u32 = 16;

/// The lazily filled dense singleton table and its fixed-point form,
/// each filled on first use and shared by every clone of a field. Its
/// `Debug` form says only whether the f64 table is filled.
#[derive(Clone, Default)]
struct SingletonTable(Arc<(OnceLock<Vec<f64>>, FixedCell)>);

/// The fixed-point form, once derived: `None` when the field is refused.
type FixedCell = OnceLock<Option<FixedRows>>;

impl std::fmt::Debug for SingletonTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.0 .0.get().is_some();
        f.write_str(if filled { "filled" } else { "empty" })
    }
}

/// A first-order field's energies as exact `i16` multiples of
/// `2^-shift`, in the f64 tables' layouts. Every row sum fits `i16`, so
/// an integer row times `2^-shift` is the f64 row bit for bit (DESIGN
/// §11). Built only by [`MarkovRandomField::fixed_rows`].
#[derive(Debug)]
#[non_exhaustive]
pub struct FixedRows {
    /// Entries are integer multiples of `2^-shift`, `shift ≤ FIXED_SHIFT_MAX`.
    pub shift: u32,
    /// Singleton energies in units, `site * M + label_index`.
    pub singleton: Vec<i16>,
    /// Prior energies in units, like [`MarkovRandomField::prior_table`].
    pub prior: Box<[i16; 64 * 64]>,
}

impl FixedRows {
    /// The exact fixed-point form of `singleton` and `prior`, or `None`
    /// unless every entry is an integer multiple of `2^-k`, `k ≤
    /// FIXED_SHIFT_MAX`, and the worst-case row `max|singleton| +
    /// 4·max|prior|` fits `i16` in units of `2^-k`.
    fn derive(singleton: &[f64], prior: &[f64; 64 * 64]) -> Option<Self> {
        // The least such `k` and the largest magnitude. A normal `v` is
        // `mantissa · 2^(exp - 1075)`, integral after `1075 - exp -
        // trailing_zeros(mantissa)` doublings; +0 needs none. −0,
        // subnormals, infinities and NaN are refused.
        let scan = |values: &[f64]| {
            values.iter().try_fold((0, 0.0f64), |(k, max), &v| {
                let (bits, exp) = (v.to_bits(), (v.to_bits() >> 52) & 0x7ff);
                let zeros = u64::from((bits | 1 << 52).trailing_zeros());
                let need = match exp {
                    _ if bits == 0 => 0,
                    0 | 0x7ff => return None,
                    _ => 1075u64.saturating_sub(exp + zeros),
                };
                Some((need.max(k), max.max(v.abs())))
            })
        };
        let ((k_s, max_s), (k_p, max_p)) = (scan(singleton)?, scan(prior)?);
        let k = k_s.max(k_p);
        let shift = u32::try_from(k).ok().filter(|&k| k <= FIXED_SHIFT_MAX)?;
        let scale = f64::from(1u32 << shift);
        if (max_s + 4.0 * max_p) * scale > f64::from(i16::MAX) {
            return None;
        }
        #[expect(
            clippy::as_conversions,
            reason = "float-to-int has no From path; `v·2^shift` is integral and within \
                      ±i16::MAX by the checks above, so the cast is exact"
        )]
        let units = |v: f64| (v * scale) as i16;
        Some(FixedRows {
            shift,
            singleton: singleton.iter().map(|&v| units(v)).collect(),
            prior: Box::new(prior.map(units)),
        })
    }
}

/// A first- or second-order MRF with a smoothness prior.
///
/// Generic over the singleton potential so application models monomorphize;
/// use `Box<dyn SingletonPotential>` when type erasure is more convenient.
#[derive(Debug, Clone)]
pub struct MarkovRandomField<S> {
    grid: Grid2D,
    space: LabelSpace,
    singleton: S,
    prior: SmoothnessPrior,
    temperature: f64,
    neighborhood: Neighborhood,
    singleton_table: SingletonTable,
}

impl MarkovRandomField<()> {
    /// Starts building a field over `grid` with `space` labels per site.
    pub fn builder(grid: Grid2D, space: LabelSpace) -> MrfBuilder {
        MrfBuilder {
            grid,
            space,
            prior: SmoothnessPrior::squared_difference(1.0),
            temperature: 1.0,
            neighborhood: Neighborhood::FirstOrder,
        }
    }
}

/// Builder returned by [`MarkovRandomField::builder`].
#[derive(Debug, Clone)]
pub struct MrfBuilder {
    grid: Grid2D,
    space: LabelSpace,
    prior: SmoothnessPrior,
    temperature: f64,
    neighborhood: Neighborhood,
}

impl MrfBuilder {
    /// Sets the smoothness prior (default: squared difference, weight 1).
    pub fn prior(mut self, prior: SmoothnessPrior) -> Self {
        self.prior = prior;
        self
    }

    /// Sets the clique neighbourhood (default: first order).
    pub fn neighborhood(mut self, neighborhood: Neighborhood) -> Self {
        self.neighborhood = neighborhood;
        self
    }

    /// Sets the temperature `T` (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is not strictly positive and finite.
    pub fn temperature(mut self, temperature: f64) -> Self {
        assert!(
            temperature.is_finite() && temperature > 0.0,
            "temperature must be positive"
        );
        self.temperature = temperature;
        self
    }

    /// Supplies the singleton potential and finishes the build.
    pub fn singleton<S: SingletonPotential>(self, singleton: S) -> MrfBuilderWithSingleton<S> {
        MrfBuilderWithSingleton {
            inner: self,
            singleton,
        }
    }
}

/// Builder state once the singleton is known.
#[derive(Debug, Clone)]
pub struct MrfBuilderWithSingleton<S> {
    inner: MrfBuilder,
    singleton: S,
}

impl<S: SingletonPotential> MrfBuilderWithSingleton<S> {
    /// Sets the smoothness prior (default: squared difference, weight 1).
    pub fn prior(mut self, prior: SmoothnessPrior) -> Self {
        self.inner = self.inner.prior(prior);
        self
    }

    /// Sets the clique neighbourhood (default: first order).
    pub fn neighborhood(mut self, neighborhood: Neighborhood) -> Self {
        self.inner = self.inner.neighborhood(neighborhood);
        self
    }

    /// Sets the temperature `T` (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is not strictly positive and finite.
    pub fn temperature(mut self, temperature: f64) -> Self {
        self.inner = self.inner.temperature(temperature);
        self
    }

    /// Builds the field.
    pub fn build(self) -> MarkovRandomField<S> {
        MarkovRandomField {
            grid: self.inner.grid,
            space: self.inner.space,
            singleton: self.singleton,
            prior: self.inner.prior,
            temperature: self.inner.temperature,
            neighborhood: self.inner.neighborhood,
            singleton_table: SingletonTable::default(),
        }
    }
}

impl<S: SingletonPotential> MarkovRandomField<S> {
    /// The lattice.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// The label space.
    pub fn space(&self) -> &LabelSpace {
        &self.space
    }

    /// The smoothness prior.
    pub fn prior(&self) -> &SmoothnessPrior {
        &self.prior
    }

    /// The singleton potential.
    pub fn singleton(&self) -> &S {
        &self.singleton
    }

    /// Every singleton energy, `site * M + label_index`, or `None` when
    /// `sites × labels` exceeds [`SINGLETON_CACHE_CAP`]. Built on first
    /// call and shared by every clone of this field: the potential is a
    /// pure function of its arguments and the field has no `&mut` API,
    /// so the entries are the exact f64s `singleton().energy` returns.
    pub fn singleton_table(&self) -> Option<&[f64]> {
        let (sites, m) = (self.grid.len(), self.space.count());
        (sites * m <= SINGLETON_CACHE_CAP).then(|| {
            let table = self.singleton_table.0 .0.get_or_init(|| {
                let mut table = Vec::with_capacity(sites * m);
                for site in 0..sites {
                    table.extend(self.space.labels().map(|l| self.singleton.energy(site, l)));
                }
                table
            });
            table.as_slice()
        })
    }

    /// Pairwise prior energies, neighbour-major: entry `neighbour << 6 |
    /// own` is the energy of labelling a site `own` next to a
    /// `neighbour`-labelled one. Slots outside the label space hold 0.
    pub fn prior_table(&self) -> Box<[f64; 64 * 64]> {
        let mut table = Box::new([0.0f64; 64 * 64]);
        for own in self.space.labels() {
            for neighbor in self.space.labels() {
                table[(usize::from(neighbor.value()) << 6) | usize::from(own.value())] =
                    self.prior.energy(&self.space, own, neighbor);
            }
        }
        table
    }

    /// The field's exact fixed-point energies, derived once from the f64
    /// tables and shared by every clone, or `None` for a second-order
    /// field, one above [`SINGLETON_CACHE_CAP`], or one [`FixedRows`] refuses.
    /// The engine derives them when admitting a job whose kernel opts in
    /// (the RSU-G and softmax kernels do): RSU-G draws from the integer
    /// rows directly, softmax reads each weight from a table indexed by
    /// the row's integer energy gaps.
    pub fn fixed_rows(&self) -> Option<&FixedRows> {
        if self.neighborhood != Neighborhood::FirstOrder {
            return None;
        }
        let singleton = self.singleton_table()?;
        let (_, fixed) = &*self.singleton_table.0;
        fixed
            .get_or_init(|| FixedRows::derive(singleton, &self.prior_table()))
            .as_ref()
    }

    /// The temperature `T`.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// A labeling with every site set to label 0, sized for this grid.
    pub fn uniform_labeling(&self) -> Vec<Label> {
        vec![Label::new(0); self.grid.len()]
    }

    /// Checks that `labels` has one in-space entry per site.
    ///
    /// # Errors
    ///
    /// Returns [`MrfError::LabelingSizeMismatch`] on a length mismatch or
    /// [`MrfError::LabelTooLarge`] if an entry is outside the label space.
    pub fn validate_labeling(&self, labels: &[Label]) -> Result<(), MrfError> {
        if labels.len() != self.grid.len() {
            return Err(MrfError::LabelingSizeMismatch {
                expected: self.grid.len(),
                actual: labels.len(),
            });
        }
        for l in labels {
            if !self.space.contains(*l) {
                return Err(MrfError::LabelTooLarge {
                    value: u16::from(l.value()),
                });
            }
        }
        Ok(())
    }

    /// The clique neighbourhood.
    pub fn neighborhood(&self) -> Neighborhood {
        self.neighborhood
    }

    /// The conditionally independent site groups for parallel sweeps:
    /// the two checkerboard parities for a first-order field, the four
    /// 2×2-block colours for a second-order field.
    pub fn independent_groups(&self) -> Vec<Vec<usize>> {
        match self.neighborhood {
            Neighborhood::FirstOrder => crate::grid::Parity::BOTH
                .into_iter()
                .map(|p| self.grid.sites_of_parity(p).collect())
                .collect(),
            Neighborhood::SecondOrder => (0..4)
                .map(|c| self.grid.sites_of_block_color(c).collect())
                .collect(),
        }
    }

    /// Energy of assigning `label` at `site` given the current labels of
    /// its neighbours: singleton plus the doubletons of the configured
    /// neighbourhood (Eq. 1's bracketed sum for one candidate label);
    /// diagonal doubletons carry the `1/√2` geometric weight.
    pub fn site_energy(&self, labels: &[Label], site: usize, label: Label) -> f64 {
        let mut e = self.singleton.energy(site, label);
        for n in self.grid.neighbors4(site).into_iter().flatten() {
            e += self.prior.energy(&self.space, label, labels[n]);
        }
        if self.neighborhood == Neighborhood::SecondOrder {
            for n in self.grid.neighbors_diagonal(site).into_iter().flatten() {
                e += DIAGONAL_WEIGHT * self.prior.energy(&self.space, label, labels[n]);
            }
        }
        e
    }

    /// Full conditional energies of `site`: one entry per label in the
    /// space. Allocates; use [`MarkovRandomField::conditional_energies_into`]
    /// in hot loops.
    pub fn conditional_energies(&self, labels: &[Label], site: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.space.count()];
        self.conditional_energies_into(labels, site, &mut out);
        out
    }

    /// Fills `out` (length `M`) with the full conditional energies of
    /// `site`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the label count.
    pub fn conditional_energies_into(&self, labels: &[Label], site: usize, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.space.count(),
            "output buffer must have M entries"
        );
        for (slot, label) in out.iter_mut().zip(self.space.labels()) {
            *slot = self.site_energy(labels, site, label);
        }
    }

    /// Total energy of a labeling: all singletons plus each doubleton
    /// counted once.
    pub fn total_energy(&self, labels: &[Label]) -> f64 {
        let mut e = 0.0;
        for site in self.grid.sites() {
            e += self.singleton.energy(site, labels[site]);
            // Count right/down (and for second order, both down diagonals)
            // only: each doubleton once.
            let (x, y) = self.grid.coords(site);
            if x + 1 < self.grid.width() {
                let n = self.grid.index(x + 1, y);
                e += self.prior.energy(&self.space, labels[site], labels[n]);
            }
            if y + 1 < self.grid.height() {
                let n = self.grid.index(x, y + 1);
                e += self.prior.energy(&self.space, labels[site], labels[n]);
            }
            if self.neighborhood == Neighborhood::SecondOrder && y + 1 < self.grid.height() {
                if x > 0 {
                    let n = self.grid.index(x - 1, y + 1);
                    e += DIAGONAL_WEIGHT * self.prior.energy(&self.space, labels[site], labels[n]);
                }
                if x + 1 < self.grid.width() {
                    let n = self.grid.index(x + 1, y + 1);
                    e += DIAGONAL_WEIGHT * self.prior.energy(&self.space, labels[site], labels[n]);
                }
            }
        }
        e
    }

    /// Mean energy per site: [`MarkovRandomField::total_energy`] divided
    /// by the site count. The scale-free form is what convergence checks
    /// should compare against tolerances, so the same threshold means the
    /// same thing on a 64×64 smoke grid and a megapixel field.
    pub fn energy_per_site(&self, labels: &[Label]) -> f64 {
        self.total_energy(labels) / self.grid.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::ZeroSingleton;

    fn small_field() -> MarkovRandomField<ZeroSingleton> {
        MarkovRandomField::builder(Grid2D::new(4, 4), LabelSpace::scalar(3))
            .prior(SmoothnessPrior::squared_difference(1.0))
            .singleton(ZeroSingleton)
            .build()
    }

    #[test]
    fn uniform_labeling_has_zero_prior_energy() {
        let mrf = small_field();
        let labels = mrf.uniform_labeling();
        assert_eq!(mrf.total_energy(&labels), 0.0);
    }

    #[test]
    fn single_flip_changes_total_by_conditional_delta() {
        let mrf = small_field();
        let mut labels = mrf.uniform_labeling();
        let site = mrf.grid().index(1, 1);
        let before = mrf.total_energy(&labels);
        let e_old = mrf.site_energy(&labels, site, labels[site]);
        let new_label = Label::new(2);
        let e_new = mrf.site_energy(&labels, site, new_label);
        labels[site] = new_label;
        let after = mrf.total_energy(&labels);
        assert!(
            ((after - before) - (e_new - e_old)).abs() < 1e-12,
            "site-energy delta must equal total-energy delta"
        );
    }

    #[test]
    fn energy_per_site_is_total_over_site_count() {
        let mrf = small_field();
        let mut labels = mrf.uniform_labeling();
        labels[5] = Label::new(2);
        let total = mrf.total_energy(&labels);
        assert!((mrf.energy_per_site(&labels) - total / 16.0).abs() < 1e-15);
    }

    #[test]
    fn conditional_energies_cover_all_labels() {
        let mrf = small_field();
        let labels = mrf.uniform_labeling();
        let e = mrf.conditional_energies(&labels, 5);
        assert_eq!(e.len(), 3);
        // With all neighbours at 0, energy of label k is 4·k² here.
        assert_eq!(e, vec![0.0, 4.0, 16.0]);
    }

    #[test]
    fn boundary_sites_have_fewer_doubletons() {
        let mrf = small_field();
        let labels = mrf.uniform_labeling();
        let corner = mrf.grid().index(0, 0);
        let e = mrf.conditional_energies(&labels, corner);
        // Corner has 2 neighbours: energy of label k is 2·k².
        assert_eq!(e, vec![0.0, 2.0, 8.0]);
    }

    #[test]
    fn singleton_feeds_into_conditionals() {
        let mrf = MarkovRandomField::builder(Grid2D::new(2, 2), LabelSpace::scalar(2))
            .singleton(|site: usize, label: Label| {
                if site == 0 && label.value() == 1 {
                    5.0
                } else {
                    0.0
                }
            })
            .build();
        let labels = mrf.uniform_labeling();
        assert_eq!(mrf.conditional_energies(&labels, 0), vec![0.0, 7.0]);
        assert_eq!(mrf.conditional_energies(&labels, 3), vec![0.0, 2.0]);
    }

    #[test]
    fn validate_labeling_checks_size_and_range() {
        let mrf = small_field();
        assert!(mrf.validate_labeling(&mrf.uniform_labeling()).is_ok());
        assert!(matches!(
            mrf.validate_labeling(&[Label::new(0)]),
            Err(MrfError::LabelingSizeMismatch { .. })
        ));
        let mut bad = mrf.uniform_labeling();
        bad[3] = Label::new(7); // space only has 3 labels
        assert!(matches!(
            mrf.validate_labeling(&bad),
            Err(MrfError::LabelTooLarge { .. })
        ));
    }

    fn second_order_field() -> MarkovRandomField<ZeroSingleton> {
        MarkovRandomField::builder(Grid2D::new(4, 4), LabelSpace::scalar(3))
            .prior(SmoothnessPrior::squared_difference(1.0))
            .neighborhood(Neighborhood::SecondOrder)
            .singleton(ZeroSingleton)
            .build()
    }

    #[test]
    fn second_order_flip_delta_matches_total() {
        let mrf = second_order_field();
        let mut labels = mrf.uniform_labeling();
        labels[5] = Label::new(1); // perturb so diagonals matter
        let site = mrf.grid().index(2, 2);
        let before = mrf.total_energy(&labels);
        let e_old = mrf.site_energy(&labels, site, labels[site]);
        let new_label = Label::new(2);
        let e_new = mrf.site_energy(&labels, site, new_label);
        labels[site] = new_label;
        let after = mrf.total_energy(&labels);
        assert!(
            ((after - before) - (e_new - e_old)).abs() < 1e-12,
            "second-order delta mismatch"
        );
    }

    #[test]
    fn second_order_interior_energy_includes_diagonals() {
        let mrf = second_order_field();
        let labels = mrf.uniform_labeling();
        let site = mrf.grid().index(1, 1);
        // 4 axis neighbours at distance² = k², 4 diagonal at weight 1/√2.
        let e = mrf.site_energy(&labels, site, Label::new(1));
        let expect = 4.0 + 4.0 * DIAGONAL_WEIGHT;
        assert!((e - expect).abs() < 1e-12, "{e} vs {expect}");
    }

    #[test]
    fn independent_groups_cover_and_separate() {
        for mrf_groups in [
            small_field().independent_groups(),
            second_order_field().independent_groups(),
        ] {
            let total: usize = mrf_groups.iter().map(Vec::len).sum();
            assert_eq!(total, 16);
        }
        assert_eq!(small_field().independent_groups().len(), 2);
        assert_eq!(second_order_field().independent_groups().len(), 4);
        // No second-order group may contain two 8-adjacent sites.
        let mrf = second_order_field();
        for group in mrf.independent_groups() {
            for &s in &group {
                let neighbors: Vec<usize> = mrf
                    .grid()
                    .neighbors4(s)
                    .into_iter()
                    .chain(mrf.grid().neighbors_diagonal(s))
                    .flatten()
                    .collect();
                for &other in &group {
                    assert!(!neighbors.contains(&other), "{s} and {other} share a group");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_rejected() {
        let _ =
            MarkovRandomField::builder(Grid2D::new(2, 2), LabelSpace::scalar(2)).temperature(0.0);
    }
}
