//! The reference chain: `colored_sweep` looped with the engine's
//! `sweep_seed`, serially, on one thread. It records the energy after
//! every sweep and counts post-burn-in labels for the marginal MAP with
//! the engine's mode rule (most counted label, ties to the highest).
//! Tests compare the engine against it; `chain_golden.rs` pins it.

use mogs_gibbs::sweep::{colored_sweep, sweep_seed};
use mogs_gibbs::{ChainConfig, ChainResult, LabelSampler};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Label, MarkovRandomField};

/// Runs the chain `config` describes for `iterations` sweeps from the
/// all-zero labeling.
pub fn reference_chain<S, L>(
    mrf: &MarkovRandomField<S>,
    sampler: &L,
    config: ChainConfig,
    iterations: usize,
) -> ChainResult
where
    S: SingletonPotential,
    L: LabelSampler + Clone,
{
    let m = mrf.space().count();
    let mut labels = mrf.uniform_labeling();
    let mut counts = vec![0u32; labels.len() * m];
    let mut energy_trace = Vec::with_capacity(iterations);
    for iteration in 0..iterations {
        let temperature = config.schedule.temperature(iteration);
        let seed = sweep_seed(config.seed, iteration);
        colored_sweep(mrf, &mut labels, sampler, temperature, config.threads, seed);
        energy_trace.push(mrf.total_energy(&labels));
        if iteration >= config.burn_in {
            for (site, label) in labels.iter().enumerate() {
                counts[site * m + usize::from(label.value())] += 1;
            }
        }
    }
    let map_estimate = (config.track_modes && iterations > config.burn_in).then(|| {
        counts
            .chunks(m)
            .map(|row| {
                let best = row
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, c)| **c)
                    .map_or(0, |(i, _)| i);
                Label::new(u8::try_from(best).expect("at most 64 labels"))
            })
            .collect()
    });
    ChainResult {
        labels,
        map_estimate,
        energy_trace,
        iterations,
    }
}
