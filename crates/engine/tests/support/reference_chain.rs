//! The reference chain: `colored_sweep` looped with the engine's
//! `sweep_seed`, serially, on one thread. It records the energy after
//! every sweep and counts post-burn-in labels for the marginal MAP with
//! the engine's mode rule (most counted label, ties to the highest).
//! Tests compare the engine against it; `chain_golden.rs` pins it. The
//! including crate root has `InferenceJob` and `JobOutput` in scope.

use crate::{InferenceJob, JobOutput};
use mogs_gibbs::sweep::{colored_sweep, sweep_seed};
use mogs_gibbs::LabelSampler;
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::Label;

/// Runs `job`'s chain from its starting labeling (all zeros when it has
/// none) for its whole budget, as a completed [`JobOutput`].
pub fn reference_chain<S, L>(job: &InferenceJob<S, L>) -> JobOutput
where
    S: SingletonPotential,
    L: LabelSampler + Clone,
{
    let mrf = &job.mrf;
    let m = mrf.space().count();
    let mut labels = job
        .initial
        .clone()
        .unwrap_or_else(|| mrf.uniform_labeling());
    let mut counts = vec![0u32; labels.len() * m];
    let mut energy_trace = Vec::with_capacity(job.iterations);
    for iteration in 0..job.iterations {
        let temperature = job.schedule.temperature(iteration);
        let seed = sweep_seed(job.seed, iteration);
        colored_sweep(
            mrf,
            &mut labels,
            &job.sampler,
            temperature,
            job.threads,
            seed,
        );
        energy_trace.push(mrf.total_energy(&labels));
        if iteration >= job.burn_in {
            for (site, label) in labels.iter().enumerate() {
                counts[site * m + usize::from(label.value())] += 1;
            }
        }
    }
    let map_estimate = (job.track_modes && job.iterations > job.burn_in).then(|| {
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
    JobOutput {
        labels,
        map_estimate,
        energy_trace,
        iterations_run: job.iterations,
        cancelled: false,
        early_stopped: false,
        degraded: None,
    }
}
