//! A9: temperature-schedule ablation — fixed-temperature sampling with
//! marginal-MAP mode tracking vs geometric/logarithmic simulated
//! annealing, on the same segmentation posterior.
//!
//! The paper runs fixed-temperature Gibbs and takes the per-pixel mode
//! (§2.1/§4.2); Geman & Geman's original formulation anneals instead.
//! This experiment quantifies the trade on ground-truth scenes: annealing
//! reaches lower energies, mode tracking is equally accurate and keeps
//! the posterior interpretation.

use crate::report::render_table;
use mogs_engine::{Engine, InferenceJob};
use mogs_gibbs::schedule::TemperatureSchedule;
use mogs_gibbs::SoftmaxGibbs;
use mogs_vision::metrics::label_accuracy;
use mogs_vision::segmentation::{Segmentation, SegmentationConfig};
use mogs_vision::synthetic;

/// One schedule's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealRow {
    /// Schedule description.
    pub schedule: String,
    /// Final total energy.
    pub final_energy: f64,
    /// Accuracy of the reported labeling (marginal MAP where tracked,
    /// final sample otherwise).
    pub accuracy: f64,
}

/// Runs the schedule comparison, one engine job per schedule.
///
/// # Panics
///
/// Panics if the engine refuses or fails a job, or `iterations` is zero
/// (the energy trace is then empty).
pub fn run(iterations: usize, seed: u64) -> Vec<AnnealRow> {
    let scene = synthetic::region_scene(32, 32, 5, 7.0, seed);
    let app = Segmentation::new(scene.image.clone(), SegmentationConfig::default());
    let engine = Engine::with_default_config();
    let schedules: [(&str, TemperatureSchedule, bool); 3] = [
        (
            "constant T=4 (+ mode tracking)",
            TemperatureSchedule::constant(4.0),
            true,
        ),
        (
            "geometric 4.0x0.93 floor 0.2",
            TemperatureSchedule::geometric(4.0, 0.93, 0.2),
            false,
        ),
        (
            "logarithmic c=4",
            TemperatureSchedule::Logarithmic { c: 4.0 },
            false,
        ),
    ];
    schedules
        .into_iter()
        .map(|(name, schedule, track_modes)| {
            let job = InferenceJob::new(app.mrf().clone(), SoftmaxGibbs::new())
                .schedule(schedule)
                .iterations(iterations)
                .burn_in(if track_modes { iterations / 4 } else { 0 })
                .track_modes(track_modes)
                .threads(2)
                .seed(seed);
            let result = engine
                .submit(job)
                .expect("engine accepts the schedule's job")
                .wait();
            let final_energy = *result
                .energy_trace
                .last()
                .expect("every sweep records its energy");
            let labels = result.map_estimate.unwrap_or(result.labels);
            AnnealRow {
                schedule: name.to_owned(),
                final_energy,
                accuracy: label_accuracy(&labels, &scene.truth),
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(rows: &[AnnealRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.schedule.clone(),
                format!("{:.0}", r.final_energy),
                format!("{:.1}%", r.accuracy * 100.0),
            ]
        })
        .collect();
    let mut s = String::from("A9: temperature schedules on the same segmentation posterior\n\n");
    s.push_str(&render_table(
        &["schedule", "final energy", "accuracy"],
        &table,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annealing_reaches_lower_energy_than_sampling() {
        let rows = run(80, 7);
        let constant = rows
            .iter()
            .find(|r| r.schedule.starts_with("constant"))
            .unwrap();
        let geometric = rows
            .iter()
            .find(|r| r.schedule.starts_with("geometric"))
            .unwrap();
        assert!(
            geometric.final_energy < constant.final_energy,
            "annealed {} vs sampled {}",
            geometric.final_energy,
            constant.final_energy
        );
    }

    #[test]
    fn all_schedules_reach_high_accuracy() {
        for row in run(80, 8) {
            assert!(
                row.accuracy > 0.85,
                "{}: accuracy {}",
                row.schedule,
                row.accuracy
            );
        }
    }
}
