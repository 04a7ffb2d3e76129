//! MRF texture modelling: sampling textures *from the prior* — the
//! generative direction of the same model the other examples invert.
//! Shows how coupling strength controls the correlation length, through
//! the Potts ordering transition.
//!
//! Run with: `cargo run --release --example texture_synthesis`

use mogs_engine::Engine;
use mogs_gibbs::SoftmaxGibbs;
use mogs_mrf::SmoothnessPrior;
use mogs_vision::texture_model::{TextureConfig, TextureModel};

fn main() {
    println!("Potts textures at increasing coupling (48x24, 8 labels, 60 sweeps):\n");
    let engine = Engine::with_default_config();
    for coupling in [0.2, 0.8, 1.5] {
        let model = TextureModel::new(
            48,
            24,
            TextureConfig {
                prior: SmoothnessPrior::potts(coupling),
                ..TextureConfig::default()
            },
        );
        let labels = model.run(&engine, SoftmaxGibbs::new(), 60, 7).labels;
        println!(
            "coupling {coupling}: neighbour agreement {:.0}% (uniform would be 12.5%)",
            100.0 * model.neighbor_agreement(&labels)
        );
        println!("{}", model.to_image(&labels).to_ascii());
    }
    println!(
        "Weak coupling gives salt-and-pepper noise; strong coupling grows \
         coherent domains —\nthe texture-modeling application §1 of the paper \
         lists, running on the same MRF machinery."
    );
}
