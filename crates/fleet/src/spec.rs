//! The serializable fleet job description.
//!
//! A [`FleetSpec`] is everything a worker process needs to rebuild its
//! shard of the job *exactly* — workload, backend, sweep budget,
//! chunking, seed. It rides every worker launch (an `Assign` names it
//! by [`digest`](FleetSpec::digest)) and is stored as checkpoint
//! `meta`, so the encoding follows the workspace's
//! envelope discipline: `u64` values travel as 16-digit hex strings
//! (the vendored JSON parser routes numbers through `f64`, which cannot
//! carry a full 64-bit seed; `mogs_ckpt::parse_hex_u64` is the one
//! reader), `f64` values travel as their IEEE-754 bit patterns (nothing
//! is allowed to round), and only provably-small integers ride as plain
//! JSON numbers.
//!
//! Workloads are *descriptions*, not data: both the demo field (the
//! `mogs-ckpt` crash-harness Potts model) and the synthetic stereo pair
//! are deterministic functions of their parameters, so two processes
//! that parse the same spec build bit-identical MRFs without shipping
//! pixel planes around.

use mogs_ckpt::{parse_hex_u64, parse_object};
use mogs_mrf::{fnv1a, label::MAX_LABELS};
use serde::de::{self, Parser};
use serde::{Deserialize, Serialize};

use crate::error::{FleetError, FleetResult};

/// Which sampler family the fleet job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Exact software Gibbs (softmax of the conditionals).
    Softmax,
    /// Emulated RSU-G pool.
    Rsu {
        /// Units in the pool, `1..=mogs_engine::MAX_REPLICAS`.
        replicas: usize,
    },
}

impl BackendKind {
    /// The engine-side backend selector.
    #[must_use]
    pub fn to_engine(self) -> mogs_engine::Backend {
        match self {
            BackendKind::Softmax => mogs_engine::Backend::Softmax,
            BackendKind::Rsu { replicas } => mogs_engine::Backend::RsuG { replicas },
        }
    }
}

/// A deterministic workload: parameters from which every process builds
/// the same MRF.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The `mogs-ckpt` crash-harness field: a Potts prior plus a fixed
    /// pseudo-random singleton preference per `(site, label)`.
    Demo {
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
        /// Labels in the scalar label space.
        labels: u16,
    },
    /// Synthetic stereo matching (paper §8.1): a rendered rectified pair
    /// with a foreground square at known disparity.
    Stereo {
        /// Image width.
        width: usize,
        /// Image height.
        height: usize,
        /// Foreground disparity in pixels (`1..=4`).
        disparity: u8,
        /// Gaussian noise added to the rendered pair.
        noise_sigma: f64,
        /// Seed of the rendered scene (not the sampler).
        scene_seed: u64,
    },
}

impl Workload {
    /// Grid dimensions `(width, height)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        match *self {
            Workload::Demo { width, height, .. } | Workload::Stereo { width, height, .. } => {
                (width, height)
            }
        }
    }

    /// Sites in the plane. Cannot overflow on a validated spec
    /// ([`FleetSpec::validate`] refuses such dimensions).
    #[must_use]
    pub fn sites(&self) -> usize {
        let (w, h) = self.dims();
        w * h
    }
}

/// The complete, self-contained description of one fleet job.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// What to infer.
    pub workload: Workload,
    /// Which sampler family to run.
    pub backend: BackendKind,
    /// Full sweep budget.
    pub iterations: usize,
    /// Deterministic chunk count (feeds the chunk RNG streams; the
    /// partitioner splits along these chunks).
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Burn-in prefix discarded before mode tracking.
    pub burn_in: usize,
}

impl FleetSpec {
    /// Structural validation: everything checkable without building the
    /// field. Engine admission re-checks the rest per shard.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`] naming the violated constraint.
    pub fn validate(&self) -> FleetResult<()> {
        let spec = |reason: String| FleetError::Spec { reason };
        let (w, h) = self.workload.dims();
        if w == 0 || h == 0 {
            return Err(spec(format!("workload grid {w}x{h} has no sites")));
        }
        // Every site index crosses the wire as a `u32`.
        let sites = w.checked_mul(h);
        if sites.is_none_or(|n| u32::try_from(n - 1).is_err()) {
            return Err(spec(format!(
                "workload grid {w}x{h} has more sites than a u32 site index can name"
            )));
        }
        if self.iterations == 0 {
            return Err(spec("iterations must be at least 1".to_string()));
        }
        if self.threads == 0 {
            return Err(spec("threads must be at least 1".to_string()));
        }
        match self.workload {
            Workload::Demo { labels, .. } => {
                if labels == 0 || labels > MAX_LABELS {
                    return Err(spec(format!(
                        "demo label space of {labels} is outside 1..={MAX_LABELS}"
                    )));
                }
            }
            Workload::Stereo {
                disparity,
                noise_sigma,
                ..
            } => {
                if !(1..=4).contains(&disparity) {
                    return Err(spec(format!(
                        "stereo disparity {disparity} outside 1..=4 (5-label space)"
                    )));
                }
                if !(noise_sigma.is_finite() && noise_sigma >= 0.0) {
                    return Err(spec(format!(
                        "stereo noise sigma {noise_sigma} must be finite and non-negative"
                    )));
                }
            }
        }
        if let BackendKind::Rsu { replicas } = self.backend {
            if !(1..=mogs_engine::MAX_REPLICAS).contains(&replicas) {
                return Err(spec(format!("RSU pool size {replicas} is out of range")));
            }
        }
        Ok(())
    }

    /// Encodes the spec as its launch/meta JSON text.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"workload\":");
        match &self.workload {
            Workload::Demo {
                width,
                height,
                labels,
            } => {
                out.push_str("{\"kind\":\"demo\",\"width\":");
                width.serialize_json(out);
                out.push_str(",\"height\":");
                height.serialize_json(out);
                out.push_str(",\"labels\":");
                labels.serialize_json(out);
                out.push('}');
            }
            Workload::Stereo {
                width,
                height,
                disparity,
                noise_sigma,
                scene_seed,
            } => {
                out.push_str("{\"kind\":\"stereo\",\"width\":");
                width.serialize_json(out);
                out.push_str(",\"height\":");
                height.serialize_json(out);
                out.push_str(",\"disparity\":");
                disparity.serialize_json(out);
                out.push_str(&format!(
                    ",\"noise_sigma\":\"{:016x}\"",
                    noise_sigma.to_bits()
                ));
                out.push_str(&format!(",\"scene_seed\":\"{scene_seed:016x}\""));
                out.push('}');
            }
        }
        out.push_str(",\"backend\":");
        match self.backend {
            BackendKind::Softmax => out.push_str("{\"kind\":\"softmax\"}"),
            BackendKind::Rsu { replicas } => {
                out.push_str("{\"kind\":\"rsu\",\"replicas\":");
                replicas.serialize_json(out);
                out.push('}');
            }
        }
        out.push_str(",\"iterations\":");
        self.iterations.serialize_json(out);
        out.push_str(",\"threads\":");
        self.threads.serialize_json(out);
        out.push_str(&format!(",\"seed\":\"{:016x}\"", self.seed));
        out.push_str(",\"burn_in\":");
        self.burn_in.serialize_json(out);
        out.push('}');
    }

    /// FNV-1a of [`encode`](Self::encode): what an `Assign` names the
    /// job by, checked against the spec the worker was launched with.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.encode().as_bytes())
    }

    /// Parses a spec from its JSON text and validates it.
    ///
    /// # Errors
    ///
    /// [`FleetError::Protocol`] on malformed JSON, [`FleetError::Spec`]
    /// on a structurally invalid spec.
    pub fn parse(input: &str) -> FleetResult<Self> {
        let mut parser = Parser::new(input);
        let spec = Self::parse_value(&mut parser).map_err(protocol)?;
        parser.expect_end().map_err(protocol)?;
        spec.validate()?;
        Ok(spec)
    }

    fn parse_value(parser: &mut Parser<'_>) -> Result<Self, de::Error> {
        let mut workload = None;
        let mut backend = None;
        let mut iterations = None;
        let mut threads = None;
        let mut seed = None;
        let mut burn_in = None;
        parse_object(parser, |key, parser| {
            match key {
                "workload" => workload = Some(parse_workload(parser)?),
                "backend" => backend = Some(parse_backend(parser)?),
                "iterations" => iterations = Some(usize::deserialize_json(parser)?),
                "threads" => threads = Some(usize::deserialize_json(parser)?),
                "seed" => seed = Some(parse_hex_u64(parser)?),
                "burn_in" => burn_in = Some(usize::deserialize_json(parser)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(FleetSpec {
            workload: workload.ok_or_else(|| parser.error("spec is missing 'workload'"))?,
            backend: backend.ok_or_else(|| parser.error("spec is missing 'backend'"))?,
            iterations: iterations.ok_or_else(|| parser.error("spec is missing 'iterations'"))?,
            threads: threads.ok_or_else(|| parser.error("spec is missing 'threads'"))?,
            seed: seed.ok_or_else(|| parser.error("spec is missing 'seed'"))?,
            burn_in: burn_in.ok_or_else(|| parser.error("spec is missing 'burn_in'"))?,
        })
    }
}

pub(crate) fn protocol(err: de::Error) -> FleetError {
    FleetError::Protocol {
        reason: err.to_string(),
    }
}

fn parse_workload(parser: &mut Parser<'_>) -> Result<Workload, de::Error> {
    let mut kind = None;
    let mut width = None;
    let mut height = None;
    let mut labels = None;
    let mut disparity = None;
    let mut noise_sigma = None;
    let mut scene_seed = None;
    parse_object(parser, |key, parser| {
        match key {
            "kind" => kind = Some(parser.parse_string()?),
            "width" => width = Some(usize::deserialize_json(parser)?),
            "height" => height = Some(usize::deserialize_json(parser)?),
            "labels" => labels = Some(u16::deserialize_json(parser)?),
            "disparity" => disparity = Some(u8::deserialize_json(parser)?),
            // An `f64` travels as its IEEE-754 bit pattern.
            "noise_sigma" => noise_sigma = Some(f64::from_bits(parse_hex_u64(parser)?)),
            "scene_seed" => scene_seed = Some(parse_hex_u64(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let kind = kind.ok_or_else(|| parser.error("workload is missing 'kind'"))?;
    let width = width.ok_or_else(|| parser.error("workload is missing 'width'"))?;
    let height = height.ok_or_else(|| parser.error("workload is missing 'height'"))?;
    match kind.as_str() {
        "demo" => Ok(Workload::Demo {
            width,
            height,
            labels: labels.ok_or_else(|| parser.error("demo workload is missing 'labels'"))?,
        }),
        "stereo" => Ok(Workload::Stereo {
            width,
            height,
            disparity: disparity
                .ok_or_else(|| parser.error("stereo workload is missing 'disparity'"))?,
            noise_sigma: noise_sigma
                .ok_or_else(|| parser.error("stereo workload is missing 'noise_sigma'"))?,
            scene_seed: scene_seed
                .ok_or_else(|| parser.error("stereo workload is missing 'scene_seed'"))?,
        }),
        other => Err(parser.error(&format!("unknown workload kind {other:?}"))),
    }
}

fn parse_backend(parser: &mut Parser<'_>) -> Result<BackendKind, de::Error> {
    let mut kind = None;
    let mut replicas = None;
    parse_object(parser, |key, parser| {
        match key {
            "kind" => kind = Some(parser.parse_string()?),
            "replicas" => replicas = Some(usize::deserialize_json(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match kind.as_deref() {
        Some("softmax") => Ok(BackendKind::Softmax),
        Some("rsu") => Ok(BackendKind::Rsu {
            replicas: replicas.ok_or_else(|| parser.error("rsu backend is missing 'replicas'"))?,
        }),
        Some(other) => Err(parser.error(&format!("unknown backend kind {other:?}"))),
        None => Err(parser.error("backend is missing 'kind'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> FleetSpec {
        FleetSpec {
            workload: Workload::Demo {
                width: 12,
                height: 9,
                labels: 5,
            },
            backend: BackendKind::Rsu { replicas: 4 },
            iterations: 36,
            threads: 3,
            seed: 0x5EED_0C0A,
            burn_in: 6,
        }
    }

    fn stereo() -> FleetSpec {
        FleetSpec {
            workload: Workload::Stereo {
                width: 24,
                height: 18,
                disparity: 2,
                noise_sigma: 2.0,
                scene_seed: 17,
            },
            backend: BackendKind::Softmax,
            iterations: 20,
            threads: 4,
            seed: u64::MAX - 3,
            burn_in: 6,
        }
    }

    #[test]
    fn round_trips_both_workloads() {
        for spec in [demo(), stereo()] {
            let text = spec.encode();
            let back = FleetSpec::parse(&text).expect("round trip parses");
            assert_eq!(back, spec, "round trip must be lossless: {text}");
        }
    }

    #[test]
    fn seed_above_f64_precision_survives() {
        // 2^53 + 1 is exactly the value a number-typed seed would round.
        let mut spec = demo();
        spec.seed = (1 << 53) + 1;
        let back = FleetSpec::parse(&spec.encode()).expect("parses");
        assert_eq!(back.seed, (1 << 53) + 1);
    }

    #[test]
    fn noise_sigma_is_bit_exact() {
        let mut spec = stereo();
        if let Workload::Stereo { noise_sigma, .. } = &mut spec.workload {
            *noise_sigma = 0.1 + 0.2; // a value with no short decimal form
        }
        let back = FleetSpec::parse(&spec.encode()).expect("parses");
        let Workload::Stereo { noise_sigma, .. } = back.workload else {
            panic!("wrong workload");
        };
        assert_eq!(noise_sigma.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn invalid_specs_are_refused() {
        let mut bad = demo();
        bad.iterations = 0;
        assert!(FleetSpec::parse(&bad.encode()).is_err(), "zero iterations");
        let mut bad = stereo();
        if let Workload::Stereo { disparity, .. } = &mut bad.workload {
            *disparity = 9;
        }
        assert!(FleetSpec::parse(&bad.encode()).is_err(), "bad disparity");
        assert!(
            FleetSpec::parse("{\"workload\":{\"kind\":\"demo\"}}").is_err(),
            "missing fields"
        );
        assert!(FleetSpec::parse("not json").is_err(), "garbage");
    }

    #[test]
    fn unknown_keys_are_skipped_for_forward_compat() {
        let mut text = demo().encode();
        text.insert_str(1, "\"future\":{\"nested\":[1,2,3]},");
        let back = FleetSpec::parse(&text).expect("tolerates unknown keys");
        assert_eq!(back, demo());
    }
}
