//! One job description — workload, backend and budget — with one JSON
//! codec, one validation and one build, shared by the serving front-end
//! (a request body) and the fleet (a worker's launch text and checkpoint
//! meta). Workloads are descriptions, not data: every scene is a
//! deterministic function of its parameters, so two processes reading
//! the same description build bit-identical fields.
//!
//! The codec is one flat JSON object: [`JobDescription::encode`] writes
//! every key the workload reads, [`KeyReader`] fills absent keys with
//! defaults and refuses unknown ones, ones the workload does not read and
//! values out of range. Seeds are exact JSON integers and `f64` values
//! travel in Rust's shortest round-trip form, so `parse(encode(d)) == d`
//! bit for bit; a description is valid exactly when its text reads back.

use std::fmt;
use std::ops::RangeInclusive;
use std::sync::Arc;

use mogs_engine::{Backend, BackendSampler, InferenceJob, MAX_REPLICAS};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::label::MAX_LABELS;
use mogs_mrf::{fnv1a, Grid2D, Label, LabelSpace, MarkovRandomField, SmoothnessPrior};
use serde::de::{self, Parser};
use serde::Serialize;

use crate::motion::{MotionConfig, MotionEstimation};
use crate::segmentation::{Segmentation, SegmentationConfig};
use crate::stereo::{StereoConfig, StereoMatching};
use crate::synthetic::{self, demo_field, DEMO_MAX_ENERGY};

/// The most sites a description's field may span along either axis.
pub const MAX_SIDE: usize = 1 << 14;

/// The largest sweep budget a description may name.
pub const MAX_ITERATIONS: usize = 1 << 20;

/// A deterministic workload: the parameters every process builds the
/// same field from. A synthetic scene's `noise_sigma` is the Gaussian
/// noise added to its images and `scene_seed` seeds the rendering (not
/// the sampler).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The crash-harness Potts field, [`synthetic::demo_field`], on
    /// `labels` scalar labels.
    Demo {
        width: usize,
        height: usize,
        labels: u16,
    },
    /// Intensity segmentation of a synthetic scene of `labels` regions.
    Segmentation {
        width: usize,
        height: usize,
        labels: u16,
        noise_sigma: f64,
        scene_seed: u64,
    },
    /// Dense motion estimation over a synthetic pair translated by
    /// `(dx, dy)`, each in `-3..=3`, on the 49-label search window.
    Motion {
        width: usize,
        height: usize,
        dx: i32,
        dy: i32,
        noise_sigma: f64,
        scene_seed: u64,
    },
    /// Stereo matching (paper §8.1): a rendered rectified pair with a
    /// foreground square at `disparity` (`1..=4`) pixels, on 5 disparity
    /// labels.
    Stereo {
        width: usize,
        height: usize,
        disparity: u8,
        noise_sigma: f64,
        scene_seed: u64,
    },
    /// Caller-supplied unary energies, row-major `sites × labels`, on a
    /// unit-weight Potts prior.
    Raw {
        width: usize,
        height: usize,
        labels: u16,
        unaries: Vec<f64>,
    },
}

impl Workload {
    /// Stable lowercase name: the JSON `workload` value.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Demo { .. } => "demo",
            Workload::Segmentation { .. } => "segmentation",
            Workload::Motion { .. } => "motion",
            Workload::Stereo { .. } => "stereo",
            Workload::Raw { .. } => "raw",
        }
    }

    /// Grid dimensions `(width, height)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        match *self {
            Workload::Demo { width, height, .. }
            | Workload::Segmentation { width, height, .. }
            | Workload::Motion { width, height, .. }
            | Workload::Stereo { width, height, .. }
            | Workload::Raw { width, height, .. } => (width, height),
        }
    }

    /// Sites in the plane; cannot overflow on a validated description.
    #[must_use]
    pub fn sites(&self) -> usize {
        let (width, height) = self.dims();
        width * height
    }
}

/// The complete, self-contained description of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDescription {
    /// What to infer.
    pub workload: Workload,
    /// Which sampler family runs it.
    pub backend: Backend,
    /// Full sweep budget.
    pub iterations: usize,
    /// Deterministic chunk count: it feeds the chunk RNG streams and so
    /// fixes the result, whatever the worker count.
    pub threads: usize,
    /// Base RNG seed of the sampler.
    pub seed: u64,
    /// Burn-in prefix discarded before mode tracking.
    pub burn_in: usize,
}

/// Why a text or a value is not a runnable job description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Not a description: malformed JSON, an unknown key, a value of the
    /// wrong shape.
    Malformed(String),
    /// A value out of range, or a key its workload does not read.
    Invalid(String),
}

impl From<de::Error> for JobError {
    fn from(err: de::Error) -> Self {
        JobError::Malformed(err.to_string())
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Malformed(reason) => write!(f, "malformed job description: {reason}"),
            JobError::Invalid(reason) => write!(f, "invalid job description: {reason}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A synthetic stereo scene: width, height, foreground disparity,
/// `noise_sigma` and scene seed.
pub type StereoScene = (usize, usize, u8, f64, u64);

/// What [`JobDescription::build`] hands the built job to.
pub trait JobVisitor {
    /// What the visit returns.
    type Output;

    /// The field of a `Stereo` scene: [`stereo_field`], unless the
    /// visitor keeps scenes across jobs.
    fn stereo(&mut self, scene: StereoScene) -> StereoMatching {
        stereo_field(scene)
    }

    /// Receives the job the description builds.
    fn visit<S: SingletonPotential + 'static>(
        self,
        job: InferenceJob<S, BackendSampler>,
    ) -> Self::Output;
}

/// The stereo field of a synthetic scene under the default model (5
/// disparity labels).
#[must_use]
pub fn stereo_field(scene: StereoScene) -> StereoMatching {
    let (width, height, disparity, noise_sigma, scene_seed) = scene;
    let pair = synthetic::stereo_pair(width, height, disparity, noise_sigma, scene_seed);
    StereoMatching::new(&pair.left, &pair.right, StereoConfig::default())
}

impl JobDescription {
    /// Sites in the plane.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.workload.sites()
    }

    /// Checks every value against its range by reading the description's
    /// own text back: valid means it reads back, so a valid description
    /// also survives the codec, and builds without panicking.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] naming the first value out of range (a raw
    /// table whose length is no multiple of its label count included).
    pub fn validate(&self) -> Result<(), JobError> {
        match Self::parse(&self.encode()) {
            Ok(_) => Ok(()),
            Err(JobError::Malformed(reason) | JobError::Invalid(reason)) => {
                Err(JobError::Invalid(reason))
            }
        }
    }

    /// The description as its JSON text: every key the workload reads,
    /// in a fixed order. A non-finite `f64` is written as `null`.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut o = JsonObject(String::with_capacity(192));
        let (width, height) = self.workload.dims();
        o.key("workload", self.workload.name())
            .key("width", &width)
            .key("height", &height);
        let scene = match &self.workload {
            Workload::Demo { labels, .. } => {
                o.key("labels", labels);
                None
            }
            Workload::Segmentation {
                labels,
                noise_sigma,
                scene_seed,
                ..
            } => {
                o.key("labels", labels);
                Some((noise_sigma, scene_seed))
            }
            Workload::Motion {
                dx,
                dy,
                noise_sigma,
                scene_seed,
                ..
            } => {
                o.key("dx", dx).key("dy", dy);
                Some((noise_sigma, scene_seed))
            }
            Workload::Stereo {
                disparity,
                noise_sigma,
                scene_seed,
                ..
            } => {
                o.key("disparity", disparity);
                Some((noise_sigma, scene_seed))
            }
            Workload::Raw {
                labels, unaries, ..
            } => {
                let rows: Vec<&[f64]> = unaries.chunks(usize::from(*labels).max(1)).collect();
                o.key("labels", labels).key("unaries", &rows);
                None
            }
        };
        if let Some((noise_sigma, scene_seed)) = scene {
            o.key("noise_sigma", noise_sigma)
                .key("scene_seed", scene_seed);
        }
        match self.backend {
            Backend::Softmax => o.key("backend", "softmax"),
            Backend::RsuG { replicas } => o.key("backend", "rsu").key("replicas", &replicas),
        };
        o.key("iterations", &self.iterations)
            .key("threads", &self.threads)
            .key("seed", &self.seed)
            .key("burn_in", &self.burn_in);
        o.0.push('}');
        o.0
    }

    /// FNV-1a of [`encode`](Self::encode): what a fleet `Assign` names
    /// the job by.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.encode().as_bytes())
    }

    /// Parses a description from its JSON text and validates it.
    ///
    /// # Errors
    ///
    /// [`JobError::Malformed`] for text that is no description,
    /// [`JobError::Invalid`] for a value out of range.
    pub fn parse(text: &str) -> Result<Self, JobError> {
        let mut parser = Parser::new(text);
        let mut keys = KeyReader::default();
        parser.parse_object(|key, parser| keys.read_key(key, parser))?;
        parser.expect_end()?;
        keys.finish()
    }

    /// The sampler kernel the description runs on: its backend, an RSU-G
    /// pool's unit model at the field's temperature (at the demo field's
    /// energy bound for `Demo`, as the crash harness runs it).
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] when the backend names no valid pool.
    pub fn kernel(&self) -> Result<BackendSampler, JobError> {
        let temperature = match self.workload {
            Workload::Demo { .. } => DEMO_MAX_ENERGY,
            Workload::Segmentation { .. } => SegmentationConfig::default().temperature,
            Workload::Motion { .. } => MotionConfig::default().temperature,
            Workload::Stereo { .. } => StereoConfig::default().temperature,
            // The raw field keeps the builder's default temperature.
            Workload::Raw { .. } => 1.0,
        };
        BackendSampler::try_new(self.backend, temperature)
            .map_err(|err| JobError::Invalid(err.to_string()))
    }

    /// The application a `Segmentation` description builds its job from,
    /// so a caller can run the same model on another path.
    ///
    /// # Panics
    ///
    /// Panics unless the workload is `Segmentation`.
    #[must_use]
    pub fn segmentation(&self) -> Segmentation {
        let Workload::Segmentation {
            width,
            height,
            labels,
            noise_sigma,
            scene_seed,
        } = self.workload
        else {
            panic!("a `{}` job has no segmentation model", self.workload.name());
        };
        let scene =
            synthetic::region_scene(width, height, usize::from(labels), noise_sigma, scene_seed);
        let config = SegmentationConfig {
            num_labels: labels,
            threads: self.threads,
            ..SegmentationConfig::default()
        };
        Segmentation::new(scene.image, config)
    }

    /// Validates the description, builds its job and hands it to
    /// `visitor` — the one path from a description to an engine job.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] when the description does not validate.
    pub fn build<V: JobVisitor>(&self, mut visitor: V) -> Result<V::Output, JobError> {
        self.validate()?;
        let kernel = self.kernel()?;
        let (width, height) = self.workload.dims();
        let (iterations, seed) = (self.iterations, self.seed);
        Ok(match &self.workload {
            Workload::Demo { labels, .. } => {
                let field = demo_field(width, height, *labels);
                visitor.visit(self.schedule(InferenceJob::new(field, kernel)))
            }
            Workload::Segmentation { .. } => {
                let job = self.segmentation().engine_job(kernel, iterations, seed);
                visitor.visit(self.schedule(job))
            }
            &Workload::Motion {
                dx,
                dy,
                noise_sigma,
                scene_seed,
                ..
            } => {
                let scene =
                    synthetic::translated_pair(width, height, dx, dy, noise_sigma, scene_seed);
                let config = MotionConfig::default();
                let app = MotionEstimation::new(&scene.frame1, &scene.frame2, config);
                visitor.visit(self.schedule(app.engine_job(kernel, iterations, seed)))
            }
            &Workload::Stereo {
                disparity,
                noise_sigma,
                scene_seed,
                ..
            } => {
                let app = visitor.stereo((width, height, disparity, noise_sigma, scene_seed));
                visitor.visit(self.schedule(app.engine_job(kernel, iterations, seed)))
            }
            Workload::Raw {
                labels, unaries, ..
            } => {
                let singleton = TableSingleton {
                    labels: usize::from(*labels),
                    energies: Arc::new(unaries.clone()),
                };
                let space = LabelSpace::scalar(*labels);
                let field = MarkovRandomField::builder(Grid2D::new(width, height), space)
                    .prior(SmoothnessPrior::potts(1.0))
                    .singleton(singleton)
                    .build();
                visitor.visit(self.schedule(InferenceJob::new(field, kernel)))
            }
        })
    }

    /// Sets the description's budget, chunking, seed and burn-in on a
    /// workload's job, with mode tracking on.
    fn schedule<S: SingletonPotential>(
        &self,
        mut job: InferenceJob<S, BackendSampler>,
    ) -> InferenceJob<S, BackendSampler> {
        job.iterations = self.iterations;
        job.threads = self.threads;
        job.seed = self.seed;
        job.burn_in = self.burn_in;
        job.track_modes = true;
        job
    }
}

/// A JSON object under construction.
struct JsonObject(String);

impl JsonObject {
    fn key(&mut self, name: &str, value: &(impl Serialize + ?Sized)) -> &mut Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        name.serialize_json(&mut self.0);
        self.0.push(':');
        value.serialize_json(&mut self.0);
        self
    }
}

/// The job description's keys, the one reader of them: it takes each
/// key of a JSON object as it comes (an unknown key is refused, a
/// repeated one keeps its last value) and assembles the description once
/// the object has closed. A request body with keys of its own reads
/// those itself and hands every other key here.
#[derive(Debug, Default)]
pub struct KeyReader<'a> {
    /// Each key read, its value's text, and whether the description used it.
    keys: Vec<(String, &'a str, bool)>,
}

/// Every key a description may carry.
const KEYS: [&str; 16] = [
    "workload",
    "width",
    "height",
    "labels",
    "iterations",
    "threads",
    "seed",
    "scene_seed",
    "burn_in",
    "noise_sigma",
    "dx",
    "dy",
    "disparity",
    "unaries",
    "backend",
    "replicas",
];

impl<'a> KeyReader<'a> {
    /// Reads the value of `key`, at which the parser sits.
    ///
    /// # Errors
    ///
    /// A parse error for an unknown key or a malformed value.
    pub fn read_key(&mut self, key: &str, parser: &mut Parser<'a>) -> Result<bool, de::Error> {
        if !KEYS.contains(&key) {
            return Err(parser.error(&format!("unknown key `{key}`")));
        }
        let text = parser.value_text()?;
        self.keys.retain(|(read, ..)| read != key);
        self.keys.push((key.to_string(), text, false));
        Ok(true)
    }

    /// The description the keys read name, absent keys at their
    /// defaults, every value checked against its range.
    ///
    /// # Errors
    ///
    /// [`JobError::Malformed`] without a `workload` or for a value of the
    /// wrong shape, [`JobError::Invalid`] for an unknown workload or
    /// backend, a key the workload does not read, or a value out of
    /// range.
    pub fn finish(mut self) -> Result<JobDescription, JobError> {
        let Some(name) = self.take("workload", Parser::parse_string)? else {
            return Err(JobError::Malformed("missing key `workload`".to_string()));
        };
        let seed = self.int("seed", 0, 0..=u64::MAX)?;
        let iterations = self.int("iterations", 20, 1..=MAX_ITERATIONS)?;
        let width = self.int("width", 16, 1..=MAX_SIDE)?;
        let height = self.int("height", 16, 1..=MAX_SIDE)?;
        let workload = match name.as_str() {
            "demo" => Workload::Demo {
                width,
                height,
                labels: self.int("labels", 5, 1..=MAX_LABELS)?,
            },
            "segmentation" => Workload::Segmentation {
                width,
                height,
                labels: self.int("labels", 5, 1..=MAX_LABELS)?,
                noise_sigma: self.noise_sigma()?,
                scene_seed: self.int("scene_seed", seed, 0..=u64::MAX)?,
            },
            "motion" => Workload::Motion {
                width,
                height,
                dx: self.shift("dx", 1)?,
                dy: self.shift("dy", 0)?,
                noise_sigma: self.noise_sigma()?,
                scene_seed: self.int("scene_seed", seed, 0..=u64::MAX)?,
            },
            "stereo" => Workload::Stereo {
                width,
                height,
                disparity: self.int("disparity", 2, 1..=4)?,
                noise_sigma: self.noise_sigma()?,
                scene_seed: self.int("scene_seed", seed, 0..=u64::MAX)?,
            },
            "raw" => {
                let labels = self.int("labels", 5, 1..=MAX_LABELS)?;
                let (unaries, row) = self.take("unaries", read_unaries)?.unwrap_or_default();
                let sites = width * height;
                if row != usize::from(labels)
                    || unaries.len() != sites * row
                    || unaries.iter().any(|e| !e.is_finite())
                {
                    let reason =
                        format!("`unaries` must be {sites} rows of {labels} finite energies");
                    return Err(JobError::Invalid(reason));
                }
                Workload::Raw {
                    width,
                    height,
                    labels,
                    unaries,
                }
            }
            other => {
                return Err(JobError::Invalid(format!(
                    "unknown workload `{other}` (expected demo, segmentation, motion, stereo \
                     or raw)"
                )));
            }
        };
        let backend = match self.take("backend", Parser::parse_string)?.as_deref() {
            None | Some("softmax") => Backend::Softmax,
            Some("rsu") => Backend::RsuG {
                replicas: self.int("replicas", 0, 1..=MAX_REPLICAS)?,
            },
            Some(other) => {
                return Err(JobError::Invalid(format!(
                    "unknown backend `{other}` (expected softmax or rsu)"
                )));
            }
        };
        // The applications' own burn-in fractions; a quarter otherwise.
        let fraction = |fraction: f64| (iterations as f64 * fraction) as usize;
        let burn_in = match workload {
            Workload::Segmentation { .. } => {
                fraction(SegmentationConfig::default().burn_in_fraction)
            }
            Workload::Motion { .. } => fraction(MotionConfig::default().burn_in_fraction),
            Workload::Stereo { .. } => fraction(StereoConfig::default().burn_in_fraction),
            Workload::Demo { .. } | Workload::Raw { .. } => iterations / 4,
        };
        let description = JobDescription {
            workload,
            backend,
            iterations,
            threads: self.int("threads", 2, 1..=256)?,
            seed,
            burn_in: self.int("burn_in", burn_in, 0..=usize::MAX)?,
        };
        if let Some((key, ..)) = self.keys.iter().find(|(.., used)| !used) {
            return Err(JobError::Invalid(format!(
                "a `{name}` job does not read `{key}`"
            )));
        }
        Ok(description)
    }

    /// `key`'s value typed by `read`, if the key was given.
    fn take<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Parser<'a>) -> Result<T, de::Error>,
    ) -> Result<Option<T>, JobError> {
        let Some((_, text, used)) = self.keys.iter_mut().find(|(read, ..)| read == key) else {
            return Ok(None);
        };
        *used = true;
        let mut parser = Parser::new(text);
        let value = read(&mut parser)?;
        parser.expect_end()?;
        Ok(Some(value))
    }

    /// An integer key's value in `range`, or `default` when it was
    /// absent. A missing pool size reads as 0, which its range refuses.
    fn int<T>(&mut self, key: &str, default: T, range: RangeInclusive<T>) -> Result<T, JobError>
    where
        T: TryFrom<u64> + PartialOrd + fmt::Display + fmt::Debug,
    {
        let value = match self.take(key, Parser::parse_u64)? {
            None => default,
            Some(value) => T::try_from(value)
                .map_err(|_| JobError::Invalid(format!("`{key}` {value} is out of range")))?,
        };
        within(key, value, range)
    }

    /// `noise_sigma`, in `0..=128`.
    fn noise_sigma(&mut self) -> Result<f64, JobError> {
        let sigma = self.take("noise_sigma", read_f64)?.unwrap_or(12.0);
        within("noise_sigma", sigma, 0.0..=128.0)
    }

    /// A motion displacement key's value: an integer in `-3..=3`.
    fn shift(&mut self, key: &str, default: i32) -> Result<i32, JobError> {
        let value = self.take(key, read_f64)?.unwrap_or(f64::from(default));
        match within(key, value, -3.0..=3.0)? {
            shift if shift.fract() == 0.0 => Ok(shift as i32),
            _ => Err(JobError::Invalid(format!(
                "`{key}` {value} is not an integer"
            ))),
        }
    }
}

/// `value`, refused unless `range` holds it (NaN never is).
fn within<T>(key: &str, value: T, range: RangeInclusive<T>) -> Result<T, JobError>
where
    T: PartialOrd + fmt::Display + fmt::Debug,
{
    if range.contains(&value) {
        Ok(value)
    } else {
        Err(JobError::Invalid(format!(
            "`{key}` {value} is outside {range:?}"
        )))
    }
}

/// Reads a JSON number; `null`, which [`encode`](JobDescription::encode)
/// writes for a non-finite value, reads as NaN for the range to refuse.
fn read_f64(parser: &mut Parser<'_>) -> Result<f64, de::Error> {
    if parser.consume_literal("null") {
        Ok(f64::NAN)
    } else {
        parser.parse_number()
    }
}

/// Reads `unaries`, an array of rows of energies, into one row-major
/// vector, refusing each row as it closes unless it holds as many
/// energies as the first, at least one.
fn read_unaries(parser: &mut Parser<'_>) -> Result<(Vec<f64>, usize), de::Error> {
    let (mut energies, mut width) = (Vec::new(), 0);
    parser.expect_char('[')?;
    while !parser.consume_char(']') {
        if width > 0 {
            parser.expect_char(',')?;
        }
        let start = energies.len();
        parser.expect_char('[')?;
        while !parser.consume_char(']') {
            if energies.len() > start {
                parser.expect_char(',')?;
            }
            energies.push(read_f64(parser)?);
        }
        let row = energies.len() - start;
        if row == 0 || (width > 0 && row != width) {
            return Err(parser.error(&format!(
                "a `unaries` row holds {row} energies; every row must hold the first row's \
                 count, at least one"
            )));
        }
        width = row;
    }
    Ok((energies, width))
}

/// Per-site unary lookup for the raw workload: the row-major
/// `sites × labels` table behind an `Arc`, so field clones stay cheap.
#[derive(Debug, Clone)]
struct TableSingleton {
    labels: usize,
    energies: Arc<Vec<f64>>,
}

impl SingletonPotential for TableSingleton {
    fn energy(&self, site: usize, label: Label) -> f64 {
        self.energies[site * self.labels + usize::from(label.value())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_singleton_indexes_row_major() {
        let s = TableSingleton {
            labels: 2,
            energies: Arc::new(vec![0.0, 1.0, 2.0, 3.0]),
        };
        assert_eq!(s.energy(0, Label::new(1)), 1.0);
        assert_eq!(s.energy(1, Label::new(0)), 2.0);
    }
}
