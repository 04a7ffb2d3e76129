//! The fleet's job is one [`JobDescription`]: its `encode` text is each
//! worker's launch and the coordinator's checkpoint meta, and an
//! `Assign` names it by digest. Every launcher runs the same parse and
//! build on both ends, so no key is skipped. The text rides `argv` or the
//! environment, where Linux caps one string at 128 KiB
//! (`MAX_ARG_STRLEN`), so a description past [`LAUNCH_SPEC_LIMIT`] is
//! refused before any worker starts.

use mogs_vision::job::JobDescription;

use crate::error::{FleetError, FleetResult};
use crate::worker::SPEC_ENV;

/// The longest spec text a fleet launches: Linux's 128 KiB cap on one
/// `argv` or environment string, less the self-exec launcher's
/// `MOGS_FLEET_SPEC=` prefix and the terminating NUL.
pub const LAUNCH_SPEC_LIMIT: usize = (128 << 10) - SPEC_ENV.len() - 2;

/// Validates `spec` and refuses one whose launch text runs past
/// [`LAUNCH_SPEC_LIMIT`].
pub(crate) fn check_launch(spec: &JobDescription) -> FleetResult<()> {
    spec.validate()?;
    let bytes = spec.encode().len();
    if bytes > LAUNCH_SPEC_LIMIT {
        return Err(FleetError::Spec {
            reason: format!(
                "the spec's launch text is {bytes} bytes, past the {LAUNCH_SPEC_LIMIT}-byte \
                 launch bound"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_engine::Backend;
    use mogs_vision::job::Workload;

    fn parse(text: &str) -> FleetResult<JobDescription> {
        Ok(JobDescription::parse(text)?)
    }

    fn demo() -> JobDescription {
        JobDescription {
            workload: Workload::Demo {
                width: 12,
                height: 9,
                labels: 5,
            },
            backend: Backend::RsuG { replicas: 4 },
            iterations: 36,
            threads: 3,
            seed: 0x5EED_0C0A,
            burn_in: 6,
        }
    }

    fn stereo() -> JobDescription {
        JobDescription {
            workload: Workload::Stereo {
                width: 24,
                height: 18,
                disparity: 2,
                noise_sigma: 2.0,
                scene_seed: 17,
            },
            backend: Backend::Softmax,
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
            let back = parse(&text).expect("round trip parses");
            assert_eq!(back, spec, "round trip must be lossless: {text}");
        }
    }

    #[test]
    fn seed_above_f64_precision_survives() {
        // 2^53 + 1 is exactly the value a number read through f64 rounds.
        let mut spec = demo();
        spec.seed = (1 << 53) + 1;
        let back = parse(&spec.encode()).expect("parses");
        assert_eq!(back.seed, (1 << 53) + 1);
    }

    #[test]
    fn noise_sigma_is_bit_exact() {
        let mut spec = stereo();
        if let Workload::Stereo { noise_sigma, .. } = &mut spec.workload {
            *noise_sigma = 0.1 + 0.2; // a value with no short decimal form
        }
        let back = parse(&spec.encode()).expect("parses");
        let Workload::Stereo { noise_sigma, .. } = back.workload else {
            panic!("wrong workload");
        };
        assert_eq!(noise_sigma.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn invalid_specs_are_refused() {
        let mut bad = demo();
        bad.iterations = 0;
        assert!(parse(&bad.encode()).is_err(), "zero iterations");
        let mut bad = stereo();
        if let Workload::Stereo { disparity, .. } = &mut bad.workload {
            *disparity = 9;
        }
        assert!(parse(&bad.encode()).is_err(), "bad disparity");
        assert!(
            parse("{\"workload\":{\"kind\":\"demo\"}}").is_err(),
            "missing fields"
        );
        assert!(parse("not json").is_err(), "garbage");
    }

    #[test]
    fn unknown_keys_are_refused() {
        let mut text = demo().encode();
        text.insert_str(1, "\"future\":{\"nested\":[1,2,3]},");
        let err = parse(&text).expect_err("an unknown key");
        assert_eq!(err.variant(), "protocol", "{err}");
    }
}
