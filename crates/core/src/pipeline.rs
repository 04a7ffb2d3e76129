//! Cycle-accurate pipeline simulation with the RET structural hazard
//! (paper §5.2–§5.3).
//!
//! A RET circuit needs four 1 ns cycles to return to quiescence after a
//! sampling operation, but the pipeline wants to issue one label evaluation
//! per lane per cycle — a structural hazard. The paper resolves it with
//! **four replicated RET circuits per lane** scheduled round-robin. This
//! module simulates the issue schedule for any replica count, which backs
//! the paper's claim (4 replicas ⇒ no stalls) and the A2 ablation (what
//! happens with 1–8 replicas).

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Lanes (labels evaluated per cycle), `K`.
    pub lanes: u32,
    /// Replicated RET circuits per lane.
    pub replicas_per_lane: u32,
    /// Cycles a circuit is busy after issue (quiescence).
    pub quiescence_cycles: u32,
    /// Pipeline depth from issue to selection update.
    pub depth: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        // The paper's RSU-G1 point: 1 lane, 4 replicas, 4-cycle quiescence,
        // 7-stage issue-to-result depth.
        PipelineConfig {
            lanes: 1,
            replicas_per_lane: 4,
            quiescence_cycles: 4,
            depth: 7,
        }
    }
}

/// Result of simulating one random-variable evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteTiming {
    /// Cycle at which the last label evaluation issued.
    pub last_issue: u32,
    /// Total latency: last issue plus pipeline depth.
    pub total_cycles: u32,
    /// Issue stalls caused by busy RET circuits.
    pub stall_cycles: u32,
}

/// Simulates issuing `labels` evaluations through the pipeline, with
/// round-robin scheduling over each lane's replicated circuits.
///
/// # Panics
///
/// Panics if any configuration field is zero or `labels` is zero.
pub fn simulate_site(config: &PipelineConfig, labels: u32) -> SiteTiming {
    assert!(
        config.lanes > 0 && config.replicas_per_lane > 0,
        "hardware must exist"
    );
    assert!(
        config.quiescence_cycles > 0 && config.depth > 0,
        "timing must be positive"
    );
    assert!(labels > 0, "need at least one label");

    // Per-lane circuit free times; round-robin index per lane.
    let replicas = config.replicas_per_lane as usize;
    let lanes = config.lanes as usize;
    let mut free_at = vec![0u32; lanes * replicas];
    let mut rr = vec![0usize; lanes];
    let mut cycle = 0u32;
    let mut stalls = 0u32;
    let mut last_issue = 0u32;
    let mut issued = 0u32;
    while issued < labels {
        // This cycle, each lane issues one evaluation if its round-robin
        // circuit is quiescent.
        let mut any_issued = false;
        #[expect(
            clippy::needless_range_loop,
            reason = "lane indexes two arrays jointly"
        )]
        for lane in 0..lanes {
            if issued >= labels {
                break;
            }
            let idx = lane * replicas + rr[lane];
            if free_at[idx] <= cycle {
                free_at[idx] = cycle + config.quiescence_cycles;
                rr[lane] = (rr[lane] + 1) % replicas;
                issued += 1;
                last_issue = cycle;
                any_issued = true;
            }
        }
        if !any_issued {
            stalls += 1;
        }
        cycle += 1;
    }
    SiteTiming {
        last_issue,
        total_cycles: last_issue + config.depth,
        stall_cycles: stalls,
    }
}

/// Sustained throughput: average cycles per label evaluation over a long
/// run (issue-limited, ignoring the one-time pipeline fill).
pub fn sustained_cycles_per_label(config: &PipelineConfig, labels: u32) -> f64 {
    let timing = simulate_site(config, labels);
    f64::from(timing.last_issue + 1) / f64::from(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_replicas_sustain_one_per_cycle() {
        // The paper's design point: with 4 replicas and 4-cycle quiescence
        // the pipeline never stalls.
        let config = PipelineConfig::default();
        let t = simulate_site(&config, 64);
        assert_eq!(t.stall_cycles, 0);
        assert_eq!(t.last_issue, 63);
        assert_eq!(t.total_cycles, 63 + 7);
    }

    #[test]
    fn g1_latency_matches_variant_formula() {
        let config = PipelineConfig::default();
        for m in [2u32, 5, 49, 64] {
            let t = simulate_site(&config, m);
            // 7 + (M-1): pipeline depth + one issue per label.
            assert_eq!(t.total_cycles, 7 + (m - 1));
        }
    }

    #[test]
    fn single_circuit_stalls_to_quiescence_rate() {
        let config = PipelineConfig {
            replicas_per_lane: 1,
            ..PipelineConfig::default()
        };
        let rate = sustained_cycles_per_label(&config, 64);
        // One circuit busy 4 cycles ⇒ one evaluation per 4 cycles.
        assert!((rate - 4.0).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn replica_sweep_is_monotone() {
        let mut last = f64::INFINITY;
        for r in 1..=8u32 {
            let config = PipelineConfig {
                replicas_per_lane: r,
                ..PipelineConfig::default()
            };
            let rate = sustained_cycles_per_label(&config, 256);
            assert!(rate <= last + 1e-9, "replicas {r}: {rate} > {last}");
            last = rate;
        }
        // Beyond 4 replicas there is nothing left to gain.
        let at4 = sustained_cycles_per_label(
            &PipelineConfig {
                replicas_per_lane: 4,
                ..PipelineConfig::default()
            },
            256,
        );
        let at8 = sustained_cycles_per_label(
            &PipelineConfig {
                replicas_per_lane: 8,
                ..PipelineConfig::default()
            },
            256,
        );
        assert!((at4 - at8).abs() < 1e-9);
        assert!((at4 - 1.0).abs() < 0.01);
    }

    #[test]
    fn multi_lane_divides_issue_steps() {
        let config = PipelineConfig {
            lanes: 4,
            ..PipelineConfig::default()
        };
        let t = simulate_site(&config, 48);
        assert_eq!(t.last_issue, 11); // 48 labels / 4 lanes = 12 issue cycles
        assert_eq!(t.stall_cycles, 0);
    }

    #[test]
    fn two_replicas_halve_the_stall() {
        let config = PipelineConfig {
            replicas_per_lane: 2,
            ..PipelineConfig::default()
        };
        let rate = sustained_cycles_per_label(&config, 128);
        assert!((rate - 2.0).abs() < 0.1, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "hardware must exist")]
    fn zero_lanes_rejected() {
        simulate_site(
            &PipelineConfig {
                lanes: 0,
                ..PipelineConfig::default()
            },
            4,
        );
    }
}
