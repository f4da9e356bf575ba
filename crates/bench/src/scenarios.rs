//! Scaled-down scenario presets shared by the figure binaries.
//!
//! The paper's efficiency experiments use 10 000–30 000 taxis over a full day
//! (1 440 minutes).  Re-running at that scale is unnecessary to reproduce the
//! *shape* of the figures, so the presets here default to a few hundred taxis
//! over a few hours and honour the `GPDT_SCALE` environment variable (a
//! float in `(0, 100]`) for users who want to push the sizes up or down.

use gpdt_clustering::{ClusterDatabase, ClusteringParams};
use gpdt_workload::{generate_scenario, ScenarioConfig, Weather};

/// A generated scenario together with its snapshot-cluster database.
#[derive(Debug, Clone)]
pub struct ClusteredScenario {
    /// The scenario (trajectories plus planted-event ground truth).
    pub scenario: gpdt_workload::GeneratedScenario,
    /// The snapshot clusters of the scenario under `clustering`.
    pub clusters: ClusterDatabase,
    /// The clustering parameters used.
    pub clustering: ClusteringParams,
}

/// The global scale factor read from `GPDT_SCALE` (default 1.0); see
/// [`crate::env`].
pub fn scale() -> f64 {
    crate::env::scale()
}

/// Applies the global scale factor to a count.
pub fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).round().max(1.0) as usize
}

/// Generates an efficiency-experiment scenario (Figure 6/8 style) and
/// clusters it with the paper's DBSCAN setting.
pub fn clustered_scenario(seed: u64, num_taxis: usize, duration: u32) -> ClusteredScenario {
    let config = ScenarioConfig::efficiency_slice(seed, num_taxis, duration);
    let scenario = generate_scenario(&config);
    let clustering = ClusteringParams::new(200.0, 5);
    let clusters = ClusterDatabase::build(&scenario.database, &clustering);
    ClusteredScenario {
        scenario,
        clusters,
        clustering,
    }
}

/// Generates a (scaled) single synthetic day for the effectiveness study
/// (Figure 5) and clusters it.
pub fn clustered_day(
    seed: u64,
    weather: Weather,
    num_taxis: usize,
    duration: u32,
) -> ClusteredScenario {
    let config = ScenarioConfig {
        num_taxis,
        duration,
        ..ScenarioConfig::single_day(seed, weather)
    };
    let scenario = generate_scenario(&config);
    let clustering = ClusteringParams::new(200.0, 5);
    let clusters = ClusterDatabase::build(&scenario.database, &clustering);
    ClusteredScenario {
        scenario,
        clusters,
        clustering,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // The test environment does not set GPDT_SCALE.
        assert_eq!(scaled(100), (100.0 * scale()).round() as usize);
        assert!(scale() > 0.0);
    }

    #[test]
    fn clustered_scenario_produces_clusters() {
        let cs = clustered_scenario(5, 150, 40);
        assert_eq!(cs.clusters.len(), 40);
        assert_eq!(cs.scenario.database.len(), 150);
        // The clustering parameters are the paper's preprocessing setting.
        assert_eq!(cs.clustering, ClusteringParams::new(200.0, 5));
    }
}
