//! The repository benchmark: three fixed-work workloads over the Totoro
//! stack, each a closed batch job driven from one thread (plus the shard
//! workers of `geo_gossip`), with host-time and modelled metrics, per-
//! workload correctness gates, and a separate traced mode for per-layer
//! numbers. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod fl_mix;
pub mod forest_churn;
pub mod geo_gossip;
pub mod layers;
pub mod report;
pub mod trace;

use report::Iteration;
use trace::Tracer;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 3 point: Totoro vs the OpenFL-like engine.
    FlMix,
    /// Overlapping trees, waves, 5% mass failure, repair.
    ForestChurn,
    /// Sharded zone gossip over the EUA geography.
    GeoGossip,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::FlMix, Workload::ForestChurn, Workload::GeoGossip];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlMix => "fl_mix",
            Workload::ForestChurn => "forest_churn",
            Workload::GeoGossip => "geo_gossip",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed simulated-time slice host time is sampled over.
    pub fn slice(self) -> &'static str {
        match self {
            Workload::FlMix => "5 s",
            Workload::ForestChurn => "1 s",
            Workload::GeoGossip => "1 ms",
        }
    }

    /// The measured input size, as printed beside the results.
    pub fn describe(self) -> String {
        match self {
            Workload::FlMix => {
                let s = fl_mix::Size::new(false);
                format!(
                    "{} nodes x {} apps x {} rounds, {} samples/client, Totoro then OpenFL-like",
                    s.nodes, s.apps, s.rounds, s.samples
                )
            }
            Workload::ForestChurn => {
                let s = forest_churn::Size::new(false);
                format!(
                    "~{} nodes, {} trees, {}+{} waves around a 5% mass failure",
                    s.nodes, s.trees, s.waves_before, s.waves_after
                )
            }
            Workload::GeoGossip => {
                let s = geo_gossip::Size::new(false);
                format!(
                    "~{} nodes x {} beats on {} shards",
                    s.nodes, s.beats, s.shards
                )
            }
        }
    }

    /// Runs one iteration (set-up plus the fixed work) for `seed`, at the
    /// measured size or, with `tiny`, at the self-test's toy size.
    pub fn iterate(self, seed: u64, tiny: bool, t: &mut Tracer) -> Iteration {
        match self {
            Workload::FlMix => fl_mix::iterate(seed, &fl_mix::Size::new(tiny), t),
            Workload::ForestChurn => forest_churn::iterate(seed, &forest_churn::Size::new(tiny), t),
            Workload::GeoGossip => geo_gossip::iterate(seed, &geo_gossip::Size::new(tiny), t),
        }
    }
}
