//! What one workload iteration produces, the metric catalogue, and the
//! small statistics the runner needs.

use std::collections::BTreeMap;

/// Whether a smaller or a larger value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, failures).
    Lower,
    /// Larger is better (speedups).
    Higher,
}

impl Better {
    /// `lower` / `higher`, as BENCHMARK.json spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The twelve end-to-end metrics, in print order: six host metrics, then
/// the modelled ones, which are deterministic for a seed and are printed
/// beside the result line with the outcome digest.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower),
    e2e("run_s", "s", Better::Lower),
    e2e("slice_ms_p50", "ms", Better::Lower),
    e2e("slice_ms_p90", "ms", Better::Lower),
    e2e("peak_rss_mb", "MB", Better::Lower),
    e2e("fail_share", "share", Better::Lower),
    e2e("sim_round_ms_p50", "ms", Better::Lower),
    e2e("sim_round_ms_p90", "ms", Better::Lower),
    e2e("sim_tta_s", "s", Better::Lower),
    e2e("tta_speedup", "x", Better::Higher),
    e2e("sim_repair_ms_p90", "ms", Better::Lower),
    e2e("wire_kb_per_node", "KB", Better::Lower),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> EndToEnd {
    EndToEnd { name, unit, better }
}

/// The end-to-end metrics of the result line (`--trace 0`). The slice
/// percentiles are printed in the table but left out: on a shared 2-vCPU
/// host their run-to-run spread over ten seeds reached 0.3-0.4 of the
/// median on `forest_churn`, above the largest bound a result metric may
/// have.
pub const RESULT_E2E: &[&str] = &["setup_s", "run_s", "peak_rss_mb"];

/// One per-layer metric and the end-to-end metric it should move.
pub struct LayerMetric {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end metric and workload it should move; on every other
    /// workload the prediction is no change.
    pub moves: &'static str,
    /// Whether it goes into the result line of `--trace 1`. Host-time
    /// metrics of a layer that some workload bypasses stay in the table
    /// and the trace file only, so that no result-line time is a constant
    /// zero.
    pub result: bool,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    result: bool,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        result,
    }
}

/// Every per-layer metric, grouped by layer.
pub const LAYERS: &[LayerMetric] = &[
    lm("simnet.topology_s", "s", "setup_s on geo_gossip", true),
    lm("simnet.run_s", "s", "run_s on forest_churn", true),
    lm("simnet.events", "count", "run_s on forest_churn", true),
    lm("simnet.events_per_s", "1/s", "run_s on forest_churn", true),
    lm(
        "simnet.singleton_ratio",
        "share",
        "run_s on forest_churn",
        true,
    ),
    lm(
        "simnet.sched_far_share",
        "share",
        "run_s on forest_churn",
        true,
    ),
    lm(
        "simnet.pending_max",
        "count",
        "slice_ms_p90 on forest_churn",
        true,
    ),
    lm("simnet.dropped_loss", "count", "fail_share", true),
    lm("simnet.dropped_dead", "count", "fail_share", true),
    lm("shard.run_s", "s", "run_s on geo_gossip", false),
    lm("shard.events_per_s", "1/s", "run_s on geo_gossip", true),
    lm("shard.process_s", "s", "run_s on geo_gossip", false),
    lm("shard.barrier_s", "s", "run_s on geo_gossip", false),
    lm("shard.exchange_s", "s", "run_s on geo_gossip", false),
    lm("shard.windows", "count", "run_s on geo_gossip", true),
    lm(
        "shard.events_per_window",
        "count",
        "run_s on geo_gossip",
        true,
    ),
    lm("shard.remote_msgs", "count", "run_s on geo_gossip", true),
    lm(
        "shard.state_bytes_per_node",
        "B",
        "peak_rss_mb on geo_gossip",
        true,
    ),
    lm(
        "dht.bootstrap_s",
        "s",
        "setup_s on fl_mix and forest_churn",
        false,
    ),
    lm("dht.routed", "count", "run_s on forest_churn", true),
    lm("dht.forwarded", "count", "run_s on forest_churn", true),
    lm("dht.next_hop_ns", "ns", "run_s on forest_churn", false),
    lm("dht.blocked", "count", "fail_share", true),
    lm("dht.peers_failed", "count", "fail_share", true),
    lm("dht.hops_mean", "hops", "sim_round_ms_p50", true),
    lm("dht.hops_max", "hops", "sim_round_ms_p50", true),
    lm("dht.msgs", "count", "wire_kb_per_node", true),
    lm("dht.bytes", "B", "wire_kb_per_node", true),
    lm("pubsub.subscribe_s", "s", "setup_s on forest_churn", false),
    lm("pubsub.joins_sent", "count", "run_s on forest_churn", true),
    lm(
        "pubsub.children_adopted",
        "count",
        "run_s on forest_churn",
        true,
    ),
    lm("pubsub.pushdowns", "count", "run_s on forest_churn", true),
    lm(
        "pubsub.broadcasts_forwarded",
        "count",
        "run_s on forest_churn",
        true,
    ),
    lm(
        "pubsub.aggregates_sent",
        "count",
        "run_s on forest_churn",
        true,
    ),
    lm(
        "pubsub.late_contributions",
        "count",
        "sim_round_ms_p90 and fail_share",
        true,
    ),
    lm(
        "pubsub.timeout_flushes",
        "count",
        "sim_round_ms_p90 and fail_share",
        true,
    ),
    lm(
        "pubsub.cycle_breaks",
        "count",
        "sim_round_ms_p90 and fail_share",
        true,
    ),
    lm(
        "pubsub.replans",
        "count",
        "sim_round_ms_p90 and fail_share",
        true,
    ),
    lm(
        "pubsub.repair_episodes",
        "count",
        "sim_repair_ms_p90 on forest_churn",
        true,
    ),
    lm(
        "pubsub.unrepaired",
        "count",
        "sim_repair_ms_p90 on forest_churn",
        true,
    ),
    lm("pubsub.msgs", "count", "wire_kb_per_node", true),
    lm("pubsub.bytes", "B", "wire_kb_per_node", true),
    lm("ml.datagen_s", "s", "setup_s on fl_mix", false),
    lm("ml.train_epoch_us", "us", "run_s on fl_mix", false),
    lm("ml.accuracy_us", "us", "run_s on fl_mix", false),
    lm("ml.merge_us", "us", "run_s on fl_mix", false),
    lm("ml.train_calls", "count", "run_s on fl_mix", true),
    lm(
        "ml.probe_share",
        "share",
        "run_s on fl_mix (derived from probes)",
        true,
    ),
    lm("core.submit_s", "s", "setup_s on fl_mix", false),
    lm("core.run_s", "s", "run_s on fl_mix", false),
    lm("core.rounds_started", "count", "fail_share on fl_mix", true),
    lm(
        "core.rounds_completed",
        "count",
        "fail_share on fl_mix",
        true,
    ),
    lm(
        "core.round_completion",
        "share",
        "fail_share on fl_mix",
        true,
    ),
    lm("baselines.run_s", "s", "run_s on fl_mix", false),
    lm("baselines.rounds", "count", "run_s on fl_mix", true),
    lm("baselines.sim_tta_s", "s", "tta_speedup on fl_mix", false),
    lm(
        "trace.overhead",
        "share",
        "none: traced over untraced run_s",
        true,
    ),
];

/// Everything one iteration (set-up plus fixed simulated work) produced.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the fixed simulated work.
    pub run_s: f64,
    /// Host ms per fixed simulated-time slice.
    pub slices_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Modelled end-to-end metrics (deterministic for a seed).
    pub modelled: BTreeMap<&'static str, f64>,
    /// Per-layer metrics. Counters are deterministic for a seed; host
    /// times and probes are filled in traced iterations only.
    pub layers: BTreeMap<&'static str, f64>,
    /// FNV-1a digest of the simulated outcomes.
    pub digest: u64,
    /// Why a correctness check failed, if one did.
    pub problem: Option<String>,
}

impl Iteration {
    /// The deterministic part: counters, modelled metrics and digest.
    /// Equal across iterations of one seed, traced or not.
    pub fn fingerprint(&self, counters: &[&str]) -> String {
        let mut out = format!("digest={:016x}", self.digest);
        for (k, v) in &self.modelled {
            out.push_str(&format!(" {k}={v:?}"));
        }
        for k in counters {
            out.push_str(&format!(
                " {k}={:?}",
                self.layers.get(k).copied().unwrap_or(0.0)
            ));
        }
        out
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Incremental FNV-1a over little-endian words.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern.
    pub fn add_f64(&mut self, x: f64) {
        self.add(x.to_bits());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn every_result_metric_is_catalogued() {
        for name in RESULT_E2E {
            assert!(END_TO_END.iter().any(|m| m.name == *name));
        }
        let mut names: Vec<_> = LAYERS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYERS.len(), "layer metric names are unique");
    }
}
