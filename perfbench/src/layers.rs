//! Per-layer counter extraction shared by the overlay workloads, and the
//! probes that time single layer calls in traced iterations.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::Rng;
use totoro_dht::{next_hop, DhtState, Id};
use totoro_pubsub::{ForestApp, ForestNode};
use totoro_simnet::{sub_rng, EngineProfile, MetricsSnapshot, SimTime};

use crate::trace::{Counters, Tracer};

/// Per-layer values of one iteration, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Sums `DhtStats` and `ForestStats` over `nodes` into `out`, counting
/// repair episodes detected at or after `repairs_from`. Returns
/// `(dht, forest)` snapshots for the tracer.
pub fn overlay_counters<'a, F: ForestApp + 'a>(
    nodes: impl Iterator<Item = &'a ForestNode<F>>,
    repairs_from: SimTime,
    out: &mut Layers,
) -> (Counters, Counters) {
    let mut d = [0u64; 8];
    let mut f = [0u64; 11];
    for node in nodes {
        let s = &node.stats;
        d[0] += s.routed;
        d[1] += s.delivered;
        d[2] += s.forwarded;
        d[3] += s.blocked;
        d[4] += s.hops_sum;
        d[5] = d[5].max(u64::from(s.hops_max));
        d[6] += s.peers_failed;
        let fs = &node.upper.state.stats;
        f[0] += fs.joins_sent;
        f[1] += fs.children_adopted;
        f[2] += fs.pushdowns;
        f[3] += fs.broadcasts_forwarded;
        f[4] += fs.aggregates_sent;
        f[5] += fs.late_contributions;
        f[6] += fs.timeout_flushes;
        f[7] += fs.cycle_breaks;
        f[8] += fs.replans;
        for ev in &node.upper.state.repair_events {
            if ev.detected >= repairs_from {
                f[9] += 1;
                f[10] += u64::from(ev.reattached.is_none());
            }
        }
    }
    let hops_mean = if d[1] == 0 {
        0.0
    } else {
        d[4] as f64 / d[1] as f64
    };
    for (name, v) in [
        ("dht.routed", d[0]),
        ("dht.forwarded", d[2]),
        ("dht.blocked", d[3]),
        ("dht.peers_failed", d[6]),
        ("dht.hops_max", d[5]),
        ("pubsub.joins_sent", f[0]),
        ("pubsub.children_adopted", f[1]),
        ("pubsub.pushdowns", f[2]),
        ("pubsub.broadcasts_forwarded", f[3]),
        ("pubsub.aggregates_sent", f[4]),
        ("pubsub.late_contributions", f[5]),
        ("pubsub.timeout_flushes", f[6]),
        ("pubsub.cycle_breaks", f[7]),
        ("pubsub.replans", f[8]),
        ("pubsub.repair_episodes", f[9]),
        ("pubsub.unrepaired", f[10]),
    ] {
        out.insert(name, v as f64);
    }
    out.insert("dht.hops_mean", hops_mean);
    let dht = vec![
        ("routed", d[0]),
        ("delivered", d[1]),
        ("forwarded", d[2]),
        ("blocked", d[3]),
        ("hops_sum", d[4]),
        ("hops_max", d[5]),
        ("peers_failed", d[6]),
    ];
    let forest = vec![
        ("joins_sent", f[0]),
        ("children_adopted", f[1]),
        ("pushdowns", f[2]),
        ("broadcasts_forwarded", f[3]),
        ("aggregates_sent", f[4]),
        ("late_contributions", f[5]),
        ("timeout_flushes", f[6]),
        ("cycle_breaks", f[7]),
        ("replans", f[8]),
    ];
    (dht, forest)
}

/// Scheduler and batching shares from an engine profile.
pub fn profile_layers(p: &EngineProfile, out: &mut Layers) {
    let created = p.late + p.near + p.far;
    out.insert("simnet.singleton_ratio", p.singleton_ratio());
    out.insert(
        "simnet.sched_far_share",
        if created == 0 {
            0.0
        } else {
            p.far as f64 / created as f64
        },
    );
}

/// The engine profile's counters, for a tracer snapshot.
pub fn profile_snapshot(p: &EngineProfile) -> Counters {
    vec![
        ("late", p.late),
        ("near", p.near),
        ("far", p.far),
        ("migrated", p.migrated),
        ("groups", p.groups),
        ("singletons", p.singletons),
        ("batched_events", p.batched_events),
        ("windows", p.windows),
        ("remote_msgs", p.remote_msgs),
    ]
}

/// Per-layer message and byte counts from a recording sink's registry
/// (`dht` and `forest` payload tags).
pub fn wire_layers(snap: &MetricsSnapshot, out: &mut Layers) {
    let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    out.insert("dht.msgs", get("dht.sends"));
    out.insert("dht.bytes", get("dht.send_bytes"));
    out.insert("pubsub.msgs", get("forest.sends"));
    out.insert("pubsub.bytes", get("forest.send_bytes"));
}

/// Mean ns per `routing::next_hop` call over the given live routing
/// states, for random keys drawn from `seed`.
pub fn next_hop_ns(states: &[&DhtState], seed: u64, t: &mut Tracer) -> f64 {
    const KEYS_PER_NODE: usize = 64;
    let mut rng = sub_rng(seed, "perfbench-next-hop");
    let keys: Vec<Id> = (0..KEYS_PER_NODE)
        .map(|_| Id::new(rng.gen::<u128>()))
        .collect();
    t.span("dht.next_hop_probe", |_| {
        let start = Instant::now();
        for state in states {
            for &key in &keys {
                std::hint::black_box(next_hop(std::hint::black_box(state), key));
            }
        }
        let calls = (states.len() * keys.len()).max(1);
        start.elapsed().as_nanos() as f64 / calls as f64
    })
}

/// Median µs per call of `f`, over `reps` calls.
pub fn probe_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}
