//! `forest_churn`: an EUA overlay of echo nodes (no ML) carrying many
//! overlapping trees. Broadcast/aggregate waves run on every tree, then 5%
//! of the nodes fail at once, the trees repair, and the waves run again
//! over the repaired trees.

use std::time::Instant;

use rand::seq::SliceRandom;
use totoro_bench::setups::{echo_overlay_sink, eua_topology, topic, Blob, EchoSim};
use totoro_dht::Id;
use totoro_simnet::{
    sub_rng, ChurnSchedule, NodeIdx, NoopSink, RecordingSink, SimDuration, SimTime, TraceSink,
};

use crate::layers::{next_hop_ns, overlay_counters, profile_layers, profile_snapshot, wire_layers};
use crate::report::{percentile, Digest, Iteration};
use crate::trace::Tracer;

/// Tree fanout cap.
const FANOUT: usize = 16;
/// Share of the overlay killed at once (Fig. 12).
const FAIL_FRACTION: f64 = 0.05;
/// Simulated seconds for the trees to assemble before the first wave.
const SETTLE_S: u64 = 30;
/// Simulated seconds between waves.
const WAVE_S: u64 = 5;
/// Simulated seconds from the failure to the first post-repair wave.
const REPAIR_S: u64 = 40;
/// Broadcast payload per wave.
const BLOB_BYTES: usize = 8 * 1024;

/// Input size of one `forest_churn` iteration.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Requested overlay size (EUA rounding may differ slightly).
    pub nodes: usize,
    /// Overlapping trees, each over a random 3/4 of the nodes.
    pub trees: usize,
    /// Waves on every tree before the failure.
    pub waves_before: u64,
    /// Waves on every tree after the repair window.
    pub waves_after: u64,
}

impl Size {
    /// The measured size, or the self-test's toy size.
    pub fn new(tiny: bool) -> Self {
        if tiny {
            Self::tiny()
        } else {
            Self::full()
        }
    }

    fn full() -> Self {
        Size {
            nodes: 400,
            trees: 16,
            waves_before: 4,
            waves_after: 4,
        }
    }

    fn tiny() -> Self {
        Size {
            nodes: 60,
            trees: 3,
            waves_before: 2,
            waves_after: 2,
        }
    }

    fn kill_s(&self) -> u64 {
        SETTLE_S + self.waves_before * WAVE_S
    }

    fn end_s(&self) -> u64 {
        self.kill_s() + REPAIR_S + self.waves_after * WAVE_S
    }

    /// The round number of the wave due at simulated second `s`, if any.
    fn wave_at(&self, s: u64) -> Option<u64> {
        let after = self.kill_s() + REPAIR_S;
        if s >= SETTLE_S && s < self.kill_s() && (s - SETTLE_S).is_multiple_of(WAVE_S) {
            Some((s - SETTLE_S) / WAVE_S + 1)
        } else if s >= after && s < self.end_s() && (s - after).is_multiple_of(WAVE_S) {
            Some(self.waves_before + (s - after) / WAVE_S + 1)
        } else {
            None
        }
    }
}

fn at_secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// One broadcast issued on one tree.
struct Wave {
    topic: Id,
    round: u64,
    root: NodeIdx,
    at: SimTime,
    /// Live members other than the broadcasting root when the wave
    /// started: the count the root must aggregate.
    expected: u64,
}

fn live_root<S: TraceSink>(sim: &EchoSim<S>, topic: Id) -> Option<NodeIdx> {
    (0..sim.len()).find(|&i| {
        sim.alive(i)
            && sim
                .app(i)
                .upper
                .state
                .membership(topic)
                .is_some_and(|m| m.is_root)
    })
}

/// One iteration: set-up, the fixed wave/failure/repair schedule, checks.
/// Traced iterations install a [`RecordingSink`] that buffers only the
/// `sim` layer while its registry aggregates every layer.
pub fn iterate(seed: u64, size: &Size, t: &mut Tracer) -> Iteration {
    if t.enabled() {
        iterate_with(seed, size, t, |n| {
            RecordingSink::new(n).with_layer_filter(Some("sim".to_string()))
        })
    } else {
        iterate_with(seed, size, t, |_| NoopSink)
    }
}

fn iterate_with<S: TraceSink>(
    seed: u64,
    size: &Size,
    t: &mut Tracer,
    make_sink: impl FnOnce(usize) -> S,
) -> Iteration {
    let mut it = Iteration::default();

    // ---- set-up -------------------------------------------------------
    let setup = Instant::now();
    let topology = t.span("simnet.topology", |_| eua_topology(size.nodes, seed));
    let n = topology.len();
    let mut sim = t.span("dht.bootstrap", |_| {
        echo_overlay_sink(topology, seed, FANOUT, make_sink(n))
    });
    let mut rng = sub_rng(seed, "perfbench-forest");
    let everyone: Vec<NodeIdx> = (0..n).collect();
    let trees: Vec<(Id, Vec<NodeIdx>)> = (0..size.trees)
        .map(|k| {
            let members = everyone
                .choose_multiple(&mut rng, n * 3 / 4)
                .copied()
                .collect();
            (topic("perfbench-forest", k as u64), members)
        })
        .collect();
    t.span("pubsub.subscribe", |_| {
        for (tp, members) in &trees {
            for &m in members {
                sim.with_app(m, |node, ctx| {
                    node.with_api(ctx, |forest, dht| {
                        forest.with_forest_api(dht, |_app, api| api.subscribe(*tp));
                    });
                });
            }
        }
    });
    let kill_at = at_secs(size.kill_s());
    let failures = ChurnSchedule::mass_failure(&everyone, FAIL_FRACTION, kill_at, &mut rng);
    it.setup_s = setup.elapsed().as_secs_f64();
    if t.enabled() {
        sim.enable_profiling();
    }

    // ---- fixed simulated work -----------------------------------------
    let run = Instant::now();
    failures.apply(&mut sim);
    let mut waves: Vec<Wave> = Vec::new();
    let mut unrooted = 0u64;
    let mut pending_max = 0usize;
    for s in 0..size.end_s() {
        let start = Instant::now();
        if let Some(round) = size.wave_at(s) {
            t.span("pubsub.broadcast", |_| {
                for (tp, members) in &trees {
                    let Some(root) = live_root(&sim, *tp) else {
                        unrooted += 1;
                        continue;
                    };
                    let expected = members
                        .iter()
                        .filter(|&&m| m != root && sim.alive(m))
                        .count() as u64;
                    sim.with_app(root, |node, ctx| {
                        node.with_api(ctx, |forest, dht| {
                            forest.with_forest_api(dht, |_app, api| {
                                api.broadcast(
                                    *tp,
                                    round,
                                    Blob {
                                        bytes: BLOB_BYTES,
                                        count: 0,
                                    },
                                );
                            });
                        });
                    });
                    waves.push(Wave {
                        topic: *tp,
                        round,
                        root,
                        at: sim.now(),
                        expected,
                    });
                }
            });
        }
        t.span("simnet.run_until", |_| sim.run_until(at_secs(s + 1)));
        it.slices_ms.push(start.elapsed().as_secs_f64() * 1e3);
        pending_max = pending_max.max(sim.pending_events());
    }
    it.run_s = run.elapsed().as_secs_f64();

    // ---- outcomes and checks -------------------------------------------
    let mut digest = Digest::default();
    let mut round_ms = Vec::new();
    let mut short_waves = unrooted;
    let mut first_short = None;
    for w in &waves {
        let agg = sim
            .app(w.root)
            .upper
            .state
            .agg_log
            .iter()
            .find(|e| e.topic == w.topic && e.round == w.round);
        digest.add(w.root as u64);
        match agg {
            Some(e) => {
                digest.add(e.count);
                digest.add(e.at.as_micros());
                round_ms.push(e.at.saturating_since(w.at).as_secs_f64() * 1e3);
                if e.count != w.expected {
                    short_waves += 1;
                    first_short.get_or_insert((w.round, e.count, w.expected));
                }
            }
            None => {
                short_waves += 1;
                first_short.get_or_insert((w.round, 0, w.expected));
            }
        }
    }
    let mut repair_ms = Vec::new();
    let mut unrepaired = 0u64;
    for node in sim.apps() {
        for ev in &node.upper.state.repair_events {
            if ev.detected < kill_at {
                continue;
            }
            digest.add(ev.detected.as_micros());
            match ev.reattached {
                Some(done) => {
                    digest.add(done.as_micros());
                    repair_ms.push(done.saturating_since(kill_at).as_secs_f64() * 1e3);
                }
                None => unrepaired += 1,
            }
        }
    }
    let traffic = sim.traffic().totals();
    for v in [
        sim.events_processed(),
        traffic.msgs_sent,
        traffic.tcp_sent,
        traffic.udp_sent,
    ] {
        digest.add(v);
    }
    it.digest = digest.finish();

    let episodes = repair_ms.len() as u64 + unrepaired;
    let wave_count = waves.len() as u64 + unrooted;
    it.attempted = wave_count + episodes;
    it.failed = short_waves + unrepaired;
    let mut problems = Vec::new();
    if short_waves > 0 {
        problems.push(format!(
            "{short_waves} of {wave_count} waves did not aggregate their live membership \
             (first: round {} counted {} of {})",
            first_short.map_or(0, |f| f.0),
            first_short.map_or(0, |f| f.1),
            first_short.map_or(0, |f| f.2),
        ));
    }
    // The bound Fig. 12 asserts on unrepaired orphans.
    if unrepaired > (repair_ms.len() as u64 / 5).max(2) {
        problems.push(format!(
            "{unrepaired} unrepaired orphans vs {} repaired",
            repair_ms.len()
        ));
    }
    it.problem = (!problems.is_empty()).then(|| problems.join("; "));

    it.modelled
        .insert("sim_round_ms_p50", percentile(&round_ms, 50.0));
    it.modelled
        .insert("sim_round_ms_p90", percentile(&round_ms, 90.0));
    it.modelled
        .insert("sim_repair_ms_p90", percentile(&repair_ms, 90.0));
    it.modelled.insert(
        "wire_kb_per_node",
        (traffic.tcp_sent + traffic.udp_sent) as f64 / n as f64 / 1024.0,
    );

    let l = &mut it.layers;
    let (dht, forest) = overlay_counters(sim.apps(), kill_at, l);
    l.insert("simnet.events", sim.events_processed() as f64);
    l.insert("simnet.pending_max", pending_max as f64);
    l.insert("simnet.dropped_loss", sim.dropped_loss() as f64);
    l.insert("simnet.dropped_dead", sim.dropped_dead() as f64);

    if t.enabled() {
        t.snapshot("DhtStats", || dht);
        t.snapshot("ForestStats", || forest);
        t.snapshot("TrafficLedger", || {
            vec![
                ("msgs_sent", traffic.msgs_sent),
                ("payload_sent", traffic.payload_sent),
                ("tcp_sent", traffic.tcp_sent),
                ("udp_sent", traffic.udp_sent),
            ]
        });
        let compute = sim.compute();
        let (fl_us, dht_us) = (compute.fl_us.iter().sum(), compute.dht_us.iter().sum());
        t.snapshot("ComputeLedger", || {
            vec![("fl_us", fl_us), ("dht_us", dht_us)]
        });
        let profile = sim.engine_profile().unwrap_or_default();
        t.snapshot("EngineProfile", || profile_snapshot(&profile));
        profile_layers(&profile, &mut it.layers);
        if let Some(snap) = sim.sink().snapshot() {
            wire_layers(&snap, &mut it.layers);
            let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
            t.snapshot("MetricsRegistry", || {
                [
                    "dht.sends",
                    "dht.send_bytes",
                    "forest.sends",
                    "forest.send_bytes",
                ]
                .into_iter()
                .map(|k| (k, get(k)))
                .collect()
            });
        }
        let states: Vec<_> = (0..n)
            .filter(|&i| sim.alive(i))
            .map(|i| &sim.app(i).state)
            .collect();
        let hop_ns = next_hop_ns(&states, seed, t);
        let l = &mut it.layers;
        l.insert("dht.next_hop_ns", hop_ns);
        l.insert("dht.bootstrap_s", t.seconds("dht.bootstrap"));
        l.insert("pubsub.subscribe_s", t.seconds("pubsub.subscribe"));
        l.insert("simnet.topology_s", t.seconds("simnet.topology"));
        l.insert("simnet.run_s", t.seconds("simnet.run_until"));
        let events = l["simnet.events"];
        l.insert("simnet.events_per_s", events / it.run_s);
    }
    it
}
