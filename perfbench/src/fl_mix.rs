//! `fl_mix`: one Table 3 point. Several concurrent speech-task apps train
//! on a `TotoroDeployment` over an EUA topology, every node a participant,
//! for a fixed round cap past the 53% target; the same apps and shards
//! then train through the OpenFL-like `CentralizedEngine`.

use std::time::Instant;

use totoro::TotoroDeployment;
use totoro_baselines::{CentralizedEngine, ServerProfile};
use totoro_bench::setups::{edge_latency, fl_app_config, to_central_spec};
use totoro_dht::DhtConfig;
use totoro_ml::{
    accuracy, speech_commands_like, time_to_accuracy, AccuracyPoint, Mlp, ModelUpdate,
    TaskGenerator,
};
use totoro_pubsub::ForestConfig;
use totoro_simnet::geo::{eua_regions_scaled, generate};
use totoro_simnet::{sub_rng, SimDuration, SimTime, Topology};

use crate::layers::{next_hop_ns, overlay_counters, probe_us, profile_layers, profile_snapshot};
use crate::report::{percentile, Digest, Iteration};
use crate::trace::Tracer;

/// The paper's speech target accuracy (Table 3).
pub const TARGET: f64 = 0.53;
/// Host time is sampled once per this much simulated time.
const SLICE: SimDuration = SimDuration::from_secs(5);
/// Simulated-time guard: no app legitimately runs this long.
const MAX_SIM: SimTime = SimTime::from_micros(48 * 3_600 * 1_000_000);
/// Tree fanout (Table 3's middle setting).
const FANOUT: usize = 16;
/// Hidden width of every app's MLP (as in Table 3).
const HIDDEN: usize = 48;

/// Input size of one `fl_mix` iteration.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Edge nodes, every one a participant of every app.
    pub nodes: usize,
    /// Concurrent apps.
    pub apps: usize,
    /// Round cap; every app runs exactly this many rounds.
    pub rounds: u64,
    /// Training samples per client shard.
    pub samples: usize,
    /// Whether every app must reach [`TARGET`] (off at toy sizes).
    pub require_target: bool,
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
            nodes: 48,
            apps: 4,
            rounds: 30,
            samples: 30,
            require_target: true,
        }
    }

    fn tiny() -> Self {
        Size {
            nodes: 10,
            apps: 2,
            rounds: 3,
            samples: 10,
            require_target: false,
        }
    }
}

/// An EUA topology of exactly `n` nodes.
fn topology(n: usize, seed: u64) -> Topology {
    let mut rng = sub_rng(seed, "eua-topology");
    let nodes = generate(&eua_regions_scaled(n), &mut rng);
    Topology::from_placements(&nodes[..n.min(nodes.len())], edge_latency())
}

/// Runs slices until `step` reports completion (`None`); otherwise `step`
/// advances one slice and returns the simulated clock and queue length.
fn drive(
    slices_ms: &mut Vec<f64>,
    pending_max: &mut usize,
    mut step: impl FnMut() -> Option<(SimTime, usize)>,
) {
    loop {
        let start = Instant::now();
        let Some((now, pending)) = step() else {
            break;
        };
        slices_ms.push(start.elapsed().as_secs_f64() * 1e3);
        *pending_max = (*pending_max).max(pending);
        if now >= MAX_SIM {
            break;
        }
    }
}

/// Simulated broadcast-to-aggregate times (ms) of every round after the
/// first: the gap between consecutive evaluations minus the fixed pause.
fn round_times_ms(curve: &[AccuracyPoint], pause: SimDuration) -> Vec<f64> {
    curve
        .windows(2)
        .map(|w| (w[1].time_secs - w[0].time_secs - pause.as_secs_f64()) * 1e3)
        .collect()
}

fn best(curve: &[AccuracyPoint]) -> f64 {
    curve.iter().map(|p| p.accuracy).fold(0.0, f64::max)
}

fn digest_curve(d: &mut Digest, curve: &[AccuracyPoint]) {
    for p in curve {
        d.add(p.round);
        d.add_f64(p.time_secs);
        d.add_f64(p.accuracy);
    }
}

/// One iteration: set-up, both engines' fixed work, checks.
pub fn iterate(seed: u64, size: &Size, t: &mut Tracer) -> Iteration {
    let mut it = Iteration::default();
    let n = size.nodes;

    // ---- set-up -------------------------------------------------------
    let setup = Instant::now();
    let (topo_totoro, topo_central) = t.span("simnet.topology", |_| {
        (topology(n, seed), topology(n + 1, seed))
    });
    let (configs, shards) = t.span("ml.datagen", |_| {
        let mut gen_rng = sub_rng(seed, "task");
        let generator = TaskGenerator::new(speech_commands_like(), &mut gen_rng);
        let mut rng = sub_rng(seed, "shards");
        let mut configs = Vec::new();
        let mut shards = Vec::new();
        for a in 0..size.apps {
            shards.push(generator.client_shards(n, size.samples, 0.5, &mut rng));
            let mut cfg = fl_app_config(
                &format!("speech-app-{a}"),
                a as u64,
                &generator,
                HIDDEN,
                seed.wrapping_mul(1_000).wrapping_add(a as u64),
            );
            // Fixed work: no app stops early at its target; the target is
            // checked on the curve afterwards.
            cfg.target_accuracy = f64::INFINITY;
            cfg.max_rounds = size.rounds;
            configs.push(cfg);
        }
        (configs, shards)
    });
    let mut deploy = t.span("dht.bootstrap", |_| {
        TotoroDeployment::new(
            topo_totoro,
            seed,
            DhtConfig::with_fanout(FANOUT),
            ForestConfig {
                fanout_cap: FANOUT,
                agg_timeout: SimDuration::from_secs(30),
                ..ForestConfig::default()
            },
        )
    });
    let participants: Vec<usize> = (0..n).collect();
    t.span("core.submit", |_| {
        for (cfg, shard) in configs.iter().zip(&shards) {
            deploy.submit_app(cfg.clone(), &participants, shard.clone());
        }
    });
    let mut central = t.span("baselines.submit", |_| {
        let mut engine = CentralizedEngine::new(topo_central, ServerProfile::openfl_like(), seed);
        let clients: Vec<usize> = (1..=n).collect();
        for (cfg, shard) in configs.iter().zip(&shards) {
            engine.submit_app(to_central_spec(cfg), &clients, shard.clone());
        }
        engine
    });
    it.setup_s = setup.elapsed().as_secs_f64();
    if t.enabled() {
        deploy.sim_mut().enable_profiling();
        central.sim_mut().enable_profiling();
    }

    // ---- fixed simulated work -----------------------------------------
    let run = Instant::now();
    let mut pending_max = 0;
    let apps = size.apps;
    t.span("core.run", |t| {
        drive(&mut it.slices_ms, &mut pending_max, || {
            if (0..apps).all(|a| deploy.app_done(a)) {
                return None;
            }
            Some(t.span("simnet.run_until", |_| {
                let sim = deploy.sim_mut();
                sim.run_until(sim.now() + SLICE);
                (sim.now(), sim.pending_events())
            }))
        })
    });
    t.span("baselines.run", |t| {
        drive(&mut it.slices_ms, &mut pending_max, || {
            if (0..apps).all(|a| central.server().is_done(a)) {
                return None;
            }
            Some(t.span("simnet.run_until", |_| {
                let sim = central.sim_mut();
                sim.run_until(sim.now() + SLICE);
                (sim.now(), sim.pending_events())
            }))
        })
    });
    it.run_s = run.elapsed().as_secs_f64();

    // ---- outcomes and checks -------------------------------------------
    let pause = configs[0].round_pause;
    let mut digest = Digest::default();
    let mut problems = Vec::new();
    let mut round_ms = Vec::new();
    let (mut totoro_tta, mut central_tta) = (0.0f64, 0.0f64);
    let mut central_rounds = 0u64;
    for a in 0..apps {
        let curve = deploy.curve(a);
        digest_curve(&mut digest, &curve);
        round_ms.extend(round_times_ms(&curve, pause));
        if curve.len() as u64 != size.rounds {
            problems.push(format!(
                "totoro app {a} ran {} of {} rounds",
                curve.len(),
                size.rounds
            ));
        }
        match time_to_accuracy(&curve, TARGET) {
            Some(tta) => totoro_tta = totoro_tta.max(tta),
            None if size.require_target => problems.push(format!(
                "totoro app {a} never reached {TARGET} (best {:.3})",
                best(&curve)
            )),
            None => {}
        }
        let ccurve = central.server().curve(a);
        digest_curve(&mut digest, ccurve);
        central_rounds += ccurve.len() as u64;
        if ccurve.len() as u64 != size.rounds {
            problems.push(format!(
                "central app {a} ran {} of {} rounds",
                ccurve.len(),
                size.rounds
            ));
        }
        match time_to_accuracy(ccurve, TARGET) {
            Some(tta) => central_tta = central_tta.max(tta),
            None if size.require_target => problems.push(format!(
                "central app {a} never reached {TARGET} (best {:.3})",
                best(ccurve)
            )),
            None => {}
        }
    }

    let tsim = deploy.sim();
    let csim = central.sim();
    let traffic = tsim.traffic().totals();
    for v in [
        tsim.events_processed(),
        csim.events_processed(),
        traffic.msgs_sent,
        traffic.tcp_sent,
        traffic.udp_sent,
    ] {
        digest.add(v);
    }
    it.digest = digest.finish();

    let (mut started, mut completed, mut contributed) = (0u64, 0u64, 0u64);
    for node in tsim.apps() {
        let s = &node.upper.app.stats;
        started += s.rounds_started;
        completed += s.rounds_completed;
        contributed += s.updates_contributed;
    }
    let central_cap = apps as u64 * size.rounds;
    it.attempted = started + central_cap;
    it.failed = started.saturating_sub(completed) + central_cap.saturating_sub(central_rounds);

    it.modelled
        .insert("sim_round_ms_p50", percentile(&round_ms, 50.0));
    it.modelled
        .insert("sim_round_ms_p90", percentile(&round_ms, 90.0));
    it.modelled.insert("sim_tta_s", totoro_tta);
    it.modelled.insert(
        "tta_speedup",
        if totoro_tta > 0.0 {
            central_tta / totoro_tta
        } else {
            0.0
        },
    );
    it.modelled.insert(
        "wire_kb_per_node",
        (traffic.tcp_sent + traffic.udp_sent) as f64 / n as f64 / 1024.0,
    );

    let l = &mut it.layers;
    let (dht, forest) = overlay_counters(tsim.apps(), SimTime::ZERO, l);
    let train_calls = contributed + n as u64 * central_rounds;
    l.insert(
        "simnet.events",
        (tsim.events_processed() + csim.events_processed()) as f64,
    );
    l.insert("simnet.pending_max", pending_max as f64);
    l.insert(
        "simnet.dropped_loss",
        (tsim.dropped_loss() + csim.dropped_loss()) as f64,
    );
    l.insert(
        "simnet.dropped_dead",
        (tsim.dropped_dead() + csim.dropped_dead()) as f64,
    );
    l.insert("ml.train_calls", train_calls as f64);
    l.insert("core.rounds_started", started as f64);
    l.insert("core.rounds_completed", completed as f64);
    l.insert(
        "core.round_completion",
        if started == 0 {
            0.0
        } else {
            completed as f64 / started as f64
        },
    );
    l.insert("baselines.rounds", central_rounds as f64);
    l.insert("baselines.sim_tta_s", central_tta);

    if t.enabled() {
        t.snapshot("DhtStats", || dht);
        t.snapshot("ForestStats", || forest);
        t.snapshot("EngineStats", || {
            vec![
                ("rounds_started", started),
                ("rounds_completed", completed),
                ("updates_contributed", contributed),
            ]
        });
        for (name, sim_traffic, compute) in [
            (
                "totoro",
                traffic,
                (
                    tsim.compute().fl_us.iter().sum::<u64>(),
                    tsim.compute().dht_us.iter().sum::<u64>(),
                ),
            ),
            (
                "central",
                csim.traffic().totals(),
                (
                    csim.compute().fl_us.iter().sum::<u64>(),
                    csim.compute().dht_us.iter().sum::<u64>(),
                ),
            ),
        ] {
            t.snapshot("TrafficLedger", || {
                vec![
                    (name, 0),
                    ("msgs_sent", sim_traffic.msgs_sent),
                    ("payload_sent", sim_traffic.payload_sent),
                    ("tcp_sent", sim_traffic.tcp_sent),
                    ("udp_sent", sim_traffic.udp_sent),
                ]
            });
            t.snapshot("ComputeLedger", || {
                vec![(name, 0), ("fl_us", compute.0), ("dht_us", compute.1)]
            });
        }
        let mut profile = tsim.engine_profile().unwrap_or_default();
        profile.merge(&csim.engine_profile().unwrap_or_default());
        t.snapshot("EngineProfile", || profile_snapshot(&profile));
        profile_layers(&profile, &mut it.layers);

        // Probes: single layer calls at the workload's exact dimensions.
        let states: Vec<_> = (0..n)
            .filter(|&i| tsim.alive(i))
            .map(|i| &tsim.app(i).state)
            .collect();
        let hop_ns = next_hop_ns(&states, seed, t);
        let cfg = &configs[0];
        let shard = &shards[0][0];
        let (train_us, acc_us, merge_us) = t.span("ml.probe", |_| {
            let mut rng = sub_rng(seed, "perfbench-ml-probe");
            let mut model = Mlp::new(&cfg.model_dims, &mut rng);
            let train_us = probe_us(32, || {
                std::hint::black_box(model.train_epoch(
                    &shard.xs,
                    &shard.ys,
                    cfg.batch_size,
                    cfg.lr,
                    None,
                ));
            });
            let acc_us = probe_us(16, || {
                std::hint::black_box(accuracy(&model, &cfg.test_set));
            });
            let update = ModelUpdate::from_client(&model.to_weights(), size.samples as u64);
            let mut acc = ModelUpdate::zero(update.weighted.len());
            let merge_us = probe_us(64, || acc.merge(std::hint::black_box(&update)));
            (train_us, acc_us, merge_us)
        });
        let evals = (completed + central_rounds) as f64;
        let l = &mut it.layers;
        l.insert("dht.next_hop_ns", hop_ns);
        l.insert("ml.train_epoch_us", train_us);
        l.insert("ml.accuracy_us", acc_us);
        l.insert("ml.merge_us", merge_us);
        l.insert(
            "ml.probe_share",
            (train_us * train_calls as f64 + acc_us * evals + merge_us * train_calls as f64)
                / 1e6
                / it.run_s,
        );
        l.insert("ml.datagen_s", t.seconds("ml.datagen"));
        l.insert("dht.bootstrap_s", t.seconds("dht.bootstrap"));
        l.insert("core.submit_s", t.seconds("core.submit"));
        l.insert("core.run_s", t.seconds("core.run"));
        l.insert("baselines.run_s", t.seconds("baselines.run"));
        l.insert("simnet.topology_s", t.seconds("simnet.topology"));
        l.insert("simnet.run_s", t.seconds("simnet.run_until"));
        let events = l["simnet.events"];
        l.insert("simnet.events_per_s", events / it.run_s);
    }

    it.problem = (!problems.is_empty()).then(|| problems.join("; "));
    it
}
