//! `geo_gossip`: the million-node zone gossip on `ShardedSim` over the EUA
//! geography, scaled down, at 2 shards. Every node beats once per
//! simulated millisecond around its zone ring; every 16th node also pings
//! a mirror in the next zone. Only simnet's sharded engine runs.

use std::time::Instant;

use totoro_bench::simcore::{build_eua_topology, zone_rings};
use totoro_simnet::{Application, Ctx, NodeIdx, Payload, ShardedSim, SimDuration, SimTime};

use crate::layers::{profile_layers, profile_snapshot};
use crate::report::{Digest, Iteration};
use crate::trace::Tracer;

/// Host time is sampled once per this much simulated time.
const SLICE: SimDuration = SimDuration::from_millis(1);
/// Simulated-time guard, far past the last delivery.
const LIMIT: SimTime = SimTime::from_micros(10_000_000);

/// Input size of one `geo_gossip` iteration.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Requested node count (EUA rounding may differ slightly).
    pub nodes: usize,
    /// Beats per node.
    pub beats: u32,
    /// Shard worker threads.
    pub shards: usize,
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
            nodes: 120_000,
            beats: 32,
            shards: 2,
        }
    }

    fn tiny() -> Self {
        Size {
            nodes: 2_000,
            beats: 3,
            shards: 2,
        }
    }
}

/// The zone-gossip node of the million-node workload, with a receive
/// counter so undelivered beats show.
struct GossipNode {
    next: u32,
    cross: u32,
    beats: u32,
    beat: u32,
    recvd: u32,
}

#[derive(Clone)]
struct Beat;

impl Payload for Beat {
    fn size_bytes(&self) -> usize {
        16
    }
}

impl Application for GossipNode {
    type Msg = Beat;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Beat>) {
        let phase = 1 + (ctx.me() as u64 * 37) % 1_000;
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Beat>, _from: NodeIdx, _msg: Beat) {
        self.recvd += 1;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Beat>, _token: u64) {
        ctx.send(self.next as usize, Beat);
        if ctx.me() % 16 == 0 {
            ctx.send(self.cross as usize, Beat);
        }
        self.beat += 1;
        if self.beat < self.beats {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

/// One iteration: topology and shard set-up, the gossip run, checks.
pub fn iterate(seed: u64, size: &Size, t: &mut Tracer) -> Iteration {
    let mut it = Iteration::default();

    // ---- set-up -------------------------------------------------------
    let setup = Instant::now();
    let (topology, next, cross) = t.span("simnet.topology", |_| {
        let topology = build_eua_topology(size.nodes, seed);
        let (next, cross) = zone_rings(&topology);
        (topology, next, cross)
    });
    let n = topology.len();
    let mut sim = t.span("shard.plan", |_| {
        ShardedSim::new(topology, seed, size.shards, |i| GossipNode {
            next: next[i],
            cross: cross[i],
            beats: size.beats,
            beat: 0,
            recvd: 0,
        })
        .expect("a zero-jitter EUA topology is shardable")
    });
    if t.enabled() {
        sim = sim.with_profiling().with_wall_profiling();
    }
    it.setup_s = setup.elapsed().as_secs_f64();

    // ---- fixed simulated work -----------------------------------------
    // The exact event count of the million-node workload: one start per
    // node, one timer per beat, one delivery per ring send and one per
    // cross-zone send.
    let beats = u64::from(size.beats);
    let pingers = n.div_ceil(16) as u64;
    let sends = n as u64 * beats + pingers * beats;
    let expected_events = n as u64 + n as u64 * beats + sends;
    let run = Instant::now();
    let mut deadline = SimTime::ZERO;
    t.span("shard.run", |t| {
        while sim.events_processed() < expected_events && deadline < LIMIT {
            let start = Instant::now();
            deadline += SLICE;
            t.span("simnet.run_until", |_| sim.run_until(deadline));
            it.slices_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    });
    it.run_s = run.elapsed().as_secs_f64();

    // ---- outcomes and checks -------------------------------------------
    let events = sim.events_processed();
    let recvd: u64 = sim.apps().map(|a| u64::from(a.recvd)).sum();
    let traffic = sim.traffic_totals();
    let mut digest = Digest::default();
    for v in [
        n as u64,
        events,
        recvd,
        sim.now().as_micros(),
        traffic.msgs_sent,
        traffic.tcp_sent,
        traffic.udp_sent,
    ] {
        digest.add(v);
    }
    it.digest = digest.finish();
    it.attempted = sends;
    it.failed = sends.saturating_sub(recvd);
    it.problem = if events != expected_events {
        Some(format!(
            "{events} events, the workload formula gives {expected_events}"
        ))
    } else if recvd != sends {
        Some(format!("{recvd} of {sends} beats delivered"))
    } else {
        None
    };
    it.modelled.insert(
        "wire_kb_per_node",
        (traffic.tcp_sent + traffic.udp_sent) as f64 / n as f64 / 1024.0,
    );

    let l = &mut it.layers;
    l.insert("simnet.events", events as f64);
    l.insert("simnet.dropped_loss", sim.dropped_loss() as f64);
    l.insert("simnet.dropped_dead", sim.dropped_dead() as f64);

    if t.enabled() {
        t.snapshot("TrafficLedger", || {
            vec![
                ("msgs_sent", traffic.msgs_sent),
                ("payload_sent", traffic.payload_sent),
                ("tcp_sent", traffic.tcp_sent),
                ("udp_sent", traffic.udp_sent),
            ]
        });
        let (fl_us, dht_us) = sim.compute_totals();
        t.snapshot("ComputeLedger", || {
            vec![("fl_us", fl_us), ("dht_us", dht_us)]
        });
        let profile = sim.engine_profile().expect("profiling enabled");
        t.snapshot("EngineProfile", || profile_snapshot(&profile));
        let wall = sim.wall_profile().expect("wall profiling enabled");
        let sum =
            |f: fn(&totoro_simnet::ShardWall) -> u64| wall.per_shard.iter().map(f).sum::<u64>();
        let (process, barrier, exchange) = (
            sum(|w| w.process_ns),
            sum(|w| w.barrier_ns),
            sum(|w| w.exchange_ns),
        );
        t.snapshot("WallProfile", || {
            vec![
                ("shards", wall.shards as u64),
                ("process_ns", process),
                ("barrier_ns", barrier),
                ("exchange_ns", exchange),
                ("remote_sent", sum(|w| w.remote_sent)),
            ]
        });
        let l = &mut it.layers;
        profile_layers(&profile, l);
        let shard_run = t.seconds("shard.run");
        l.insert("simnet.topology_s", t.seconds("simnet.topology"));
        l.insert("simnet.run_s", t.seconds("simnet.run_until"));
        l.insert("simnet.events_per_s", events as f64 / it.run_s);
        l.insert("shard.run_s", shard_run);
        l.insert("shard.events_per_s", events as f64 / shard_run);
        l.insert("shard.process_s", process as f64 / 1e9);
        l.insert("shard.barrier_s", barrier as f64 / 1e9);
        l.insert("shard.exchange_s", exchange as f64 / 1e9);
        l.insert("shard.windows", profile.windows as f64);
        l.insert(
            "shard.events_per_window",
            if profile.windows == 0 {
                0.0
            } else {
                events as f64 / profile.windows as f64
            },
        );
        l.insert("shard.remote_msgs", profile.remote_msgs as f64);
        l.insert(
            "shard.state_bytes_per_node",
            sim.state_bytes() as f64 / n as f64,
        );
    }
    it
}
