//! The traced re-drive of a live run.
//!
//! A live run records a total order of its events (`LiveRun::schedule`):
//! every execution, propagation round and message merge drew a unique
//! tick. Replaying that order on one thread through the same public calls the
//! node threads make — `Node::execute`, `Node::absorb`,
//! `Propagation::on_execute/on_tick`, `LiveMonitor::ingest/advance` —
//! reproduces the run's final states while each call is timed on its
//! own, free of the contention that mixes the layers' costs in the live
//! run.
//!
//! Sends go to a capturing [`Transport`] keyed by `(sent_at, from, to)`
//! and are absorbed at their recorded merge tick.

use crate::live::{Run, Strategy, NODES};
use crate::stats::Layer;
use shard_apps::banking::{Bank, BankState, BankTxn};
use shard_core::stream::StreamReport;
use shard_runtime::MsgRecord;
use shard_sim::kernel::{Entries, Node};
use shard_sim::{LiveMonitor, MergeOutcome, NodeId, Propagation, Transport};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Calls into each layer during the re-drive.
#[derive(Default)]
pub struct Layers {
    pub execute: Layer,
    pub absorb: Layer,
    pub on_execute: Layer,
    pub on_tick: Layer,
    pub ingest: Layer,
    pub seal: Layer,
}

impl Layers {
    pub fn all(&self) -> [&Layer; 6] {
        [
            &self.execute,
            &self.absorb,
            &self.on_execute,
            &self.on_tick,
            &self.ingest,
            &self.seal,
        ]
    }
}

/// What a re-drive measured and produced.
pub struct Redrive {
    pub layers: Layers,
    /// Wall time of the event loop (events sorted beforehand).
    pub wall: Duration,
    pub final_states: Vec<BankState>,
    pub monitor: StreamReport,
    pub sends: u64,
    pub entries_shipped: u64,
    pub appended: u64,
    pub out_of_order: u64,
    pub replayed: u64,
    pub duplicates: u64,
    /// Median per-transaction service time: execute, propagate and
    /// monitor ingest of one execution, in µs.
    pub service_p50_us: f64,
}

/// The benchmark's transport: holds each send until its recorded merge.
struct Capture {
    rng: rand::rngs::StdRng,
    in_flight: HashMap<(u64, u16, u16), Entries<Bank>>,
    sends: u64,
    entries: u64,
}

impl Transport<Bank> for Capture {
    fn nodes(&self) -> u16 {
        NODES
    }

    fn connected(&self, _now: u64, _a: NodeId, _b: NodeId) -> bool {
        true
    }

    fn send(&mut self, now: u64, from: NodeId, to: NodeId, entries: Entries<Bank>) {
        self.sends += 1;
        self.entries += entries.len() as u64;
        let dup = self.in_flight.insert((now, from.0, to.0), entries);
        assert!(dup.is_none(), "one message per (tick, from, to)");
    }

    fn rng(&mut self) -> &mut rand::rngs::StdRng {
        &mut self.rng
    }
}

enum Event {
    Execute(NodeId),
    Round(NodeId),
    Merge(MsgRecord),
}

/// Re-drives `run`'s recorded schedule, timing each layer call when
/// `timed`.
pub fn redrive(bank: &Bank, run: &Run, timed: bool) -> Redrive {
    use rand::SeedableRng;
    let schedule = &run.live.schedule;
    let mut events: Vec<(u64, Event)> = schedule
        .execs
        .iter()
        .map(|&(t, n)| (t, Event::Execute(n)))
        .chain(schedule.ticks.iter().map(|&(t, n)| (t, Event::Round(n))))
        .chain(
            schedule
                .msgs
                .iter()
                .map(|m| (m.merged_at, Event::Merge(*m))),
        )
        .collect();
    events.sort_unstable_by_key(|(t, _)| *t);

    let mut queues: Vec<VecDeque<BankTxn>> = vec![VecDeque::new(); NODES as usize];
    for s in &run.subs {
        queues[s.node.0 as usize].push_back(s.decision);
    }
    let mut nodes: Vec<Node<Bank>> = (0..NODES)
        .map(|i| Node::new(bank, NodeId(i), crate::live::CHECKPOINT_EVERY))
        .collect();
    let mut strategies: Vec<Strategy> = (0..NODES).map(|_| run.strategy.clone()).collect();
    let mut net = Capture {
        rng: rand::rngs::StdRng::seed_from_u64(0),
        in_flight: HashMap::new(),
        sends: 0,
        entries: 0,
    };
    let monitor_cfg = crate::live::runtime_config(0).monitor;
    let mut monitor = LiveMonitor::new(monitor_cfg.expect("live workloads run the monitor"));
    let mut watermark = 0u64;
    let mut l = Layers::default();
    let (mut appended, mut out_of_order, mut replayed, mut duplicates) = (0u64, 0u64, 0u64, 0u64);
    let mut service_ns: Vec<u64> = Vec::new();

    let start = Instant::now();
    for (tick, event) in events {
        match event {
            Event::Execute(id) => {
                let i = id.0 as usize;
                let decision = queues[i]
                    .pop_front()
                    .expect("one recorded execution per submission");
                let busy_before = service_busy(&l);
                let node = &mut nodes[i];
                let (txn, update) = l.execute.time(timed, || node.execute(bank, decision, tick));
                let strategy = &mut strategies[i];
                l.on_execute.time(timed, || {
                    strategy.on_execute(bank, &mut net, node, tick, txn.ts, &update)
                });
                l.ingest
                    .time(timed, || monitor.ingest(txn.ts, txn.time, txn.known));
                if timed {
                    service_ns.push((service_busy(&l) - busy_before).as_nanos() as u64);
                }
            }
            Event::Round(id) => {
                let i = id.0 as usize;
                let (node, strategy) = (&nodes[i], &mut strategies[i]);
                l.on_tick
                    .time(timed, || strategy.on_tick(bank, &mut net, node, tick));
            }
            Event::Merge(m) => {
                let entries = net
                    .in_flight
                    .remove(&(m.sent_at, m.from.0, m.to.0))
                    .expect("every recorded merge was sent first");
                let i = m.to.0 as usize;
                let node = &mut nodes[i];
                l.absorb.time(timed, || {
                    node.absorb(bank, &entries, |o| match o {
                        MergeOutcome::Appended => appended += 1,
                        MergeOutcome::OutOfOrder { replayed: r } => {
                            out_of_order += 1;
                            replayed += r;
                        }
                        MergeOutcome::Duplicate => duplicates += 1,
                    })
                });
            }
        }
        let min_clock = nodes.iter().map(|n| n.clock.current()).min().unwrap_or(0);
        if min_clock > watermark {
            watermark = min_clock;
            l.seal.time(timed, || monitor.advance(watermark, None));
        }
    }
    l.seal.time(timed, || monitor.flush(None));
    let wall = start.elapsed();

    assert!(net.in_flight.is_empty(), "every captured send was merged");
    let mut service_us: Vec<f64> = service_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    Redrive {
        wall,
        final_states: nodes.into_iter().map(|n| n.log.into_state()).collect(),
        monitor: monitor.report(),
        sends: net.sends,
        entries_shipped: net.entries,
        appended,
        out_of_order,
        replayed,
        duplicates,
        service_p50_us: crate::stats::quantile(&mut service_us, 0.5),
        layers: l,
    }
}

/// Busy time of the layers one execution passes through.
fn service_busy(l: &Layers) -> Duration {
    l.execute.busy + l.on_execute.busy + l.ingest.busy
}
