//! Unit-level tests of the MPI pump: outbox draining, inbound routing,
//! lock charging, and the queue-depth signal.

use cagvt_base::ids::{EventId, LaneId, LpId, NodeId};
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_core::cluster::build_shared;
use cagvt_core::event::{AntiMsg, EventMsg, RemoteEnv, TaggedMsg};
use cagvt_core::gvt::NullMpiGvt;
use cagvt_core::mpi_actor::MpiPump;
use cagvt_core::testmodel::MiniHold;
use cagvt_core::SimConfig;
use cagvt_net::{ClusterSpec, MpiMode};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn env(dst_node: u16, dst_lane: u16, seq: u64) -> RemoteEnv<u32> {
    RemoteEnv {
        dst_node: NodeId(dst_node),
        dst_lane: LaneId(dst_lane),
        tagged: TaggedMsg {
            msg: EventMsg::Anti(AntiMsg {
                recv_time: VirtualTime::new(1.0),
                dst: LpId(0),
                id: EventId::new(LpId(0), seq),
            }),
            tag: 0,
        },
    }
}

#[test]
fn pump_moves_outbox_to_fabric_and_routes_inbound() {
    let cfg = SimConfig::small(2, 2);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let mut pump0 = MpiPump::new(NodeId(0), Arc::clone(&shared), Box::new(NullMpiGvt));
    let mut pump1 = MpiPump::new(NodeId(1), Arc::clone(&shared), Box::new(NullMpiGvt));

    // Worker on node 0 posts two remote messages for node 1 lane 1.
    shared.nodes[0].outbox.push(WallNs(0), env(1, 1, 0));
    shared.nodes[0].outbox.push(WallNs(0), env(1, 1, 1));
    assert_eq!(shared.nodes[0].outbox.len(), 2);

    let (charge, moved) = pump0.pump(WallNs(10));
    assert!(moved);
    assert!(charge >= cfg.cost.mpi_send, "per-message costs are paid");
    assert_eq!(shared.nodes[0].outbox.len(), 0, "outbox drained");
    assert_eq!(shared.fabric.event_inbox_len(NodeId(1)), 2, "on the wire");

    // Node 1's pump routes them to lane 1 once the wire latency passes.
    let (_, moved_early) = pump1.pump(WallNs(20));
    assert!(!moved_early, "nothing deliverable before the wire latency");
    let late = WallNs(10_000_000);
    let (_, moved_late) = pump1.pump(late);
    assert!(moved_late);
    assert_eq!(shared.nodes[1].lane_queues[1].len(), 2, "routed to the right lane");
    assert_eq!(shared.nodes[1].lane_queues[0].len(), 0);
    assert_eq!(pump0.counters.sent, 2);
    assert_eq!(pump1.counters.received, 2);
}

/// A 2-node, `workers`-per-node config in MPI mode `mode`.
fn config(workers: u16, mode: MpiMode) -> SimConfig {
    let mut cfg = SimConfig::small(2, workers);
    cfg.spec = ClusterSpec::new(2, workers, mode);
    cfg
}

#[test]
fn pump_publishes_queue_depth_signal() {
    let cfg = config(2, MpiMode::PerWorker);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let mut pump = MpiPump::new(NodeId(0), Arc::clone(&shared), Box::new(NullMpiGvt));

    for seq in 0..5 {
        shared.nodes[0].outbox.push(WallNs(0), env(1, 0, seq));
    }
    // A PerWorker pump only receives: the depth is still reported even
    // though this pump does not transmit.
    pump.pump(WallNs(0));
    assert_eq!(shared.gvt_core.mpi_queue_depth[0].load(Ordering::Relaxed), 5);
    assert_eq!(shared.gvt_core.max_mpi_queue_depth(), 5);
    assert_eq!(shared.nodes[0].outbox.len(), 5, "receive-only pump leaves the outbox");
    assert_eq!(shared.nodes[0].outbox_hwm.load(Ordering::Relaxed), 5);
}

#[test]
fn locked_pump_charges_through_the_node_lock() {
    // PerWorker: lane 0's pump receives through the node's MPI lock.
    let cfg = config(1, MpiMode::PerWorker);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let mut pump = MpiPump::new(NodeId(1), Arc::clone(&shared), Box::new(NullMpiGvt));
    let at = shared.fabric.send_event(NodeId(0), NodeId(1), WallNs(0), env(1, 0, 0), &cfg.cost);
    let (charge, moved) = pump.pump(at);
    assert!(moved);
    // Worker-context pump: poll + lock hold + receive are all charged.
    assert!(charge >= cfg.cost.mpi_poll + cfg.cost.mpi_recv + cfg.cost.mpi_lock_hold);
    assert_eq!(shared.nodes[1].mpi_lock.acquisitions(), 1);
    assert_eq!(shared.nodes[1].lane_queues[0].len(), 1, "routed to lane 0");
}

#[test]
fn dedicated_pump_charges_no_poll_and_no_lock() {
    let cfg = config(1, MpiMode::Dedicated);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let mut pump = MpiPump::new(NodeId(0), Arc::clone(&shared), Box::new(NullMpiGvt));
    assert_eq!(pump.pump(WallNs(0)), (WallNs::ZERO, false), "an idle poll is free");
    shared.nodes[0].outbox.push(WallNs(0), env(1, 0, 0));
    let (charge, moved) = pump.pump(WallNs(0));
    assert!(moved);
    assert_eq!(charge, cfg.cost.mpi_send, "the send alone is charged");
    assert_eq!(shared.nodes[0].mpi_lock.acquisitions(), 0);
}

#[test]
fn inline_pump_charges_the_poll_but_no_lock() {
    let cfg = config(1, MpiMode::InlineWorker);
    let shared = build_shared(Arc::new(MiniHold::default()), cfg);
    let mut pump = MpiPump::new(NodeId(0), Arc::clone(&shared), Box::new(NullMpiGvt));
    shared.nodes[0].outbox.push(WallNs(0), env(1, 0, 0));
    let (charge, moved) = pump.pump(WallNs(0));
    assert!(moved);
    assert_eq!(charge, cfg.cost.mpi_poll + cfg.cost.mpi_send);
    assert_eq!(shared.nodes[0].mpi_lock.acquisitions(), 0);
    assert_eq!(shared.nodes[0].outbox.len(), 0, "an inline pump transmits the outbox");
}
