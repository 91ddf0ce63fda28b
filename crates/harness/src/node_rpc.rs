//! Node-level linearizability harnesses for the parallel request plane
//! (§6 of the paper, lifted from single-store histories to RPC clients).
//!
//! These harnesses drive a multi-disk [`Node`] *through the engine*:
//! concurrent [`RpcClient`]s issue typed requests that traverse admission
//! queues, per-disk executors, and batched dispatch, and the recorded
//! histories must linearize against the sequential KV model
//! ([`crate::lin::KvSpec`]). The engine's workers run as controlled
//! tasks under the stateless model checker, so every queue hand-off and
//! executor interleaving is schedulable — the request plane itself is in
//! the checked concurrency, not just the store beneath it.
//!
//! The quiesce rule applies twice: [`Engine::shutdown`] joins the worker
//! tasks, and background-writeback variants additionally drain each
//! disk's pump before the closure ends.

use shardstore_conc::{check, thread, CheckError, CheckOptions, CheckReport};
use shardstore_core::{Engine, EngineConfig, Node, NodeConfig, RpcClient, StoreConfig};
use shardstore_faults::FaultConfig;
use shardstore_vdisk::Geometry;

use crate::enable_background;
use crate::lin::{check_linearizable, HistoryRecorder, KvLinOp, KvLinRet, KvSpec};

fn small_node(faults: &FaultConfig, disks: usize) -> (Node, EngineConfig) {
    let config = NodeConfig::builder()
        .disks(disks)
        .geometry(Geometry::small())
        .store(StoreConfig::small())
        .faults(faults.clone())
        .engine(
            EngineConfig::builder()
                .queue_depth(8)
                .batch_window(4)
                .build()
                .expect("valid engine config"),
        )
        .build()
        .expect("valid node config");
    (Node::from_config(&config), config.engine)
}

type Recorder = HistoryRecorder<KvLinOp, KvLinRet>;

fn recorded_put(client: &RpcClient, rec: &Recorder, shard: u128, value: &[u8]) {
    let t = rec.invoke(KvLinOp::Put(shard, value.to_vec()));
    client.put(shard, value.to_vec()).expect("put must not error");
    rec.complete(t, KvLinRet::Done);
}

fn recorded_get(client: &RpcClient, rec: &Recorder, shard: u128) {
    let t = rec.invoke(KvLinOp::Get(shard));
    let got = client.get(shard).expect("get must not error");
    rec.complete(t, KvLinRet::Value(got));
}

fn recorded_delete(client: &RpcClient, rec: &Recorder, shard: u128) {
    let t = rec.invoke(KvLinOp::Delete(shard));
    client.delete(shard).expect("delete must not error");
    rec.complete(t, KvLinRet::Done);
}

fn node_rpc_lin_body(faults: &FaultConfig, background: bool) {
    let (node, engine_config) = small_node(faults, 2);
    if background {
        for d in 0..node.disk_count() {
            enable_background(&node.store(d).expect("disk in service").scheduler());
        }
    }
    let engine = Engine::start(node.clone(), engine_config);
    let recorder: Recorder = HistoryRecorder::new();

    // Shards 1 and 2 route to different disks, so the clients genuinely
    // exercise cross-executor concurrency, while the same-shard traffic
    // exercises same-queue FIFO.
    let mut handles = Vec::new();
    let c1 = engine.client();
    let r1 = recorder.clone();
    handles.push(thread::spawn(move || {
        recorded_put(&c1, &r1, 1, b"v1");
        recorded_get(&c1, &r1, 2);
    }));
    let c2 = engine.client();
    let r2 = recorder.clone();
    handles.push(thread::spawn(move || {
        recorded_put(&c2, &r2, 2, b"v2");
        recorded_delete(&c2, &r2, 1);
    }));
    let c3 = engine.client();
    let r3 = recorder.clone();
    handles.push(thread::spawn(move || {
        recorded_put(&c3, &r3, 1, b"v3");
        recorded_get(&c3, &r3, 1);
    }));
    for h in handles {
        h.join().unwrap();
    }
    engine.shutdown();
    if background {
        for d in 0..node.disk_count() {
            node.store(d).expect("disk in service").scheduler().quiesce().unwrap();
        }
    }
    let history = recorder.take();
    let result = check_linearizable(&KvSpec, &history);
    assert!(result.is_ok(), "node RPC history not linearizable: {history:?}");
    node.check_catalog_consistent().expect("catalog consistent after RPC storm");
}

/// Concurrent RPC clients against the engine, deterministic writeback:
/// the recorded node-level history must be linearizable and the per-disk
/// catalogs consistent afterwards.
pub fn node_rpc_linearizability_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || node_rpc_lin_body(&faults, false))
}

/// [`node_rpc_linearizability_harness`] with the background writeback
/// engine running on every disk — request-plane workers *and* writeback
/// pumps all scheduled by the checker.
pub fn node_rpc_linearizability_background_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || node_rpc_lin_body(&faults, true))
}

/// Fan-out harness: a cross-disk `BulkCreate` races a `BulkRemove` and a
/// fanned-out `List` through the engine. Whatever the interleaving, the
/// listing must be a sensible snapshot (no phantom shards) and the
/// per-disk catalogs must match the indexes afterwards.
pub fn node_rpc_fanout_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let (node, engine_config) = small_node(&faults, 2);
        // Shard 5 exists up front; the bulk ops fight over it.
        node.put(5, b"seed").unwrap();
        let engine = Engine::start(node.clone(), engine_config);

        let c1 = engine.client();
        let creator = thread::spawn(move || {
            c1.bulk_create(vec![(5, b"recreated".to_vec()), (6, b"six".to_vec())])
                .expect("bulk create must not error");
        });
        let c2 = engine.client();
        let remover = thread::spawn(move || {
            c2.bulk_remove(vec![5]).expect("bulk remove must not error");
        });
        let c3 = engine.client();
        let lister = thread::spawn(move || {
            let listed = c3.list().expect("list must not error");
            for shard in listed {
                assert!(shard == 5 || shard == 6, "phantom shard {shard} listed");
            }
        });
        creator.join().unwrap();
        remover.join().unwrap();
        lister.join().unwrap();
        engine.shutdown();
        node.check_catalog_consistent().expect("catalog consistent after fan-out race");
        // Shard 6 was only ever created; it must exist.
        assert_eq!(
            node.get(6).expect("get must not error").as_deref(),
            Some(&b"six"[..]),
            "bulk-created shard lost"
        );
    })
}
