//! Engine-level tests: backpressure and its observability, batched
//! dispatch, same-disk FIFO, atomic fan-out admission, fault paths
//! through the request plane, and config builder validation.

use shardstore_core::rpc::{ErrorCode, Request, Response};
use shardstore_core::{
    serve, BackendKind, ConfigError, Engine, EngineConfig, Node, NodeConfig, StoreConfig,
};
use shardstore_obs::TraceEvent;
use shardstore_vdisk::Geometry;

fn node(disks: usize) -> Node {
    let config = NodeConfig::builder()
        .disks(disks)
        .geometry(Geometry::small())
        .store(StoreConfig::small())
        .build()
        .unwrap();
    Node::from_config(&config)
}

fn engine(disks: usize, queue_depth: usize, batch_window: usize) -> Engine {
    let config = EngineConfig::builder()
        .queue_depth(queue_depth)
        .batch_window(batch_window)
        .build()
        .unwrap();
    Engine::start(node(disks), config)
}

#[test]
fn requests_to_a_quarantined_extent_report_degraded() {
    // A permanent media fault surfaces to RPC clients as a typed
    // `Degraded` error — not a hang, not a panic, not NotFound.
    let n = node(2);
    n.put(2, b"doomed").unwrap();
    let store = n.store(n.route(2)).unwrap();
    store.pump().unwrap();
    let extent = store.index().get(2).unwrap().unwrap()[0].extent;
    store.scheduler().disk().inject_fail_always(extent);

    let engine = Engine::start(n.clone(), EngineConfig::default());
    let client = engine.client();
    let err = client.get(2).unwrap_err();
    assert_eq!(err.code, ErrorCode::Degraded, "got {err}");
    assert!(store.quarantined_extents().contains(&extent));
    // The executor survives the fault: traffic to the same disk and the
    // other disk still flows.
    client.put(4, b"same disk, healthy extent".to_vec()).unwrap();
    assert!(client.get(4).unwrap().is_some());
    client.put(1, b"other disk".to_vec()).unwrap();
    assert!(client.get(1).unwrap().is_some());
    engine.shutdown();
}

#[test]
fn engine_scans_page_through_the_fanout() {
    // A limited scan fans one piece per disk, merges, truncates, and
    // hands back a continuation; following continuations walks the whole
    // keyspace exactly once, in order, with exact values.
    let n = node(2);
    for k in 0..25u128 {
        n.put(k, format!("v-{k}").as_bytes()).unwrap();
    }
    let engine = Engine::start(n, EngineConfig::default());
    let client = engine.client();
    let mut seen: Vec<u128> = Vec::new();
    let mut continuation = None;
    let mut pages = 0usize;
    loop {
        let (entries, next) = client.scan(0, u128::MAX, 10, continuation).unwrap();
        assert!(entries.len() <= 10, "page overflows its limit");
        for (k, v) in &entries {
            assert!(*v == *format!("v-{k}").as_bytes(), "wrong value for key {k}");
        }
        seen.extend(entries.iter().map(|(k, _)| *k));
        pages += 1;
        match next {
            Some(c) => continuation = Some(c),
            None => break,
        }
    }
    assert_eq!(seen, (0..25u128).collect::<Vec<_>>(), "paged scan lost or duplicated keys");
    assert!(pages >= 3, "25 keys with limit 10 need at least 3 pages, got {pages}");
    // Observability: every disk counted its scan pieces and traced the
    // page sizes it contributed.
    for disk in 0..2 {
        let obs = engine.node().disk_obs(disk).unwrap();
        assert!(
            obs.registry().counter("rpc.scan").get() >= pages as u64,
            "disk {disk} missed scan counts"
        );
        assert!(
            obs.trace()
                .snapshot()
                .into_iter()
                .any(|r| matches!(r.event, TraceEvent::ScanPage { .. })),
            "disk {disk} traced no scan pages"
        );
    }
    // An empty range answers one empty page with no continuation.
    let (entries, next) = client.scan(40, 30, 0, None).unwrap();
    assert!(entries.is_empty());
    assert!(next.is_none());
    engine.shutdown();
}

#[test]
fn scans_crossing_a_quarantined_extent_report_degraded() {
    // A scan whose range covers a key on a failed extent must surface
    // the typed `Degraded` error — it must never return a page that
    // silently skips the unreadable key.
    let n = node(2);
    n.put(2, b"doomed").unwrap();
    // The healthy key must live on the *other* disk — a same-disk key
    // would share the open data extent with the doomed one.
    let healthy = (3..100u128).find(|k| n.route(*k) != n.route(2)).unwrap();
    n.put(healthy, b"healthy").unwrap();
    let store = n.store(n.route(2)).unwrap();
    store.pump().unwrap();
    let extent = store.index().get(2).unwrap().unwrap()[0].extent;
    store.scheduler().disk().inject_fail_always(extent);
    store.drop_caches();

    let engine = Engine::start(n.clone(), EngineConfig::default());
    let client = engine.client();
    let err = client.scan(0, u128::MAX, 0, None).unwrap_err();
    assert_eq!(err.code, ErrorCode::Degraded, "got {err}");
    assert!(store.quarantined_extents().contains(&extent));
    // The quarantine is sticky: a retry still reports the fault rather
    // than dropping key 2 from the results.
    let err = client.scan(0, u128::MAX, 0, None).unwrap_err();
    assert_eq!(err.code, ErrorCode::Degraded, "retry got {err}");
    // A scan whose range avoids the quarantined key still succeeds.
    let (entries, next) = client.scan(3, u128::MAX, 0, None).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].0, healthy);
    assert!(entries[0].1 == b"healthy"[..]);
    assert!(next.is_none());
    engine.shutdown();
}

#[test]
fn admission_queue_overflow_is_typed_and_observable() {
    let engine = engine(1, 2, 2);
    let client = engine.client();
    engine.pause();
    // Two requests fill the bounded queue; the third is rejected at
    // admission without blocking.
    let a = client.call_nowait(Request::Put { shard: 0, data: b"a".to_vec() });
    let b = client.call_nowait(Request::Put { shard: 1, data: b"b".to_vec() });
    let rejected = client.call_nowait(Request::Get { shard: 0 });
    match rejected.poll().expect("rejection is synchronous") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Overloaded),
        other => panic!("unexpected: {other:?}"),
    }
    // The rejection is observable: counter bumped, trace event recorded,
    // and the queue-depth gauge shows the saturated queue.
    let obs = engine.node().disk_obs(0).unwrap();
    assert_eq!(obs.registry().counter("rpc.overloaded").get(), 1);
    assert_eq!(obs.registry().gauge("rpc.queue_depth").get(), 2);
    let overloads: Vec<TraceEvent> = obs
        .trace()
        .snapshot()
        .into_iter()
        .map(|r| r.event)
        .filter(|e| matches!(e, TraceEvent::RpcOverloaded { .. }))
        .collect();
    assert_eq!(overloads, vec![TraceEvent::RpcOverloaded { disk: 0, depth: 2 }]);
    // The admitted requests were not disturbed by the rejection.
    engine.resume();
    assert_eq!(a.wait(), Response::Ok);
    assert_eq!(b.wait(), Response::Ok);
    engine.shutdown();
}

#[test]
fn introspect_answers_while_engine_saturated() {
    let engine = engine(1, 2, 2);
    let client = engine.client();
    engine.pause();
    // Fill the bounded admission queue so every further data op is
    // rejected with `Overloaded`.
    let a = client.call_nowait(Request::Put { shard: 0, data: b"a".to_vec() });
    let b = client.call_nowait(Request::Put { shard: 1, data: b"b".to_vec() });
    let rejected = client.call_nowait(Request::Get { shard: 0 });
    match rejected.poll().expect("rejection is synchronous") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Overloaded),
        other => panic!("unexpected: {other:?}"),
    }
    // Introspection still answers — it is served inline at admission and
    // never touches the executor queues.
    let json = client.introspect().expect("introspect answers while saturated");
    let report = shardstore_obs::json::parse(&json).expect("introspect JSON parses");
    assert_eq!(report.render(), json, "health JSON is canonical");
    let obj = report.as_object().unwrap();
    assert_eq!(obj.get("version").and_then(shardstore_obs::json::Json::as_u64), Some(2));
    let disks = obj.get("disks").and_then(shardstore_obs::json::Json::as_array).unwrap();
    assert_eq!(disks.len(), 1);
    let disk0 = disks[0].as_object().unwrap();
    // The report sees the saturated queue through the gauge.
    assert_eq!(
        disk0.get("queue_depth").and_then(shardstore_obs::json::Json::as_i64),
        Some(2),
        "introspect reports the saturated admission queue"
    );
    assert_eq!(disk0.get("in_service"), Some(&shardstore_obs::json::Json::Bool(true)));
    // The admitted requests were not disturbed.
    engine.resume();
    assert_eq!(a.wait(), Response::Ok);
    assert_eq!(b.wait(), Response::Ok);
    engine.shutdown();
}

#[test]
fn co_routed_puts_batch_through_put_batch() {
    let engine = engine(1, 8, 4);
    let client = engine.client();
    engine.pause();
    let pending: Vec<_> = (0..4u128)
        .map(|s| client.call_nowait(Request::Put { shard: s, data: vec![s as u8; 16] }))
        .collect();
    engine.resume();
    for p in pending {
        assert_eq!(p.wait(), Response::Ok);
    }
    let obs = engine.node().disk_obs(0).unwrap();
    assert!(obs.registry().counter("rpc.batches").get() >= 1, "no batch formed");
    let batched: u32 = obs
        .trace()
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::RpcBatch { puts, .. } => Some(puts),
            _ => None,
        })
        .sum();
    assert!(batched >= 2, "batches cover fewer than 2 puts: {batched}");
    // Batched or not, every put landed.
    for s in 0..4u128 {
        assert_eq!(client.get(s).unwrap().unwrap(), vec![s as u8; 16]);
    }
    engine.shutdown();
}

#[test]
fn same_disk_requests_execute_in_admission_order() {
    let engine = engine(1, 8, 4);
    let client = engine.client();
    engine.pause();
    // put v1 / get / put v2 / get: the first get must see v1 — batched
    // dispatch only funnels the *leading* run of puts, so a read is
    // never reordered past a later write (or an earlier one).
    let p1 = client.call_nowait(Request::Put { shard: 7, data: b"v1".to_vec() });
    let g1 = client.call_nowait(Request::Get { shard: 7 });
    let p2 = client.call_nowait(Request::Put { shard: 7, data: b"v2".to_vec() });
    let g2 = client.call_nowait(Request::Get { shard: 7 });
    engine.resume();
    assert_eq!(p1.wait(), Response::Ok);
    assert_eq!(g1.wait(), Response::Data(b"v1".to_vec().into()));
    assert_eq!(p2.wait(), Response::Ok);
    assert_eq!(g2.wait(), Response::Data(b"v2".to_vec().into()));
    engine.shutdown();
}

#[test]
fn rejected_fanout_leaves_no_partial_pieces() {
    // 2 disks, queue depth 1. Saturate disk 1 only, then fan out a List:
    // admission must reject it atomically, leaving nothing on disk 0.
    let engine = engine(2, 1, 1);
    let client = engine.client();
    client.put(0, b"zero".to_vec()).unwrap();
    engine.pause();
    let blocker = client.call_nowait(Request::Put { shard: 1, data: b"one".to_vec() });
    let rejected = client.call_nowait(Request::List);
    match rejected.poll().expect("rejection is synchronous") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Overloaded),
        other => panic!("unexpected: {other:?}"),
    }
    // Disk 0 admitted no orphan piece: its queue is empty.
    let obs0 = engine.node().disk_obs(0).unwrap();
    assert_eq!(obs0.registry().gauge("rpc.queue_depth").get(), 0);
    engine.resume();
    assert_eq!(blocker.wait(), Response::Ok);
    // With capacity available again the same fan-out succeeds.
    assert_eq!(client.list().unwrap(), vec![0, 1]);
    engine.shutdown();
}

#[test]
fn out_of_service_disk_answers_typed_errors_without_stalling() {
    let engine = serve(node(2));
    let client = engine.client();
    client.put(1, b"on disk 1".to_vec()).unwrap();
    client.remove_disk(1).unwrap();
    assert_eq!(client.get(1).unwrap_err().code, ErrorCode::OutOfService);
    assert_eq!(
        client.put(1, b"rejected".to_vec()).unwrap_err().code,
        ErrorCode::OutOfService
    );
    // The fanned-out listing still completes: the removed disk's piece
    // reports its (empty) slice rather than wedging the join.
    assert_eq!(client.list().unwrap(), Vec::<u128>::new());
    client.return_disk(1).unwrap();
    assert_eq!(client.get(1).unwrap().unwrap(), b"on disk 1".to_vec());
    engine.shutdown();
}

#[test]
fn shutdown_rejects_new_requests_and_drains_admitted_ones() {
    let engine = engine(1, 8, 4);
    let client = engine.client();
    engine.pause();
    let admitted = client.call_nowait(Request::Put { shard: 3, data: b"in".to_vec() });
    engine.shutdown();
    // The admitted request was drained, not dropped.
    assert_eq!(admitted.wait(), Response::Ok);
    assert_eq!(client.put(4, b"late".to_vec()).unwrap_err().code, ErrorCode::ServerStopped);
    assert_eq!(client.list().unwrap_err().code, ErrorCode::ServerStopped);
    // Shutdown is idempotent.
    engine.shutdown();
}

#[test]
fn engine_config_builder_validates() {
    assert!(matches!(
        EngineConfig::builder().queue_depth(0).build(),
        Err(ConfigError::Zero { field: "queue_depth" })
    ));
    assert!(matches!(
        EngineConfig::builder().batch_window(0).build(),
        Err(ConfigError::Zero { field: "batch_window" })
    ));
    assert!(matches!(
        EngineConfig::builder().queue_depth(4).batch_window(8).build(),
        Err(ConfigError::BatchWindowExceedsQueue { batch_window: 8, queue_depth: 4 })
    ));
    let ok = EngineConfig::builder().queue_depth(32).batch_window(8).build().unwrap();
    assert_eq!((ok.queue_depth, ok.batch_window), (32, 8));
}

#[test]
fn node_config_builder_validates() {
    assert!(matches!(
        NodeConfig::builder().disks(0).build(),
        Err(ConfigError::Zero { field: "disks" })
    ));
    // Engine config is re-validated at the node level.
    let bad_engine = EngineConfig { queue_depth: 2, batch_window: 4 };
    assert!(NodeConfig::builder().engine(bad_engine).build().is_err());
    let config = NodeConfig::builder().disks(3).build().unwrap();
    assert_eq!(config.disks, 3);
    assert_eq!(Node::from_config(&config).disk_count(), 3);
}

#[test]
fn store_config_builder_validates() {
    assert!(matches!(
        StoreConfig::builder().max_chunk_size(0).build(),
        Err(ConfigError::Zero { field: "max_chunk_size" })
    ));
    assert!(matches!(
        StoreConfig::builder().flush_threshold(0).build(),
        Err(ConfigError::Zero { field: "flush_threshold" })
    ));
    assert!(matches!(
        StoreConfig::builder().decoded_cache_tables(0).build(),
        Err(ConfigError::Zero { field: "decoded_cache_tables" })
    ));
    let config = StoreConfig::builder()
        .max_chunk_size(4096)
        .flush_threshold(8)
        .cache_capacity(16)
        .build()
        .unwrap();
    assert_eq!(config.max_chunk_size, 4096);
    assert_eq!(config.flush_threshold, 8);
}

#[test]
fn store_config_backend_round_trips_and_validates() {
    assert_eq!(StoreConfig::default().backend.tag(), "memory");
    assert!(matches!(
        StoreConfig::builder()
            .backend(BackendKind::File { dir: "".into(), preallocate: false })
            .build(),
        Err(ConfigError::EmptyBackendDir)
    ));
    let backend = BackendKind::File { dir: "/tmp/shardstore-volumes".into(), preallocate: true };
    let config = StoreConfig::small().to_builder().backend(backend.clone()).build().unwrap();
    assert_eq!(config.backend, backend);
    assert_eq!(config.backend.tag(), "file");
    // to_builder round-trips the backend along with every other knob.
    let rebuilt = config.clone().to_builder().build().unwrap();
    assert_eq!(rebuilt.backend, backend);
    assert_eq!(rebuilt.flush_threshold, config.flush_threshold);
}
