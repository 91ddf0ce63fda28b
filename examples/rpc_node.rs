//! A multi-disk storage node behind the parallel request plane (§2.1):
//! per-disk executors routed by shard id, typed errors, control-plane
//! disk removal and return, migration, cross-disk bulk operations, and
//! the wire-level health-introspection plane.
//!
//! ```sh
//! cargo run --example rpc_node
//! ```

use shardstore::core::rpc::{ErrorCode, Request, Response, INTROSPECT_VERSION};
use shardstore::core::{Engine, NodeConfig};
use shardstore::vdisk::Geometry;
use shardstore::{Node, StoreConfig};

fn main() {
    // Four disks behind one RPC endpoint; shard ids steer to per-disk
    // executors, so traffic to different disks runs concurrently.
    let config = NodeConfig::builder()
        .disks(4)
        .geometry(Geometry::small())
        .store(StoreConfig::small())
        .build()
        .expect("valid node config");
    let node = Node::from_config(&config);
    let engine = Engine::start(node.clone(), config.engine);
    let client = engine.client();

    // Request plane: typed puts and gets through the client API.
    for shard in 0..12u128 {
        client.put(shard, format!("object-{shard}").into_bytes()).unwrap();
    }
    println!("stored 12 shards across {} disks", node.disk_count());
    println!("listing: {:?}", client.list().unwrap());

    // The same requests also travel as versioned wire frames; a frame
    // with a future version byte gets a typed rejection, not garbage.
    let frame = Request::Get { shard: 3 }.encode();
    let resp = Response::decode(&client.call_wire(&frame)).unwrap();
    assert_eq!(resp, Response::Data(b"object-3".to_vec().into()));

    // Range scans page through the key space with a keyset continuation;
    // each page fans out one slice per disk and merges in key order.
    let mut continuation = None;
    let mut pages = 0;
    loop {
        let (entries, next) = client.scan(0, u128::MAX, 5, continuation).unwrap();
        pages += 1;
        for (key, value) in &entries {
            assert_eq!(*value, format!("object-{key}").into_bytes());
        }
        match next {
            Some(_) => continuation = next,
            None => break,
        }
    }
    println!("scanned the catalog in {pages} pages of ≤5 entries");
    let mut future = frame.clone();
    future[2] = 0xEE; // version byte
    match Response::decode(&client.call_wire(&future)).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Unsupported),
        other => panic!("unexpected: {other:?}"),
    }
    println!("wire round-trip OK; future version rejected as Unsupported");

    // Control plane: take disk 1 out of service for repair. Its shards
    // are unavailable — reported with a typed code (their replicas on
    // other storage nodes would serve them in production)...
    client.remove_disk(1).unwrap();
    let unavailable: Vec<u128> = (0..12u128).filter(|s| node.route(*s) == 1).collect();
    println!("disk 1 removed; shards {unavailable:?} unavailable");
    for shard in &unavailable {
        let err = client.get(*shard).unwrap_err();
        assert_eq!(err.code, ErrorCode::OutOfService);
    }

    // The introspection plane answers health probes inline — it never
    // enters the executor queues, so it works even when the data plane
    // is saturated. The report is versioned JSON, one entry per disk;
    // disk 1 shows out of service while it's removed.
    let report = shardstore::obs::json::parse(&client.introspect().unwrap()).unwrap();
    let top = report.as_object().unwrap();
    assert_eq!(top.get("version").and_then(|v| v.as_u64()), Some(INTROSPECT_VERSION));
    let disks = top.get("disks").and_then(|d| d.as_array()).unwrap();
    for entry in disks {
        let disk = entry.as_object().unwrap();
        let id = disk.get("disk").and_then(|v| v.as_u64()).unwrap();
        let in_service = disk.get("in_service") == Some(&shardstore::obs::json::Json::Bool(true));
        println!("introspect: disk {id} in_service={in_service}");
        assert_eq!(in_service, id != 1);
    }

    // ...and returning the disk recovers every one of them (the property
    // issue #4 in Fig. 5 violated).
    client.return_disk(1).unwrap();
    for shard in &unavailable {
        let data = client.get(*shard).unwrap();
        assert_eq!(data.unwrap(), format!("object-{shard}").into_bytes());
    }
    println!("disk 1 returned; all shards recovered");

    // Migration (repair/rebalance): move a shard to another disk.
    let victim = 5u128;
    let old_disk = node.route(victim);
    let new_disk = (old_disk + 1) % node.disk_count();
    client.migrate(victim, new_disk as u32).unwrap();
    assert_eq!(node.route(victim), new_disk);
    assert_eq!(client.get(victim).unwrap().unwrap(), format!("object-{victim}").into_bytes());
    println!("migrated shard {victim}: disk {old_disk} → {new_disk}, data intact");

    // Bulk control-plane operations fan out one piece per disk and keep
    // the per-disk catalogs consistent.
    client.bulk_remove((0..12u128).collect()).unwrap();
    node.check_catalog_consistent().unwrap();
    assert_eq!(client.list().unwrap(), Vec::<u128>::new());
    println!("bulk remove complete; catalog consistent");

    engine.shutdown();
    assert_eq!(client.put(1, b"late".to_vec()).unwrap_err().code, ErrorCode::ServerStopped);
    println!("\nrpc_node OK");
}
