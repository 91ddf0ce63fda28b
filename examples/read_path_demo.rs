//! Read-path accelerators, observed live: table fences and bloom filters
//! skipping tables, the decoded-table cache absorbing repeat lookups, the
//! sharded chunk cache's aggregated stats, and reads surviving GC
//! relocation of the tables under them.
//!
//! Run with: `cargo run --example read_path_demo`

use shardstore::chunk::Stream;
use shardstore::faults::{coverage, FaultConfig};
use shardstore::vdisk::Geometry;
use shardstore::{Store, StoreConfig};

fn main() {
    let store = Store::format(Geometry::default(), StoreConfig::default(), FaultConfig::none());

    // Eight tables of eight keys each, all table-resident. Keys are
    // striped across tables (table t holds t, 8+t, 16+t, ...), so table
    // fences overlap and the bloom filters have real work too.
    for t in 0..8u128 {
        for i in 0..8u128 {
            store.put(i * 8 + t, format!("value-{t}-{i}").as_bytes()).unwrap();
        }
        store.flush_index().unwrap();
    }
    store.pump().unwrap();
    store.drop_caches(); // start cold so every probe fires from zero

    coverage::enable();
    for k in 0..64u128 {
        assert!(store.get(k).unwrap().is_some());
    }
    println!("first cold sweep over 64 table-resident keys:");
    println!("  fence skips : {}", coverage::count("lsm.get.fence_skip"));
    println!("  bloom skips : {}", coverage::count("lsm.get.bloom_skip"));
    println!("  decoded miss: {}", coverage::count("lsm.decoded.miss"));
    println!("  decoded hit : {}", coverage::count("lsm.decoded.hit"));

    coverage::reset();
    for k in 0..64u128 {
        assert!(store.get(k).unwrap().is_some());
    }
    println!("second (warm) sweep:");
    println!("  decoded miss: {}", coverage::count("lsm.decoded.miss"));
    println!("  decoded hit : {}", coverage::count("lsm.decoded.hit"));

    let obs = store.obs();
    let registry = obs.registry();
    println!(
        "sharded chunk cache: {} segments, {} hits / {} misses, {} bytes",
        store.cache().segment_count(),
        registry.counter("cache.hits").get(),
        registry.counter("cache.misses").get(),
        store.cache().cached_bytes()
    );

    // Relocate every LSM table by reclaiming its extents; reads keep
    // working through the rewritten locators.
    coverage::reset();
    let lsm_extents = store
        .cache()
        .chunk_store()
        .extent_manager()
        .extents_owned_by(shardstore::superblock::Owner::LsmData);
    let moved = lsm_extents.len();
    for ext in lsm_extents {
        let _ = store.reclaim_extent(ext, Stream::Lsm);
    }
    store.pump().unwrap();
    store.drop_caches();
    for k in 0..64u128 {
        let got = store.get(k).unwrap().unwrap();
        assert_eq!(got, format!("value-{}-{}", k % 8, k / 8).into_bytes());
    }
    println!(
        "reclaimed {moved} LSM extents ({} table relocations); all 64 keys intact after cold re-read",
        coverage::count("lsm.referencer.relocate_table")
    );
    coverage::disable();
    println!("read_path_demo OK");
}
