//! Criterion bench: request-plane operations through the full stack
//! (chunking, LSM, scheduler, superblock, disk): point ops, table-resident
//! reads, and the group-commit write path.

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use shardstore_core::{Store, StoreConfig};
use shardstore_faults::FaultConfig;
use shardstore_vdisk::Geometry;

fn fresh_store() -> Store {
    Store::format(Geometry::default(), StoreConfig::default(), FaultConfig::none())
}

fn bench_put_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_ops");
    group.throughput(Throughput::Elements(1));
    let payload = vec![0xABu8; 1024];

    group.bench_function("put_1k", |b| {
        b.iter_batched(
            fresh_store,
            |store| {
                for shard in 0..32u128 {
                    store.put(shard, &payload).unwrap();
                }
                store.pump().unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("get_1k_cached", |b| {
        let store = fresh_store();
        for shard in 0..32u128 {
            store.put(shard, &payload).unwrap();
        }
        store.flush_index().unwrap();
        store.pump().unwrap();
        let mut shard = 0u128;
        b.iter(|| {
            shard = (shard + 1) % 32;
            std::hint::black_box(store.get(shard).unwrap());
        })
    });

    group.bench_function("get_1k_cold", |b| {
        let store = fresh_store();
        for shard in 0..32u128 {
            store.put(shard, &payload).unwrap();
        }
        store.flush_index().unwrap();
        store.pump().unwrap();
        let mut shard = 0u128;
        b.iter(|| {
            store.drop_caches();
            shard = (shard + 1) % 32;
            std::hint::black_box(store.get(shard).unwrap());
        })
    });

    group.bench_function("delete", |b| {
        b.iter_batched(
            || {
                let store = fresh_store();
                for shard in 0..32u128 {
                    store.put(shard, &payload).unwrap();
                }
                store.pump().unwrap();
                store
            },
            |store| {
                for shard in 0..32u128 {
                    store.delete(shard).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Table-resident gets: many tables for the fences, blooms and the
/// decoded-table cache to route a lookup through.
fn bench_read_path(c: &mut Criterion) {
    const TABLES: u128 = 16;
    const KEYS_PER_TABLE: u128 = 16;
    const KEYS: u128 = TABLES * KEYS_PER_TABLE;

    // All keys table-resident: one flush per batch, no compaction, so the
    // lookup has many tables to consider.
    let store = fresh_store();
    let payload = vec![0x5Au8; 256];
    for t in 0..TABLES {
        for i in 0..KEYS_PER_TABLE {
            store.put(t * KEYS_PER_TABLE + i, &payload).unwrap();
        }
        store.flush_index().unwrap();
    }
    store.pump().unwrap();
    let mut group = c.benchmark_group("kv_read_path");
    group.throughput(Throughput::Elements(1));

    // Read-heavy skewed workload: 80% of gets hit the hottest 20% of the
    // key space, the rest are uniform — the common object-storage shape.
    let mut rng: u64 = 0x9E37_79B9;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    group.bench_function("table_get_skewed_new", |b| {
        b.iter(|| {
            let r = next();
            let key = if r % 5 != 0 {
                (next() % (KEYS as u64 / 5)) as u128
            } else {
                (next() % KEYS as u64) as u128
            };
            std::hint::black_box(store.get(key).unwrap());
        })
    });

    // Cold table reads: every volatile cache dropped before each get, so
    // the chunk reads happen but the fences/blooms still skip tables.
    let mut key = 0u128;
    group.bench_function("table_get_cold_new", |b| {
        b.iter(|| {
            store.drop_caches();
            key = (key + 7) % KEYS;
            std::hint::black_box(store.get(key).unwrap());
        })
    });
    group.finish();
}

/// The write path with group commit: the same 32-shard workload as
/// `kv_ops/put_1k`, issued one put at a time (the serial reference),
/// through [`Store::put_batch`] (one dependency group, one superblock
/// update, coalesced disk IOs), and under a flush-heavy regime where the
/// LSM's group-sealed memtable flushes dominate.
fn bench_write_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_write_path");
    group.throughput(Throughput::Elements(1));
    let payload = vec![0xABu8; 1024];

    group.bench_function("put_serial_1k", |b| {
        b.iter_batched(
            fresh_store,
            |store| {
                for shard in 0..32u128 {
                    store.put(shard, &payload).unwrap();
                }
                store.pump().unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    let make_batch = || -> Vec<(u128, Vec<u8>)> {
        (0..32u128).map(|shard| (shard, vec![0xABu8; 1024])).collect()
    };

    group.bench_function("put_batch_1k", |b| {
        b.iter_batched(
            || (fresh_store(), make_batch()),
            |(store, batch)| {
                store.put_batch(&batch).unwrap();
                store.pump().unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("put_flush_heavy", |b| {
        b.iter_batched(
            fresh_store,
            |store| {
                for shard in 0..32u128 {
                    store.put(shard, &payload).unwrap();
                    if shard % 4 == 3 {
                        store.flush_index().unwrap();
                    }
                }
                store.pump().unwrap();
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Runs the representative `kv_ops` workload once against a fresh store
/// and writes its metrics snapshot as a JSON sidecar next to the
/// committed `BENCH_kv_ops.json` baseline. Wall-clock latencies are the
/// bench-only opt-in: they go through `shardstore_obs::walltime` into a
/// histogram and never into the (deterministic) trace log.
fn emit_metrics_sidecar() {
    use shardstore_obs::walltime::{Stopwatch, LATENCY_BOUNDS_US};

    let store = fresh_store();
    let obs = store.obs();
    let put_us = obs.registry().histogram("bench.put_latency_us", LATENCY_BOUNDS_US);
    let get_us = obs.registry().histogram("bench.get_latency_us", LATENCY_BOUNDS_US);
    let payload = vec![0xABu8; 1024];
    for shard in 0..32u128 {
        let sw = Stopwatch::start(put_us.clone());
        store.put(shard, &payload).unwrap();
        sw.stop();
    }
    store.flush_index().unwrap();
    store.pump().unwrap();
    for shard in 0..32u128 {
        let sw = Stopwatch::start(get_us.clone());
        std::hint::black_box(store.get(shard).unwrap());
        sw.stop();
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kv_ops.metrics.json");
    std::fs::write(path, obs.snapshot().to_json()).expect("write metrics sidecar");
    eprintln!("metrics sidecar written to {path}");
}

criterion_group!(benches, bench_put_get, bench_read_path, bench_write_path);

fn main() {
    benches();
    criterion::finalize();
    emit_metrics_sidecar();
}
