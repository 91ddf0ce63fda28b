//! Criterion bench for tiered compaction and the v2 block-indexed table
//! format: read amplification (tables walked and bytes decoded per cold
//! get) on a deep uncompacted table stack vs the same stack after
//! bounded tiered rounds, scan latency across the same ablation, the
//! block-index decode ablation (one block vs the whole table), and the
//! write-amplification evidence that a tiered round rewrites a bounded
//! run — not the whole store, as the old merge-all did.
//!
//! Emits `BENCH_compaction.json` (via `--json`/`CRITERION_JSON`, like
//! the other benches) and a `BENCH_compaction.metrics.json` sidecar
//! whose counters are the acceptance evidence.

use criterion::{criterion_group, Criterion, Throughput};
use shardstore_core::{Store, StoreConfig};
use shardstore_faults::FaultConfig;
use shardstore_vdisk::Geometry;

/// xorshift64 — deterministic key stream without pulling `rand` into
/// the measured loop.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

const KEYS: u128 = 256;
const GENS: u128 = 16;
const PAYLOAD: usize = 64;

/// A store with `GENS` tables, key `k` living in table `k % GENS`: every
/// table's fence range spans nearly the whole key space, so a point get
/// must walk the stack newest-first until it reaches the key's table —
/// the read-amplification shape tiered compaction exists to flatten.
///
/// The read path is the production one (fences, blooms, decoded cache);
/// gets under measurement drop every volatile cache first, so each pays
/// its chunk reads and decodes. The automatic compaction trigger is
/// parked high — the explicit rounds below are the compactions under
/// measurement.
fn striped_store(block_size: usize) -> Store {
    let config = StoreConfig::default()
        .to_builder()
        .compaction_trigger_tables(1 << 10)
        .block_size(block_size)
        .build()
        .unwrap();
    let store = Store::format(Geometry::default(), config, FaultConfig::none());
    store.obs().trace().set_enabled(false);
    for g in 0..GENS {
        let mut k = g;
        while k < KEYS {
            store.put(k, &vec![(k % 251) as u8; PAYLOAD]).unwrap();
            k += GENS;
        }
        store.flush_index().unwrap();
    }
    store.pump().unwrap();
    assert_eq!(store.index().table_count(), GENS as usize, "setup built the wrong stack");
    store
}

/// Runs `rounds` bounded tiered compactions.
fn compact_rounds(store: &Store, rounds: usize) {
    for _ in 0..rounds {
        store.compact_index().unwrap();
    }
    store.pump().unwrap();
}

/// One cold get: every volatile cache dropped first, so the get pays the
/// chunk reads and decodes of its walk.
fn cold_get(store: &Store, key: u128) {
    store.drop_caches();
    std::hint::black_box(store.get_value(key).unwrap().unwrap());
}

/// Per-get read-amplification counters over a deterministic stream of
/// cold gets: (tables walked per get × 1000, bytes decoded per get). A
/// table is walked when the newest-first lookup reaches it, whether the
/// fences or bloom then skip it or it is read.
fn measure_gets(store: &Store, samples: u64) -> (u64, u64) {
    const WALKED: [&str; 3] = ["lsm.get.tables_consulted", "lsm.fence_skips", "lsm.bloom_skips"];
    let obs = store.obs();
    let registry = obs.registry();
    let walked = || WALKED.iter().map(|name| registry.counter(name).get()).sum::<u64>();
    let walked_0 = walked();
    let bytes_0 = registry.counter("lsm.bytes_decoded").get();
    let mut rng = 0xA5A5_5A5Au64;
    for _ in 0..samples {
        rng = xorshift(rng);
        cold_get(store, (rng as u128) % KEYS);
    }
    let bytes = registry.counter("lsm.bytes_decoded").get() - bytes_0;
    ((walked() - walked_0) * 1000 / samples, bytes / samples)
}

/// Cold point-get latency on the 16-table uncompacted stack vs the same data
/// after four tiered rounds (16 → 4 tables). The uncompacted side is
/// what a merge-all policy serves between its rare full merges — full
/// merges so expensive they are always deferred — so this gap is the
/// read-amplification win the bounded tiered rounds buy.
fn bench_get_amplification(c: &mut Criterion) {
    const OPS: u64 = 512;
    let mut group = c.benchmark_group("compaction_get");
    let uncompacted = striped_store(16);
    let compacted = striped_store(16);
    compact_rounds(&compacted, 4);
    assert!(
        compacted.index().table_count() <= 4,
        "four tiered rounds should flatten 16 tables to at most 4"
    );
    for (name, store) in [("uncompacted_16t", &uncompacted), ("tiered_4t", &compacted)] {
        group.throughput(Throughput::Elements(OPS));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = 0x1234_5678u64;
                for _ in 0..OPS {
                    rng = xorshift(rng);
                    cold_get(store, (rng as u128) % KEYS);
                }
            })
        });
    }
    group.finish();
}

/// Narrow-scan latency across the same ablation, under the *default*
/// read-path config (filters and caches on): a scan must consult every
/// table overlapping its window no matter how good the filters are, so
/// compaction's table-count reduction pays here in production config.
fn bench_scan_amplification(c: &mut Criterion) {
    const WINDOW: u128 = 32;
    let mut group = c.benchmark_group("compaction_scan");
    for (name, rounds) in [("uncompacted_16t", 0usize), ("tiered_4t", 4)] {
        let config = StoreConfig::default()
            .to_builder()
            .compaction_trigger_tables(1 << 10)
            .build()
            .unwrap();
        let store = Store::format(Geometry::default(), config, FaultConfig::none());
        store.obs().trace().set_enabled(false);
        for g in 0..GENS {
            let mut k = g;
            while k < KEYS {
                store.put(k, &vec![(k % 251) as u8; PAYLOAD]).unwrap();
                k += GENS;
            }
            store.flush_index().unwrap();
        }
        store.pump().unwrap();
        compact_rounds(&store, rounds);
        let mut start = 0u128;
        group.throughput(Throughput::Elements(WINDOW as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                start = (start + 97) % (KEYS - WINDOW);
                let page = store.scan(start, start + WINDOW - 1).unwrap();
                assert_eq!(page.len(), WINDOW as usize);
                std::hint::black_box(page);
            })
        });
    }
    group.finish();
}

/// Block-index decode ablation: the same single-table store with
/// 16-entry blocks vs one table-spanning block (the v1 decode shape —
/// every get decodes the whole table). Each get is cold, so it pays its
/// decode and the gap is the per-get decode work the sparse block index
/// removes.
fn bench_block_ablation(c: &mut Criterion) {
    const OPS: u64 = 512;
    let mut group = c.benchmark_group("compaction_block");
    for (name, block_size) in [("block_16", 16usize), ("whole_table", 1 << 20)] {
        let store = striped_store(block_size);
        // Flatten to one table so the ablation isolates decode width.
        while store.index().table_count() > 1 {
            store.compact_index().unwrap();
        }
        store.pump().unwrap();
        group.throughput(Throughput::Elements(OPS));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = 0xDEAD_BEEFu64;
                for _ in 0..OPS {
                    rng = xorshift(rng);
                    cold_get(&store, (rng as u128) % KEYS);
                }
            })
        });
    }
    group.finish();
}

/// Runs the acceptance workload once, asserts the read- and
/// write-amplification wins on the counters, and writes the metrics
/// snapshot sidecar next to the committed `BENCH_compaction.json`.
fn emit_metrics_sidecar() {
    const SAMPLES: u64 = 2_000;

    // Read amplification: uncompacted 16-table stack vs four tiered
    // rounds of the same data.
    let uncompacted = striped_store(16);
    let (walked_before, bytes_before) = measure_gets(&uncompacted, SAMPLES);
    let compacted = striped_store(16);
    compact_rounds(&compacted, 4);
    let (walked_after, bytes_after) = measure_gets(&compacted, SAMPLES);
    assert!(
        walked_after < walked_before,
        "tiered compaction did not reduce tables walked per get \
         ({walked_before} -> {walked_after} milli-tables)"
    );
    // The fences and blooms already keep a cold get to about one block
    // decode, so compaction's win is the walk, not the bytes: it must
    // only not make a cold get decode more.
    assert!(
        bytes_after <= bytes_before,
        "tiered compaction increased cold bytes decoded per get \
         ({bytes_before} -> {bytes_after})"
    );

    // Block-index ablation on a single flattened table: per-get decode
    // bytes with 16-entry blocks vs one table-spanning block.
    let blocks = striped_store(16);
    while blocks.index().table_count() > 1 {
        blocks.compact_index().unwrap();
    }
    blocks.pump().unwrap();
    let (_, bytes_block) = measure_gets(&blocks, SAMPLES);
    let whole = striped_store(1 << 20);
    while whole.index().table_count() > 1 {
        whole.compact_index().unwrap();
    }
    whole.pump().unwrap();
    let (_, bytes_whole) = measure_gets(&whole, SAMPLES);
    assert!(
        bytes_block * 4 <= bytes_whole,
        "block index should cut per-get decode bytes by well over 4x \
         ({bytes_whole} whole-table vs {bytes_block} per-block)"
    );

    // Write amplification: one tiered round rewrites a bounded run. The
    // merge-all baseline rewrites at least the whole live data set per
    // round — measured here as the bytes_out of the final full-merge
    // round, whose output table holds everything.
    let tiered = striped_store(16);
    let obs = tiered.obs();
    let out_0 = obs.registry().counter("lsm.compaction.bytes_out").get();
    tiered.compact_index().unwrap();
    tiered.pump().unwrap();
    let round_bytes_out = obs.registry().counter("lsm.compaction.bytes_out").get() - out_0;

    let full = striped_store(16);
    let full_obs = full.obs();
    let mut last_round_bytes = 0u64;
    while full.index().table_count() > 1 {
        let before = full_obs.registry().counter("lsm.compaction.bytes_out").get();
        full.compact_index().unwrap();
        last_round_bytes = full_obs.registry().counter("lsm.compaction.bytes_out").get() - before;
    }
    full.pump().unwrap();
    let total_live_bytes = last_round_bytes;
    assert!(round_bytes_out > 0, "the tiered round wrote nothing");
    assert!(
        round_bytes_out * 2 <= total_live_bytes,
        "a tiered round should rewrite a bounded fraction of the store, \
         not O(total data) ({round_bytes_out} of {total_live_bytes} bytes)"
    );

    let registry = obs.registry();
    registry.gauge("bench.get_tables_walked_milli_uncompacted").set(walked_before as i64);
    registry.gauge("bench.get_tables_walked_milli_tiered").set(walked_after as i64);
    registry.gauge("bench.get_bytes_decoded_uncompacted").set(bytes_before as i64);
    registry.gauge("bench.get_bytes_decoded_tiered").set(bytes_after as i64);
    registry.gauge("bench.get_bytes_decoded_block16").set(bytes_block as i64);
    registry.gauge("bench.get_bytes_decoded_whole_table").set(bytes_whole as i64);
    registry.gauge("bench.compaction_round_bytes_out").set(round_bytes_out as i64);
    registry.gauge("bench.compaction_total_live_bytes").set(total_live_bytes as i64);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compaction.metrics.json");
    std::fs::write(path, obs.snapshot().to_json()).expect("write metrics sidecar");
    eprintln!(
        "metrics sidecar written to {path}: tables/get {:.3} -> {:.3}, bytes/get \
         {bytes_before} -> {bytes_after}, block decode {bytes_whole} -> {bytes_block}, \
         tiered round {round_bytes_out} of {total_live_bytes} live bytes",
        walked_before as f64 / 1000.0,
        walked_after as f64 / 1000.0,
    );
}

criterion_group!(
    benches,
    bench_get_amplification,
    bench_scan_amplification,
    bench_block_ablation
);

fn main() {
    benches();
    criterion::finalize();
    emit_metrics_sidecar();
}
