//! Layer probes: timed direct calls into each layer's public functions,
//! replaying keys of the workload's stream against the same live store,
//! plus the device floor measured with raw `std::fs::File` calls in the
//! same directory. Everything here is outside the program: no span or
//! counter is added to the crates under test.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::Instant;

use shardstore_chunk::Stream as ChunkStream;
use shardstore_core::rpc::{dispatch, Request, Response};
use shardstore_core::{Engine, EngineConfig};
use shardstore_vdisk::{Disk, ExtentId, Geometry};

use crate::report::Metrics;
use crate::rig::{err as e, Res, Rig};
use crate::rng::Rng;
use crate::stats::p50_us;
use crate::workload::{self, OpKind, Stream, SCAN_SPAN};

/// Keys replayed by each read probe.
pub const PROBE_OPS: usize = 2000;
/// Calls of each probe that writes (they leave garbage or new versions).
const PROBE_WRITES: usize = 500;
/// Scans cost two orders of magnitude more than gets; replay fewer.
const PROBE_SCANS: usize = 300;
/// Samples of each raw-device call.
pub const DEVICE_SAMPLES: usize = 400;

/// Times `f(i)` for `i in 0..n`, one sample per call, in nanoseconds.
fn time_each(n: usize, mut f: impl FnMut(usize) -> Res<()>) -> Res<Vec<u64>> {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let begun = Instant::now();
        f(i)?;
        samples.push(begun.elapsed().as_nanos() as u64);
    }
    Ok(samples)
}

// ---------------------------------------------------------------------------
// Device floor
// ---------------------------------------------------------------------------

/// Raw-file timings in the volume's directory: the floor no store on
/// this host can beat. Nanosecond samples.
pub struct DeviceFloor {
    pub pwrite_fdatasync_ns: Vec<u64>,
    pub fdatasync_ns: Vec<u64>,
    pub pread_ns: Vec<u64>,
}

const SCRATCH_BYTES: u64 = 8 << 20;

fn scratch_file(dir: &Path) -> Res<File> {
    let path = dir.join("device-floor.scratch");
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .map_err(e("scratch file"))?;
    // Unlinked at once: the data lives until the handle drops, and no
    // run leaves it behind.
    std::fs::remove_file(&path).map_err(e("scratch unlink"))?;
    // Written through once, so the timed writes overwrite allocated
    // blocks: the best case the device offers.
    let zeros = vec![0u8; 1 << 20];
    for at in (0..SCRATCH_BYTES).step_by(zeros.len()) {
        file.write_all_at(&zeros, at).map_err(e("scratch fill"))?;
    }
    file.sync_all().map_err(e("scratch sync"))?;
    Ok(file)
}

/// `samples` x (pwrite of `len` bytes + fdatasync) at page-aligned,
/// advancing offsets, timing the pair and the fdatasync alone; then as
/// many 4 KiB preads at seeded offsets.
pub fn device_floor(dir: &Path, len: usize, samples: usize, seed: u64) -> Res<DeviceFloor> {
    let file = scratch_file(dir)?;
    let mut payload = vec![0u8; len];
    let stride = (len as u64).div_ceil(4096) * 4096;
    let mut floor = DeviceFloor {
        pwrite_fdatasync_ns: Vec::with_capacity(samples),
        fdatasync_ns: Vec::with_capacity(samples),
        pread_ns: Vec::with_capacity(samples),
    };
    for i in 0..samples {
        workload::fill_value(i as u32, 1, &mut payload[..]);
        let at = (i as u64 * stride) % (SCRATCH_BYTES - stride);
        let begun = Instant::now();
        file.write_all_at(&payload, at).map_err(e("pwrite"))?;
        let written = Instant::now();
        file.sync_data().map_err(e("fdatasync"))?;
        let done = Instant::now();
        floor
            .pwrite_fdatasync_ns
            .push((done - begun).as_nanos() as u64);
        floor.fdatasync_ns.push((done - written).as_nanos() as u64);
    }
    let mut rng = Rng::lane(seed, 4);
    let mut page = [0u8; 4096];
    for _ in 0..samples {
        let at = u64::from(rng.below((SCRATCH_BYTES / 4096) as u32)) * 4096;
        let begun = Instant::now();
        file.read_exact_at(&mut page, at).map_err(e("pread"))?;
        floor.pread_ns.push(begun.elapsed().as_nanos() as u64);
        std::hint::black_box(&page);
    }
    Ok(floor)
}

/// The user bytes one write request of `spec` carries: what the device
/// floor writes for `write_gap_to_device`.
pub fn write_request_bytes(spec: &workload::Spec) -> usize {
    if spec.mix.iter().any(|(k, _)| *k == OpKind::BulkCreate) {
        spec.value_len * workload::BULK_KEYS as usize
    } else {
        spec.value_len
    }
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

fn counter(rig: &Rig, name: &str) -> u64 {
    rig.store.obs().registry().counter(name).get()
}

/// One request through a manual-mode engine on the calling thread: the
/// threaded path minus the hand-off to the worker.
fn call_manual(engine: &Engine, frame: &[u8]) -> Res<Vec<u8>> {
    let request = Request::decode(frame).map_err(e("frame"))?;
    let pending = engine.client().call_nowait(request);
    loop {
        if let Some(response) = pending.poll() {
            return Ok(response.encode());
        }
        if !engine.step_disk(0) {
            return Err("probe engine: queue empty but no reply".into());
        }
    }
}

/// Runs every layer probe against the live store and records the
/// results. `mixed` is a stream in the workload's own mix (for the wire
/// codec); reads replay a seeded read-only stream.
pub fn layer_probes(rig: &mut Rig, mixed: &Stream, dir: &Path, m: &mut Metrics) -> Res<()> {
    let spec = rig.spec;
    let spec = &spec;
    let gets = workload::uniform_stream(
        spec,
        rig.seed,
        20,
        PROBE_OPS,
        OpKind::Get,
        &mut rig.versions,
    );
    let scans = workload::uniform_stream(
        spec,
        rig.seed,
        21,
        PROBE_SCANS,
        OpKind::Scan,
        &mut rig.versions,
    );
    let reads = if spec.read_kind() == OpKind::Scan {
        &scans
    } else {
        &gets
    };

    // wire: the request decoder over the workload's mix, the response
    // codec over the replies its reads get.
    let mixed_ops = &mixed.ops[..mixed.ops.len().min(PROBE_OPS)];
    let decode = time_each(mixed_ops.len(), |i| {
        std::hint::black_box(
            Request::decode(mixed.frame(&mixed_ops[i])).map_err(e("wire.decode"))?,
        );
        Ok(())
    })?;
    m.set("wire.decode_us", p50_us(decode));
    let replies: Vec<Response> = reads
        .ops
        .iter()
        .map(|op| Request::decode(reads.frame(op)).map(|r| dispatch(&rig.node, r)))
        .collect::<Result<_, _>>()
        .map_err(e("wire replies"))?;
    let encode = time_each(replies.len(), |i| {
        let bytes = replies[i].encode();
        std::hint::black_box(Response::decode(&bytes).map_err(e("wire.encode"))?);
        Ok(())
    })?;
    m.set("wire.encode_us", p50_us(encode));

    // engine: the same read frames through the worker thread and through
    // a manual engine on this thread; the difference is the hand-off.
    let threaded = time_each(reads.ops.len(), |i| {
        std::hint::black_box(rig.call_wire(reads.frame(&reads.ops[i])));
        Ok(())
    })?;
    let manual_engine = Engine::start_manual(rig.node.clone(), EngineConfig::default());
    let manual = time_each(reads.ops.len(), |i| {
        std::hint::black_box(call_manual(&manual_engine, reads.frame(&reads.ops[i]))?);
        Ok(())
    })?;
    m.set("engine.handoff_us", p50_us(threaded) - p50_us(manual));

    // lsm, with the read-path counters attributed to exactly these gets.
    let store = rig.store.clone();
    let (index, cache) = (store.index(), store.cache());
    let before: Vec<u64> = LSM_GET_COUNTERS.iter().map(|c| counter(rig, c)).collect();
    let lsm_get = time_each(gets.ops.len(), |i| {
        std::hint::black_box(
            index
                .get(u128::from(gets.ops[i].key))
                .map_err(e("lsm.get"))?,
        );
        Ok(())
    })?;
    let delta: Vec<f64> = LSM_GET_COUNTERS
        .iter()
        .zip(&before)
        .map(|(c, b)| (counter(rig, c) - b) as f64)
        .collect();
    let n = gets.ops.len() as f64;
    let lsm_get_us = p50_us(lsm_get);
    m.set("lsm.get_us", lsm_get_us);
    m.set("lsm.tables_per_get", delta[0] / n);
    m.set("lsm.block_decodes_per_get", delta[1] / n);
    m.set("lsm.bytes_decoded_per_get", delta[2] / n);
    m.set(
        "lsm.bloom_skip_share",
        delta[3] / (delta[3] + delta[0]).max(1.0),
    );
    let pruned_before = counter(rig, "lsm.scan.tables_pruned");
    let lsm_scan = time_each(scans.ops.len(), |i| {
        let start = u128::from(scans.ops[i].key);
        std::hint::black_box(
            index
                .scan(start, start + u128::from(SCAN_SPAN))
                .map_err(e("lsm.scan"))?,
        );
        Ok(())
    })?;
    m.set("lsm.scan_us", p50_us(lsm_scan));
    m.set(
        "lsm.tables_pruned_per_scan",
        (counter(rig, "lsm.scan.tables_pruned") - pruned_before) as f64 / scans.ops.len() as f64,
    );

    // cache and chunk: every chunk of every probed key, read as a forced
    // miss, then as the hit that miss just installed, then straight from
    // the chunk store (frame decode + CRC + disk read, no cache).
    let (mut hit, mut miss, mut chunk_get) = (Vec::new(), Vec::new(), Vec::new());
    let mut chunks_per_value = 0.0;
    for op in &gets.ops {
        let Some(locators) = index.get(u128::from(op.key)).map_err(e("locators"))? else {
            continue;
        };
        chunks_per_value = locators.len() as f64;
        for locator in &locators {
            cache.invalidate(locator);
            let begun = Instant::now();
            std::hint::black_box(cache.get(locator).map_err(e("cache miss"))?);
            miss.push(begun.elapsed().as_nanos() as u64);
            let begun = Instant::now();
            std::hint::black_box(cache.get(locator).map_err(e("cache hit"))?);
            hit.push(begun.elapsed().as_nanos() as u64);
            let begun = Instant::now();
            std::hint::black_box(cache.chunk_store().get(locator).map_err(e("chunk.get"))?);
            chunk_get.push(begun.elapsed().as_nanos() as u64);
        }
    }
    let (hit_us, miss_us) = (p50_us(hit), p50_us(miss));
    m.set("cache.get_hit_us", hit_us);
    m.set("cache.get_miss_us", miss_us);
    m.set("chunk.get_us", p50_us(chunk_get));

    // store: the API layer's own calls. Self time of a get is what is
    // left after its index lookup and its chunk reads, priced at the
    // hit/miss mix this workload's gets actually see.
    let (hits0, misses0) = (counter(rig, "cache.hits"), counter(rig, "cache.misses"));
    let store_get = time_each(gets.ops.len(), |i| {
        std::hint::black_box(
            store
                .get_value(u128::from(gets.ops[i].key))
                .map_err(e("store.get"))?,
        );
        Ok(())
    })?;
    let (hits, misses) = (
        (counter(rig, "cache.hits") - hits0) as f64,
        (counter(rig, "cache.misses") - misses0) as f64,
    );
    let hit_share = hits / (hits + misses).max(1.0);
    let store_get_us = p50_us(store_get);
    m.set("store.get_us", store_get_us);
    m.set(
        "store.get_self_us",
        store_get_us
            - lsm_get_us
            - chunks_per_value * (hit_share * hit_us + (1.0 - hit_share) * miss_us),
    );
    let store_scan = time_each(scans.ops.len(), |i| {
        let start = u128::from(scans.ops[i].key);
        std::hint::black_box(
            store
                .scan(start, start + u128::from(SCAN_SPAN))
                .map_err(e("store.scan"))?,
        );
        Ok(())
    })?;
    m.set("store.scan_us", p50_us(store_scan));

    // Writes last: they move the store on. lsm.flush_us: an explicit
    // flush of a memtable one short of the automatic threshold.
    let threshold = store.config().flush_threshold;
    let mut flushes = Vec::new();
    let fill = workload::uniform_stream(
        spec,
        rig.seed,
        23,
        5 * threshold,
        OpKind::Put,
        &mut rig.versions,
    );
    let mut fill_ops = fill.ops.iter();
    while flushes.len() < 5 {
        store.flush_index().map_err(e("flush (drain)"))?;
        while index.memtable_len() + 1 < threshold {
            let Some(op) = fill_ops.next() else { break };
            store
                .put(
                    u128::from(op.key),
                    &workload::value(op.key, op.version, spec.value_len),
                )
                .map_err(e("flush fill"))?;
            rig.model.ack(op);
        }
        let begun = Instant::now();
        store.flush_index().map_err(e("lsm.flush"))?;
        flushes.push(begun.elapsed().as_nanos() as u64);
        rig.fence_and_maintain()?;
    }
    m.set("lsm.flush_us", p50_us(flushes));

    // Direct puts, after the flush probe so the memtable is not empty
    // when the crash phase follows. They go through the model so the
    // crash oracle still knows every key's latest version.
    let puts = workload::uniform_stream(
        spec,
        rig.seed,
        22,
        PROBE_WRITES,
        OpKind::Put,
        &mut rig.versions,
    );
    let values: Vec<Vec<u8>> = puts
        .ops
        .iter()
        .map(|op| workload::value(op.key, op.version, spec.value_len))
        .collect();
    let store_put = time_each(puts.ops.len(), |i| {
        store
            .put(u128::from(puts.ops[i].key), &values[i])
            .map_err(e("store.put"))?;
        Ok(())
    })?;
    puts.ops.iter().for_each(|op| rig.model.ack(op));
    m.set("store.put_us", p50_us(store_put));
    rig.fence_and_maintain()?;

    // chunk.put_us: raw chunk appends. Nothing references them, so they
    // are garbage the next reclamation drops.
    let chunks = cache.chunk_store().clone();
    let none = rig.store.scheduler().none();
    let payload = workload::value(0, 1, spec.value_len.min(store.config().max_chunk_size));
    let chunk_put = time_each(PROBE_WRITES, |_| {
        std::hint::black_box(
            chunks
                .put(ChunkStream::Data, &payload, &none)
                .map_err(e("chunk.put"))?,
        );
        Ok(())
    })?;
    m.set("chunk.put_us", p50_us(chunk_put));
    rig.fence_and_maintain()?;

    // vdisk: Disk::write and Disk::flush_extent on a scratch volume of
    // their own, so the facade's cost is seen without the layers above.
    let disk = Disk::create_file(
        dir.join("vdisk-probe.ssvol"),
        Geometry::new(8, 64, 4096),
        false,
        true,
    )
    .map_err(e("scratch volume"))?;
    let extent_size = disk.geometry().extent_size();
    let (mut writes, mut fences) = (Vec::new(), Vec::new());
    for i in 0..DEVICE_SAMPLES {
        let at = (i * 4096) % extent_size;
        let extent = ExtentId(1 + (i * 4096 / extent_size) as u32 % 7);
        let begun = Instant::now();
        disk.write(extent, at, &payload).map_err(e("vdisk.write"))?;
        writes.push(begun.elapsed().as_nanos() as u64);
        let begun = Instant::now();
        disk.flush_extent(extent).map_err(e("vdisk.flush_extent"))?;
        fences.push(begun.elapsed().as_nanos() as u64);
    }
    m.set("vdisk.write_us", p50_us(writes));
    let flush_us = p50_us(fences);
    m.set("vdisk.flush_extent_us", flush_us);
    // The facade writes whole 4 KiB pages, so its floor is a 4 KiB
    // pwrite + fdatasync.
    let page_floor = device_floor(dir, 4096, DEVICE_SAMPLES, rig.seed)?;
    m.set(
        "vdisk.flush_self_us",
        flush_us - p50_us(page_floor.pwrite_fdatasync_ns),
    );
    Ok(())
}

/// Counters read around the `lsm.get_us` probe, in the order
/// [`layer_probes`] indexes them.
const LSM_GET_COUNTERS: [&str; 4] = [
    "lsm.get.tables_consulted",
    "lsm.block_decodes",
    "lsm.bytes_decoded",
    "lsm.bloom_skips",
];
