//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.
//!
//! Untraced (`--trace 0`): setup (repeated, median reported) -> open loop
//! at `rate_mid` -> closed-loop saturation -> crash and recovery. The
//! measured time is split 60 : 40 between the two middle phases.
//!
//! Traced (`--trace 1`): one setup -> the open-loop ladder `rate_lo`,
//! `rate_mid`, `rate_hi` untraced -> `rate_mid` again with the engine in
//! manual mode and every stage a span -> layer probes -> crash. The
//! measured time is split evenly between the four steps.

use std::path::Path;
use std::time::{Duration, Instant};

use shardstore_obs::MetricsSnapshot;
use shardstore_vdisk::DiskStats;

use crate::oracle::CrashReport;
use crate::probes::{self, DeviceFloor, DEVICE_SAMPLES};
use crate::report::{json_string, Metrics, Outcome, Report};
use crate::rig::{self, PhaseOut, Res, Rig, Tracer};
use crate::stats::{
    self, median, p50_us, percentile, self_times, summarize_at, supported_tail, us, Summary,
};
use crate::workload::{self, Spec};

/// Setup is repeated until this share of the measured time went into it
/// (at least [`SETUP_MIN_REPS`] times, at most [`SETUP_MAX_REPS`]); the
/// median is `setup_s`. Cheap setups repeat often, so their median is as
/// steady as an expensive setup's.
const SETUP_TIME_SHARE: f64 = 0.1;
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
/// Reboots after the first crash; `recover_s` is the median of all.
const RECOVERY_REPEATS: usize = 4;
/// Share of an untraced run's measured time spent in the open-loop
/// step; the rest is saturation. The latencies need the samples more:
/// the minority request class is 2 % of some mixes.
const MID_SHARE: f64 = 0.6;
/// Informational latency limits of the ladder, on the tail percentile.
const READ_LIMIT_US: f64 = 1_000.0;
const WRITE_LIMIT_US: f64 = 10_000.0;

/// Stream lanes of one seed (see `Rng::lane`); setup and probes use the
/// lanes below 10 and from 20.
const LANE_LADDER: [u64; 3] = [10, 11, 12];
const LANE_SATURATION: u64 = 13;
const LANE_TRACED: u64 = 14;

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

/// Share of a workload's requests that are writes.
fn write_share(spec: &Spec) -> f64 {
    spec.mix
        .iter()
        .filter(|(k, _)| k.is_write())
        .map(|(_, w)| f64::from(*w))
        .sum::<f64>()
        / 100.0
}

/// Read and write summaries of an open-loop step, their tails fixed by
/// the sample counts the step's rate and length promise.
fn summarize_step(spec: &Spec, rate: f64, seconds: f64, out: &mut PhaseOut) -> (Summary, Summary) {
    let expected = rate * seconds;
    let writes = write_share(spec);
    let read_tail = supported_tail((expected * (1.0 - writes)) as usize);
    let write_tail = supported_tail((expected * writes) as usize);
    (
        summarize_at(&mut out.read_ns, read_tail),
        summarize_at(&mut out.write_ns, write_tail),
    )
}

fn open_step(
    rig: &mut Rig,
    lane: u64,
    rate: f64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Res<(PhaseOut, workload::Stream)> {
    let count = (rate * seconds).ceil() as usize;
    let spec = rig.spec;
    let stream =
        workload::phase_stream(&spec, rig.seed, lane, count, Some(rate), &mut rig.versions);
    let out = rig.run_phase(&stream, true, secs(seconds), tracer)?;
    Ok((out, stream))
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"samples\": {}, \"p50_us\": {}, \"tail_pct\": {}, \"tail_us\": {}}}",
        s.samples,
        us(s.p50),
        s.tail_pct,
        us(s.tail)
    )
}

fn step_json(rate: f64, out: &PhaseOut, read: &Summary, write: &Summary, lag: &Summary) -> String {
    format!(
        "{{\"rate\": {rate}, \"sustained\": {}, \"completed\": {}, \"achieved_ops_per_s\": {}, \"read\": {}, \"write\": {}, \"lag\": {}}}",
        out.sustained,
        out.completed,
        out.ops_per_s(),
        summary_json(read),
        summary_json(write),
        summary_json(lag)
    )
}

/// Settles the host (see [`crate::steady`]) and records the host facts
/// every report carries.
fn host_facts(
    report: &mut Report,
    m: &mut Metrics,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    dir: &Path,
) {
    let settled = crate::steady::settle();
    m.set("driver.host_wake_us", settled.wake_us);
    report.num("host_wake_us_at_start", settled.wake_us_at_start);
    report.num("host_wake_us", settled.wake_us);
    report.num("host_settle_burn_s", settled.burned.as_secs_f64());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // The mount with the longest prefix of the volume directory.
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let filesystem = std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split(' ');
                    let (point, kind) = (f.nth(1)?, f.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), kind.to_string()))
                })
                .max()
                .map(|(_, kind)| kind)
        })
        .unwrap_or_else(|| "unknown".into());
    report.text("workload", spec.name);
    report.text("why", spec.why);
    report.text("commit", &commit);
    report.num("seed", seed as f64);
    report.num("seconds", seconds);
    report.num(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    report.text("filesystem", &filesystem);
    report.raw("rates", format!("{:?}", spec.rates));
    report.text(
        "durability_contract",
        "fenced: a write is complete when the Node::pump_all() issued right after its ack returns",
    );
}

fn crash_json(times: &[Duration], crash: &CrashReport) -> String {
    format!(
        "{{\"recover_s\": {:?}, \"keys_checked\": {}, \"unflushed_at_crash\": {}, \"rolled_back\": {}, \"errors\": [{}]}}",
        times.iter().map(Duration::as_secs_f64).collect::<Vec<_>>(),
        crash.keys_checked,
        crash.unflushed,
        crash.rolled_back,
        crash.errors.iter().take(5).map(|e| json_string(e)).collect::<Vec<_>>().join(", ")
    )
}

/// Closes a run: crash phase, oracle verdict, tallies.
fn finish(rig: Rig, mut m: Metrics, mut report: Report) -> Res<(Outcome, Report)> {
    let tally = rig.tally.clone();
    let (times, crash, scan_ms) = rig.crash(RECOVERY_REPEATS)?;
    let recover: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    m.set("recover_s", median(&recover));
    m.set(
        "vdisk.recovery_scan_ms",
        scan_ms as f64 / recover.len() as f64,
    );
    m.set("lsm.unflushed_at_crash", crash.unflushed as f64);
    m.set("lsm.rolled_back_at_crash", crash.rolled_back as f64);
    report.raw("crash", crash_json(&times, &crash));
    report.num("attempted", tally.attempted as f64);
    report.num("failed", tally.failed as f64);
    report.num("refused", tally.refused as f64);
    report.raw(
        "first_errors",
        format!(
            "[{}]",
            tally
                .errors
                .iter()
                .map(|e| json_string(e))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    report.num("host_wake_us_at_end", crate::steady::cross_core_wake_us());
    // The issue that defines this benchmark claims no gain.
    report.raw("claim", "null".into());
    let failed = tally.failed + tally.refused + crash.errors.len() as u64;
    Ok((
        Outcome {
            correct: failed == 0,
            attempted: tally.attempted,
            failed,
            metrics: m,
        },
        report,
    ))
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Res<(Outcome, Report)> {
    let dir = rig::volume_dir(out_dir)?;
    let mut m = Metrics::default();
    let mut report = Report::default();
    host_facts(&mut report, &mut m, spec, seed, seconds, &dir);

    // Phase (1), repeated; the last rig is the one measured.
    let mut setups = Vec::new();
    let begun = Instant::now();
    let mut rig = loop {
        let (rig, took) = Rig::setup(spec, seed, &dir)?;
        setups.push(took.as_secs_f64());
        let enough =
            setups.len() >= SETUP_MIN_REPS && begun.elapsed() >= secs(seconds * SETUP_TIME_SHARE);
        if enough || setups.len() >= SETUP_MAX_REPS {
            break rig;
        }
        rig.shutdown();
    };
    m.set("setup_s", median(&setups));
    report.raw("setup_s_samples", format!("{setups:?}"));

    let io_before = rig.store.scheduler().disk().stats();

    // Phase (2): open loop at rate_mid.
    let rate = spec.rates[1];
    let mid_s = seconds * MID_SHARE;
    let space_mark = (rig.maint.used_sum, rig.maint.used_samples);
    let (mut mid, _) = open_step(&mut rig, LANE_LADDER[1], rate, mid_s, None)?;
    // Space is read off this step alone: its request count is fixed, so
    // the store's speed does not decide how much garbage there is to
    // hold, and averaged over the step, so the point of the reclamation
    // cycle at which the step happens to end does not decide it either
    // (used extents swing between 3/4 and 7/8 of the volume).
    m.set(
        "space_amp",
        rig.mean_space_used(space_mark) / rig.model.live_user_bytes() as f64,
    );
    let (read, write) = summarize_step(spec, rate, mid_s, &mut mid);
    let lag = stats::summarize(&mut mid.lag_ns);
    m.set("read_p50_us", us(read.p50));
    m.set("write_p50_us", us(write.p50));
    report.raw("rate_mid", step_json(rate, &mid, &read, &write, &lag));

    // Phase (3): closed loop, one client.
    let sat_s = seconds - mid_s;
    let cap = (spec.sat_cap * sat_s).ceil() as usize;
    let stream = workload::phase_stream(spec, seed, LANE_SATURATION, cap, None, &mut rig.versions);
    let mut sat = rig.run_phase(&stream, false, secs(sat_s), None)?;
    m.set("sat_ops_per_s", sat.ops_per_s());
    let (sat_read, sat_write) = (
        stats::summarize(&mut sat.read_ns),
        stats::summarize(&mut sat.write_ns),
    );
    report.raw(
        "saturation",
        format!(
            "{{\"completed\": {}, \"ops_per_s\": {}, \"stream_exhausted\": {}, \"read\": {}, \"write\": {}}}",
            sat.completed,
            sat.ops_per_s(),
            sat.completed as usize == stream.ops.len(),
            summary_json(&sat_read),
            summary_json(&sat_write)
        ),
    );

    let io = rig.store.scheduler().disk().stats();
    let user_bytes = mid.user_bytes + sat.user_bytes;
    m.set(
        "write_amp",
        (io.bytes_written - io_before.bytes_written) as f64 / user_bytes as f64,
    );
    report.num("reclaims", rig.maint.reclaims as f64);
    report.num(
        "free_extents_min",
        rig.maint.free_min.map_or(f64::NAN, f64::from),
    );
    finish(rig, m, report)
}

/// One open-loop step of the ladder, summarised.
struct Step {
    rate: f64,
    out: PhaseOut,
    read: Summary,
    write: Summary,
    lag: Summary,
}

/// Counter values a per-layer ratio is a delta of.
struct Counts {
    obs: MetricsSnapshot,
    disk: DiskStats,
}

impl Counts {
    fn take(rig: &Rig) -> Self {
        Counts {
            obs: rig.store.obs().snapshot(),
            disk: rig.store.scheduler().disk().stats(),
        }
    }

    fn since(&self, earlier: &Counts, name: &str) -> f64 {
        (self.obs.counter(name) - earlier.obs.counter(name)) as f64
    }
}

/// Mean duration in microseconds of the spans called `name`, per `per`.
fn span_us_per(spans: &[stats::Span], name: &str, per: usize) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    us(total) / per.max(1) as f64
}

fn span_p50_us(spans: &[stats::Span], name: &str) -> f64 {
    p50_us(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect(),
    )
}

/// Writes the spans as `trace-<workload>.json`: one array of
/// {name, start_ns, end_ns, parent, req}.
fn write_trace(out_dir: &Path, spec: &Spec, spans: &[stats::Span]) -> Res<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    text.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}{}\n",
            json_string(s.name),
            s.start_ns,
            s.end_ns,
            s.req,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    text.push_str("]\n");
    let path = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Of the traced write requests, the median share of the `request` span
/// that the self times of its whole tree add up to. 1 by construction
/// when every child lies inside its parent; reported so a broken span
/// tree shows.
fn span_self_sum_share(spans: &[stats::Span]) -> f64 {
    let selfs = self_times(spans);
    // Root of every span, by walking parents (parents precede children).
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = s.parent.map_or(i, |p| root[p as usize]);
    }
    let mut sums = vec![0u64; spans.len()];
    let mut fenced = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        sums[root[i]] += selfs[i];
        fenced[root[i]] |= s.name == "fence";
    }
    let shares: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == "request" && fenced[*i] && s.end_ns > s.start_ns)
        .map(|(i, s)| sums[i] as f64 / (s.end_ns - s.start_ns) as f64)
        .collect();
    if shares.is_empty() {
        1.0
    } else {
        median(&shares)
    }
}

/// The traced run: every per-layer metric.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Res<(Outcome, Report)> {
    let dir = rig::volume_dir(out_dir)?;
    let mut m = Metrics::default();
    let mut report = Report::default();
    host_facts(&mut report, &mut m, spec, seed, seconds, &dir);
    let (mut rig, _) = Rig::setup(spec, seed, &dir)?;
    let step_s = seconds / 4.0;

    // The open-loop ladder, untraced; counters are deltas over all of it.
    let before = Counts::take(&rig);
    let mut steps: Vec<Step> = Vec::new();
    let mut mixed = None;
    for (i, (&rate, &lane)) in spec.rates.iter().zip(&LANE_LADDER).enumerate() {
        let (mut out, stream) = open_step(&mut rig, lane, rate, step_s, None)?;
        let (read, write) = summarize_step(spec, rate, step_s, &mut out);
        let lag = stats::summarize(&mut out.lag_ns);
        report.raw(
            ["rate_lo", "rate_mid", "rate_hi"][i],
            step_json(rate, &out, &read, &write, &lag),
        );
        steps.push(Step {
            rate,
            out,
            read,
            write,
            lag,
        });
        if i == 1 {
            mixed = Some(stream);
        }
    }
    let after = Counts::take(&rig);
    let mixed = mixed.expect("the ladder has a middle step");
    let over_ladder = |f: fn(&Step) -> u64| steps.iter().map(f).sum::<u64>().max(1) as f64;
    let ops = over_ladder(|s| s.out.completed);
    let writes = over_ladder(|s| s.write.samples as u64);
    let d = |name: &str| after.since(&before, name);
    let disk = |f: fn(&DiskStats) -> u64| (f(&after.disk) - f(&before.disk)) as f64;

    m.set("wire.bytes_per_op", over_ladder(|s| s.out.wire_bytes) / ops);
    m.set("engine.overloaded", d("rpc.overloaded"));
    m.set("engine.batches", d("rpc.batches"));
    m.set("lsm.flushes", d("lsm.flushes"));
    m.set("lsm.compactions", d("lsm.compactions"));
    m.set(
        "lsm.compaction_bytes_out_per_user_byte",
        d("lsm.compaction.bytes_out") / over_ladder(|s| s.out.user_bytes),
    );
    m.set(
        "cache.hit_share",
        d("cache.hits") / (d("cache.hits") + d("cache.misses")).max(1.0),
    );
    m.set("cache.evictions_per_op", d("cache.evictions") / ops);
    m.set("chunk.relocations", d("chunk.relocations"));
    m.set("superblock.extent_allocations", d("extent.allocations"));
    m.set("superblock.extent_resets", d("extent.resets"));
    m.set(
        "dependency.ios_per_write_op",
        d("sched.ios_issued") / writes,
    );
    m.set(
        "dependency.coalesced_share",
        d("sched.writes_coalesced") / d("sched.writes_submitted").max(1.0),
    );
    m.set("vdisk.fsyncs_per_write_op", disk(|s| s.fsyncs) / writes);
    m.set("vdisk.writes_per_write_op", disk(|s| s.writes) / writes);
    m.set(
        "vdisk.bytes_written_per_write_op",
        disk(|s| s.bytes_written) / writes,
    );
    m.set(
        "vdisk.bytes_synced_per_write_op",
        disk(|s| s.bytes_synced) / writes,
    );

    // The rest of the ladder, and the informational latency limits.
    let Step {
        out: mid,
        read: mid_read,
        write: mid_write,
        lag: mid_lag,
        ..
    } = &steps[1];
    let mid_write_p50_us = us(mid_write.p50);
    m.set("driver.read_samples", mid_read.samples as f64);
    m.set("driver.write_samples", mid_write.samples as f64);
    m.set("driver.read_p99_us", us(mid_read.tail));
    m.set("driver.write_p99_us", us(mid_write.tail));
    m.set("driver.lag_p99_us", us(mid_lag.tail));
    let (lo, hi) = (&steps[0], &steps[2]);
    m.set("driver.rate_lo.lag_p99_us", us(lo.lag.tail));
    m.set("driver.rate_lo.read_p99_us", us(lo.read.tail));
    m.set("driver.rate_lo.write_p99_us", us(lo.write.tail));
    m.set("driver.rate_hi.lag_p99_us", us(hi.lag.tail));
    m.set("driver.rate_hi.read_p99_us", us(hi.read.tail));
    m.set("driver.rate_hi.write_p99_us", us(hi.write.tail));
    let in_slo = |s: &&Step| {
        s.out.sustained && us(s.read.tail) <= READ_LIMIT_US && us(s.write.tail) <= WRITE_LIMIT_US
    };
    m.set(
        "driver.max_rate_in_slo",
        steps
            .iter()
            .filter(in_slo)
            .map(|s| s.rate)
            .fold(0.0, f64::max),
    );
    let late = mid
        .read_ns
        .iter()
        .filter(|ns| us(**ns) > READ_LIMIT_US)
        .count()
        + mid
            .write_ns
            .iter()
            .filter(|ns| us(**ns) > WRITE_LIMIT_US)
            .count();
    m.set(
        "driver.slo_miss_share",
        late as f64 / mid.completed.max(1) as f64,
    );
    // A write stalled if it took over three times the median write: an
    // LSM flush or compaction (or reclamation's aftermath) rode on it.
    let mut service = mid.write_service_ns.clone();
    service.sort_unstable();
    let stalled = service.first().map_or(0.0, |_| {
        let limit = 3 * percentile(&service, 50.0);
        service.iter().filter(|ns| **ns > limit).count() as f64 / service.len() as f64
    });
    m.set("lsm.stall_share", stalled);
    let untraced_service_ns = (mid.read_ns.iter().sum::<u64>() + mid.write_ns.iter().sum::<u64>())
        as f64
        / mid.completed.max(1) as f64;

    // rate_mid again, traced.
    let fences_before = rig
        .store
        .obs()
        .registry()
        .counter("sched.extents_fenced")
        .get();
    let mut tracer = rig.tracer();
    let (mut traced, _) = open_step(
        &mut rig,
        LANE_TRACED,
        spec.rates[1],
        step_s,
        Some(&mut tracer),
    )?;
    let fences = tracer.fence_rounds.len().max(1);
    let extents_fenced = rig
        .store
        .obs()
        .registry()
        .counter("sched.extents_fenced")
        .get()
        - fences_before;
    let (t_read, t_write) = summarize_step(spec, spec.rates[1], step_s, &mut traced);
    let t_lag = stats::summarize(&mut traced.lag_ns);
    report.raw(
        "rate_mid_traced",
        step_json(spec.rates[1], &traced, &t_read, &t_write, &t_lag),
    );
    let spans = &tracer.spans;
    m.set("engine.admit_us", span_p50_us(spans, "engine.admit"));
    m.set("engine.exec_us", span_p50_us(spans, "engine.exec"));
    m.set(
        "engine.queue_depth_max",
        tracer.engine_queue_depth_max as f64,
    );
    m.set(
        "dependency.rounds_per_fence",
        tracer.fence_rounds.iter().sum::<u32>() as f64 / fences as f64,
    );
    m.set(
        "dependency.issue_us_per_fence",
        span_us_per(spans, "dependency.issue", fences),
    );
    m.set(
        "dependency.flush_us_per_fence",
        span_us_per(spans, "dependency.flush", fences),
    );
    m.set(
        "dependency.extents_fenced_per_fence",
        extents_fenced as f64 / fences as f64,
    );
    m.set(
        "dependency.queue_depth_max",
        tracer.sched_queue_depth_max as f64,
    );
    let (t_reads, t_writes) = (t_read.samples.max(1) as f64, t_write.samples.max(1) as f64);
    m.set(
        "vdisk.reads_per_read_op",
        tracer.disk_reads_by_reads.0 as f64 / t_reads,
    );
    m.set(
        "vdisk.bytes_read_per_read_op",
        tracer.disk_reads_by_reads.1 as f64 / t_reads,
    );
    m.set(
        "vdisk.bytes_read_per_write_op",
        tracer.disk_reads_by_writes.1 as f64 / t_writes,
    );
    m.set("driver.span_self_sum_share", span_self_sum_share(spans));
    // Tracing cost, as the relative change in time per request against
    // the untraced rate_mid step. The traced path has no worker thread,
    // so it can come out negative: the hand-off costs more than the spans.
    let traced_service_ns = (traced.read_ns.iter().sum::<u64>()
        + traced.write_ns.iter().sum::<u64>()) as f64
        / traced.completed.max(1) as f64;
    m.set(
        "driver.trace_overhead_share",
        traced_service_ns / untraced_service_ns - 1.0,
    );
    report.raw("span_self_us_per_request", {
        let selfs = self_times(spans);
        let mut by_name: Vec<(&str, u64)> = Vec::new();
        for (s, t) in spans.iter().zip(&selfs) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some(entry) => entry.1 += t,
                None => by_name.push((s.name, *t)),
            }
        }
        let per = traced.completed.max(1) as f64;
        let fields: Vec<String> = by_name
            .iter()
            .map(|(n, t)| format!("{}: {}", json_string(n), us(*t) / per))
            .collect();
        format!("{{{}}}", fields.join(", "))
    });
    write_trace(out_dir, spec, spans)?;
    drop(tracer);

    probes::layer_probes(&mut rig, &mixed, &dir, &mut m)?;
    let DeviceFloor {
        pwrite_fdatasync_ns,
        fdatasync_ns,
        pread_ns,
    } = probes::device_floor(
        &dir,
        probes::write_request_bytes(spec),
        DEVICE_SAMPLES,
        seed,
    )?;
    for (name, samples) in [
        ("device.pwrite_fdatasync_p50_us", pwrite_fdatasync_ns),
        ("device.fdatasync_p50_us", fdatasync_ns),
        ("device.pread_p50_us", pread_ns),
    ] {
        m.set(name, p50_us(samples));
    }
    // ROADMAP's "gap to the device": the fenced write against a raw
    // pwrite + fdatasync of the same user bytes in the same directory.
    let floor_us = m.get("device.pwrite_fdatasync_p50_us").expect("set above");
    m.set("device.write_gap", mid_write_p50_us / floor_us);

    // Maintenance over the whole run (ladder, traced step and probes).
    let mut stalls = rig.maint.stalls_ns.clone();
    m.set("chunk.reclaims", rig.maint.reclaims as f64);
    m.set("chunk.reclaim_us_total", us(stalls.iter().sum()));
    m.set(
        "chunk.reclaim_stall_p99_us",
        us(stats::summarize(&mut stalls).tail),
    );
    let (total, free) = rig.extents();
    m.set(
        "superblock.free_extents_min",
        f64::from(rig.maint.free_min.unwrap_or(free).min(free)),
    );
    report.num("extents_total", f64::from(total));
    finish(rig, m, report)
}
