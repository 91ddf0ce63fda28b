//! The four workloads: their fixed shape, their value function, and the
//! seeded generator that materialises an op stream as wire frames before
//! any clock starts.

use shardstore_core::rpc::Request;
use shardstore_vdisk::Geometry;

use crate::rng::{mix64, Rng};

/// What one generated request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Put,
    Delete,
    Get,
    /// `Scan{start: key, end: key + SCAN_SPAN, limit: SCAN_LIMIT}`.
    Scan,
    /// `BulkCreate` of `BULK_KEYS` consecutive keys starting at `key`.
    BulkCreate,
}

impl OpKind {
    /// Writes are timed to the fence; reads to the verified reply.
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Put | OpKind::Delete | OpKind::BulkCreate)
    }
}

pub const SCAN_SPAN: u32 = 64;
pub const SCAN_LIMIT: u32 = 64;
pub const BULK_KEYS: u32 = 16;

/// Which volume a workload formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volume {
    /// `Geometry::default()`: 256 x 64 x 4 KiB = 64 MiB, sparse.
    Default,
    /// 1024 x 64 x 4 KiB = 256 MiB, sparse, for the 32 Ki-key data sets.
    Large,
}

impl Volume {
    pub fn geometry(self) -> Geometry {
        match self {
            Volume::Default => Geometry::default(),
            Volume::Large => Geometry::new(1024, 64, 4096),
        }
    }
}

/// The fixed shape of one workload. Rates are absolute and frozen: they
/// were read off the seed commit's closed-loop saturation on the
/// reference container (two digits, about 20 / 40 / 80 % of it; lower on
/// `put_fenced`, whose requests take half as long again open loop as
/// they do back to back), so that a later, faster program is seen as
/// lower latency at the same offered load, not as a moved goalpost.
/// `rate_mid` keeps the single in-flight slot busy about a third of the
/// time and not half: at half, every second request finds it busy, so
/// the median latency sits on the edge between "waited" and "did not"
/// and swings by a third from run to run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub volume: Volume,
    pub keys: u32,
    pub value_len: usize,
    /// How many times the preload writes every key. More than once ages
    /// the volume, so the measured phases start with reclamation already
    /// cycling instead of on a freshly formatted disk.
    pub preload_passes: u32,
    /// (kind, weight in percent), summing to 100.
    pub mix: &'static [(OpKind, u32)],
    /// Offered load of the three open-loop steps, requests per second.
    pub rates: [f64; 3],
    /// Upper bound on closed-loop throughput, used only to size the
    /// pre-generated saturation stream.
    pub sat_cap: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "put_fenced",
        why: "write path: chunk append, superblock pointer, dependency rounds, fdatasync, LSM flush, compaction, reclamation",
        volume: Volume::Default,
        keys: 8 * 1024,
        value_len: 1024,
        preload_passes: 5,
        mix: &[(OpKind::Put, 80), (OpKind::Delete, 10), (OpKind::Get, 10)],
        rates: [350.0, 700.0, 1800.0],
        sat_cap: 5000.0,
    },
    Spec {
        name: "get_cold",
        why: "read path below the cache: 32 MiB of values against a 1 MiB chunk cache and 8 decoded tables",
        volume: Volume::Large,
        keys: 32 * 1024,
        value_len: 1024,
        preload_passes: 1,
        mix: &[(OpKind::Get, 98), (OpKind::Put, 2)],
        rates: [1800.0, 3500.0, 7000.0],
        sat_cap: 30000.0,
    },
    Spec {
        name: "get_hot",
        why: "read path above the cache: 48 keys x 16 KiB fit the cache, so wire codec, hand-off and ValueBuf assembly dominate",
        volume: Volume::Default,
        keys: 48,
        value_len: 16 * 1024,
        preload_passes: 1,
        mix: &[(OpKind::Get, 98), (OpKind::Put, 2)],
        rates: [3000.0, 6000.0, 12000.0],
        sat_cap: 60000.0,
    },
    Spec {
        name: "scan_bulk",
        why: "ordered reads beside group commit: paged 64-key scans and 16-key BulkCreate batches, one fence per batch",
        volume: Volume::Large,
        keys: 32 * 1024,
        value_len: 256,
        preload_passes: 1,
        mix: &[(OpKind::Scan, 90), (OpKind::BulkCreate, 10)],
        rates: [300.0, 600.0, 1200.0],
        sat_cap: 3000.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Values: a pure function of (key, version), so replies are checked
// without storing copies.
// ---------------------------------------------------------------------------

/// Bytes of self-description at the head of every value.
pub const VALUE_HEADER: usize = 16;
const VALUE_MAGIC: u32 = 0x5653_4253; // "SBSV"

fn body_seed(key: u32, version: u32) -> u64 {
    mix64((u64::from(key) << 32) | u64::from(version))
}

/// Fills `out` with the value of (`key`, `version`): a header naming
/// both and the length, then xorshift bytes seeded by them.
pub fn fill_value(key: u32, version: u32, out: &mut [u8]) {
    assert!(
        out.len() >= VALUE_HEADER,
        "values carry a {VALUE_HEADER}-byte header"
    );
    out[0..4].copy_from_slice(&VALUE_MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&key.to_le_bytes());
    out[8..12].copy_from_slice(&version.to_le_bytes());
    let len = out.len() as u32;
    out[12..16].copy_from_slice(&len.to_le_bytes());
    let mut x = body_seed(key, version) | 1;
    for word in out[VALUE_HEADER..].chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        word.copy_from_slice(&x.to_le_bytes()[..word.len()]);
    }
}

pub fn value(key: u32, version: u32, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_value(key, version, &mut v);
    v
}

/// Checks that `bytes` is exactly the value of (`key`, some version) and
/// returns that version. `scratch` is reused to regenerate the body.
pub fn check_value(key: u32, bytes: &[u8], scratch: &mut Vec<u8>) -> Result<u32, String> {
    if bytes.len() < VALUE_HEADER {
        return Err(format!(
            "key {key}: value of {} bytes has no header",
            bytes.len()
        ));
    }
    let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
    if word(0) != VALUE_MAGIC || word(4) != key || word(12) as usize != bytes.len() {
        return Err(format!(
            "key {key}: header names magic {:#x} key {} len {} on {} bytes",
            word(0),
            word(4),
            word(12),
            bytes.len()
        ));
    }
    let version = word(8);
    scratch.resize(bytes.len(), 0);
    fill_value(key, version, scratch);
    if scratch.as_slice() != bytes {
        return Err(format!("key {key} version {version}: body bytes differ"));
    }
    Ok(version)
}

// ---------------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------------

/// One generated request. For writes `version` is the version it stores
/// (every key of a `BulkCreate` gets the same one); reads leave it 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u32,
    pub version: u32,
    /// Nanoseconds after the phase starts at which the request is due
    /// (0 in closed-loop phases).
    pub due_ns: u64,
    frame_at: usize,
    frame_len: u32,
}

/// A materialised phase: every request already encoded as a wire frame,
/// so the measured program receives nothing but generated bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stream {
    pub ops: Vec<Op>,
    arena: Vec<u8>,
}

impl Stream {
    pub fn frame(&self, op: &Op) -> &[u8] {
        &self.arena[op.frame_at..op.frame_at + op.frame_len as usize]
    }

    fn push(&mut self, kind: OpKind, key: u32, version: u32, due_ns: u64, request: &Request) {
        let frame = request.encode();
        self.ops.push(Op {
            kind,
            key,
            version,
            due_ns,
            frame_at: self.arena.len(),
            frame_len: frame.len() as u32,
        });
        self.arena.extend_from_slice(&frame);
    }
}

/// Hands out write versions: strictly increasing per key across every
/// stream of a run, so a value names exactly one write.
#[derive(Debug, Clone)]
pub struct Versions(Vec<u32>);

impl Versions {
    pub fn new(keys: u32) -> Self {
        Versions(vec![0; keys as usize])
    }

    fn next(&mut self, key: u32) -> u32 {
        self.0[key as usize] += 1;
        self.0[key as usize]
    }

    /// The version a request of `kind` at `key` writes: the next one of
    /// the key, or for a batch one version above every member's last.
    /// Reads write none (0).
    fn write_version(&mut self, kind: OpKind, key: u32) -> u32 {
        match kind {
            OpKind::Put => self.next(key),
            OpKind::BulkCreate => {
                let members = key as usize..(key + BULK_KEYS) as usize;
                let v = self.0[members.clone()]
                    .iter()
                    .max()
                    .expect("batch is not empty")
                    + 1;
                self.0[members].fill(v);
                v
            }
            OpKind::Delete | OpKind::Get | OpKind::Scan => 0,
        }
    }
}

fn request_for(spec: &Spec, kind: OpKind, key: u32, version: u32) -> Request {
    let shard = u128::from(key);
    match kind {
        OpKind::Put => Request::Put {
            shard,
            data: value(key, version, spec.value_len),
        },
        OpKind::Delete => Request::Delete { shard },
        OpKind::Get => Request::Get { shard },
        OpKind::Scan => Request::Scan {
            start: shard,
            end: shard + u128::from(SCAN_SPAN),
            limit: SCAN_LIMIT,
            continuation: None,
        },
        OpKind::BulkCreate => Request::BulkCreate {
            shards: (key..key + BULK_KEYS)
                .map(|k| (u128::from(k), value(k, version, spec.value_len)))
                .collect(),
        },
    }
}

/// The preload: every key written `preload_passes` times, as
/// `BulkCreate` batches of [`BULK_KEYS`] consecutive keys (the wire's
/// cheapest way to load a store), each pass visiting the batches in a
/// fresh seeded random order so the LSM tables it leaves behind overlap
/// the way an aged store's do.
pub fn preload_stream(spec: &Spec, seed: u64, versions: &mut Versions) -> Stream {
    assert_eq!(spec.keys % BULK_KEYS, 0, "the preload writes whole batches");
    let mut rng = Rng::lane(seed, 1);
    let mut order: Vec<u32> = (0..spec.keys).step_by(BULK_KEYS as usize).collect();
    let mut stream = Stream::default();
    for _ in 0..spec.preload_passes {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u32 + 1) as usize);
        }
        for &key in &order {
            let version = versions.write_version(OpKind::BulkCreate, key);
            stream.push(
                OpKind::BulkCreate,
                key,
                version,
                0,
                &request_for(spec, OpKind::BulkCreate, key, version),
            );
        }
    }
    stream
}

/// `count` requests of one `kind` on uniformly random keys: the warm-up
/// reads of the setup phase and the replay streams of the layer probes.
/// Writes get fresh versions.
pub fn uniform_stream(
    spec: &Spec,
    seed: u64,
    lane: u64,
    count: usize,
    kind: OpKind,
    versions: &mut Versions,
) -> Stream {
    let mut rng = Rng::lane(seed, lane);
    let mut stream = Stream::default();
    for _ in 0..count {
        let key = pick_key(spec, kind, &mut rng);
        let version = versions.write_version(kind, key);
        stream.push(
            kind,
            key,
            version,
            0,
            &request_for(spec, kind, key, version),
        );
    }
    stream
}

impl Spec {
    /// The workload's own read request.
    pub fn read_kind(&self) -> OpKind {
        if self.mix.iter().any(|(k, _)| *k == OpKind::Scan) {
            OpKind::Scan
        } else {
            OpKind::Get
        }
    }
}

fn pick_key(spec: &Spec, kind: OpKind, rng: &mut Rng) -> u32 {
    match kind {
        // Ranges and batches stay inside the preloaded key space, so a
        // batch never creates a new key and a scan page is full (a key
        // space smaller than a page is scanned whole).
        OpKind::Scan => rng.below(spec.keys.saturating_sub(SCAN_SPAN).max(1)),
        OpKind::BulkCreate => rng.below(spec.keys - BULK_KEYS + 1),
        _ => rng.below(spec.keys),
    }
}

/// One measured phase of `count` requests in the workload's mix. With
/// `rate` the requests carry Poisson due times at that many per second;
/// without, they are a closed-loop stream (due 0). `lane` separates the
/// phases of one seed.
pub fn phase_stream(
    spec: &Spec,
    seed: u64,
    lane: u64,
    count: usize,
    rate: Option<f64>,
    versions: &mut Versions,
) -> Stream {
    let mut ops_rng = Rng::lane(seed, lane);
    let mut due_rng = Rng::lane(seed, lane ^ 0x8000_0000);
    let mut stream = Stream::default();
    let mut due_ns = 0u64;
    for _ in 0..count {
        let mut roll = ops_rng.below(100);
        let kind = spec
            .mix
            .iter()
            .find(|(_, weight)| {
                let hit = roll < *weight;
                roll = roll.saturating_sub(*weight);
                hit
            })
            .expect("mix weights sum to 100")
            .0;
        let key = pick_key(spec, kind, &mut ops_rng);
        let version = versions.write_version(kind, key);
        if let Some(rate) = rate {
            due_ns += due_rng.exp_ns(rate);
        }
        stream.push(
            kind,
            key,
            version,
            due_ns,
            &request_for(spec, kind, key, version),
        );
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_100_and_names_are_unique() {
        for s in &SPECS {
            assert_eq!(s.mix.iter().map(|(_, w)| w).sum::<u32>(), 100, "{}", s.name);
            assert!(s.rates[0] < s.rates[1] && s.rates[1] < s.rates[2] && s.rates[2] < s.sat_cap);
            assert!(s.keys >= BULK_KEYS && s.keys % BULK_KEYS == 0 && s.value_len >= VALUE_HEADER);
            assert_eq!(SPECS.iter().filter(|o| o.name == s.name).count(), 1);
        }
    }

    #[test]
    fn one_seed_gives_byte_identical_streams_and_two_seeds_differ() {
        for s in &SPECS {
            let gen = |seed| {
                let mut versions = Versions::new(s.keys);
                let pre = if s.keys <= 1024 {
                    preload_stream(s, seed, &mut versions)
                } else {
                    Stream::default()
                };
                let open = phase_stream(s, seed, 10, 300, Some(s.rates[1]), &mut versions);
                let closed = phase_stream(s, seed, 11, 300, None, &mut versions);
                let reads = uniform_stream(s, seed, 12, 50, s.read_kind(), &mut versions);
                (pre, open, closed, reads)
            };
            assert_eq!(gen(42), gen(42), "{}", s.name);
            let (a, b) = (gen(42), gen(43));
            assert_ne!(a.1.ops, b.1.ops, "{}", s.name);
            assert_ne!(a.1.arena, b.1.arena, "{}", s.name);
            assert_ne!(a.3, b.3, "{}", s.name);
        }
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_closed_loop_has_none() {
        let s = spec("get_hot").unwrap();
        let mut versions = Versions::new(s.keys);
        let open = phase_stream(s, 5, 10, 20_000, Some(10_000.0), &mut versions);
        let span_s = open.ops.last().unwrap().due_ns as f64 / 1e9;
        assert!(
            (1.9..2.1).contains(&span_s),
            "20k requests at 10k/s took {span_s} s"
        );
        assert!(open.ops.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let closed = phase_stream(s, 5, 11, 100, None, &mut versions);
        assert!(closed.ops.iter().all(|op| op.due_ns == 0));
    }

    #[test]
    fn mix_follows_the_weights_and_frames_decode_back() {
        let s = spec("put_fenced").unwrap();
        let mut versions = Versions::new(s.keys);
        let stream = phase_stream(s, 9, 10, 10_000, None, &mut versions);
        let share = |k| stream.ops.iter().filter(|op| op.kind == k).count() as f64 / 10_000.0;
        assert!((0.78..0.82).contains(&share(OpKind::Put)));
        assert!((0.08..0.12).contains(&share(OpKind::Delete)));
        assert!((0.08..0.12).contains(&share(OpKind::Get)));
        for op in stream.ops.iter().take(200) {
            let req = Request::decode(stream.frame(op)).expect("generated frames decode");
            assert_eq!(req, request_for(s, op.kind, op.key, op.version));
        }
    }

    #[test]
    fn versions_increase_per_key_and_values_name_their_write() {
        let s = spec("scan_bulk").unwrap();
        let mut versions = Versions::new(s.keys);
        let stream = phase_stream(s, 3, 10, 2_000, None, &mut versions);
        let mut last = vec![0u32; s.keys as usize];
        for op in stream.ops.iter().filter(|op| op.kind == OpKind::BulkCreate) {
            for k in op.key..op.key + BULK_KEYS {
                assert!(op.version > last[k as usize]);
                last[k as usize] = op.version;
            }
        }
        let mut scratch = Vec::new();
        let v = value(77, 5, 256);
        assert_eq!(check_value(77, &v, &mut scratch), Ok(5));
        assert!(
            check_value(78, &v, &mut scratch).is_err(),
            "another key's value"
        );
        let mut torn = v.clone();
        torn[200] ^= 1;
        assert!(
            check_value(77, &torn, &mut scratch).is_err(),
            "a flipped body bit"
        );
        assert!(
            check_value(77, &v[..100], &mut scratch).is_err(),
            "a short value"
        );
        assert_ne!(value(77, 5, 256), value(77, 6, 256));
    }
}
