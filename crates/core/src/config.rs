//! Validated configuration builders for stores, nodes, and the request
//! plane.
//!
//! Ad-hoc struct literals made it easy to construct configurations that
//! are silently nonsense (a zero flush threshold, a batch window wider
//! than the admission queue that feeds it). The builders here are the
//! supported construction path: every knob has a sane default, and
//! [`build`](StoreConfigBuilder::build) rejects invalid combinations with
//! a typed [`ConfigError`] instead of letting them wedge a running node.

use std::fmt;
use std::path::PathBuf;

use shardstore_faults::FaultConfig;
use shardstore_vdisk::Geometry;

use crate::store::StoreConfig;

/// Which storage backend a freshly formatted store's disk uses.
///
/// `Memory` is the checking substrate: deterministic, clock-free, and the
/// only backend legal under the model checker (where [`CrashPlan`]
/// enumeration must not depend on the host filesystem). `File` maps
/// extents onto a preallocated volume file so the same stack runs against
/// real storage with `flush_extent` fencing discharged as `fdatasync`.
///
/// [`CrashPlan`]: shardstore_vdisk::CrashPlan
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// In-memory backend (the default).
    #[default]
    Memory,
    /// File backend: each formatted disk gets its own volume file under
    /// `dir` (created if absent, removed when the disk is dropped).
    File {
        /// Directory that holds the store-managed volume files.
        dir: PathBuf,
        /// Physically write zeros through the data region at format time
        /// so later page writes never ENOSPC mid-flush.
        preallocate: bool,
    },
}

impl BackendKind {
    /// The stable tag this kind formats disks as (`"memory"` / `"file"`).
    pub fn tag(&self) -> &'static str {
        match self {
            BackendKind::Memory => "memory",
            BackendKind::File { .. } => "file",
        }
    }

    /// A file backend rooted in the standard scratch location
    /// (`$TMPDIR/shardstore-volumes`), without preallocation.
    pub fn file_in_temp() -> Self {
        let mut dir = std::env::temp_dir();
        dir.push("shardstore-volumes");
        BackendKind::File { dir, preallocate: false }
    }

    /// Reads the `SHARDSTORE_BACKEND` environment variable so whole test
    /// suites can be pointed at real storage without per-test plumbing:
    /// `memory` (or unset) keeps the default, `file` uses
    /// [`BackendKind::file_in_temp`], and `file:<dir>` roots the volumes
    /// at `<dir>`. Unknown values fall back to `Memory` so a typo cannot
    /// silently flip a determinism-sensitive suite onto the filesystem.
    /// Inside a model-checked execution `Store::format` still formats an
    /// in-memory disk whatever this returns.
    pub fn from_env() -> Self {
        match std::env::var("SHARDSTORE_BACKEND") {
            Ok(v) if v == "file" => Self::file_in_temp(),
            Ok(v) => match v.strip_prefix("file:") {
                Some(dir) if !dir.is_empty() => {
                    BackendKind::File { dir: PathBuf::from(dir), preallocate: false }
                }
                _ => BackendKind::Memory,
            },
            Err(_) => BackendKind::Memory,
        }
    }
}

/// A rejected configuration. Matchable, so tests can assert *which*
/// validation fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be positive was zero.
    Zero {
        /// The offending field.
        field: &'static str,
    },
    /// The batched-dispatch window is wider than the admission queue that
    /// feeds it — the excess could never fill.
    BatchWindowExceedsQueue {
        /// Configured batch window.
        batch_window: usize,
        /// Configured per-executor queue depth.
        queue_depth: usize,
    },
    /// A file backend was configured with an empty volume directory.
    EmptyBackendDir,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero { field } => write!(f, "config: `{field}` must be positive"),
            ConfigError::BatchWindowExceedsQueue { batch_window, queue_depth } => write!(
                f,
                "config: batch_window ({batch_window}) exceeds queue_depth ({queue_depth})"
            ),
            ConfigError::EmptyBackendDir => {
                write!(f, "config: file backend volume directory must be non-empty")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl StoreConfig {
    /// Starts a builder seeded with the defaults.
    pub fn builder() -> StoreConfigBuilder {
        StoreConfigBuilder { config: StoreConfig::default() }
    }

    /// Continues a builder from this configuration — the supported way to
    /// derive a variant (e.g. from [`StoreConfig::small`]) without a
    /// struct-update literal.
    pub fn to_builder(self) -> StoreConfigBuilder {
        StoreConfigBuilder { config: self }
    }
}

/// Builder for [`StoreConfig`]; see [`StoreConfig::builder`].
#[derive(Debug, Clone)]
pub struct StoreConfigBuilder {
    config: StoreConfig,
}

impl StoreConfigBuilder {
    /// Maximum chunk payload size; larger shards split across chunks.
    pub fn max_chunk_size(mut self, bytes: usize) -> Self {
        self.config.max_chunk_size = bytes;
        self
    }

    /// Memtable entry count that triggers an automatic index flush.
    pub fn flush_threshold(mut self, entries: usize) -> Self {
        self.config.flush_threshold = entries;
        self
    }

    /// Buffer-cache capacity in bytes (keep small in tests — §8.3).
    pub fn cache_capacity(mut self, bytes: usize) -> Self {
        self.config.cache_capacity = bytes;
        self
    }

    /// Deterministic seed for chunk UUID generation.
    pub fn uuid_seed(mut self, seed: u64) -> Self {
        self.config.uuid_seed = seed;
        self
    }

    /// Decoded-table cache capacity in tables (at least 1).
    pub fn decoded_cache_tables(mut self, tables: usize) -> Self {
        self.config.decoded_cache_tables = tables;
        self
    }

    /// Number of hash-sharded memtable segments (point ops lock one
    /// shard; scans and flush take an ordered cut across all of them).
    pub fn memtable_shards(mut self, shards: usize) -> Self {
        self.config.memtable_shards = shards;
        self
    }

    /// Live-table count at which an automatic flush also schedules a
    /// bounded tiered compaction round.
    pub fn compaction_trigger_tables(mut self, tables: usize) -> Self {
        self.config.compaction_trigger_tables = tables;
        self
    }

    /// Max entries per block in format-v2 SSTables.
    pub fn block_size(mut self, entries: usize) -> Self {
        self.config.block_size = entries;
        self
    }

    /// Storage backend for freshly formatted disks.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<StoreConfig, ConfigError> {
        let c = &self.config;
        let positive = [
            ("max_chunk_size", c.max_chunk_size),
            ("flush_threshold", c.flush_threshold),
            ("decoded_cache_tables", c.decoded_cache_tables),
            ("memtable_shards", c.memtable_shards),
            ("compaction_trigger_tables", c.compaction_trigger_tables),
            ("block_size", c.block_size),
        ];
        if let Some(&(field, _)) = positive.iter().find(|(_, v)| *v == 0) {
            return Err(ConfigError::Zero { field });
        }
        if let BackendKind::File { dir, .. } = &self.config.backend {
            if dir.as_os_str().is_empty() {
                return Err(ConfigError::EmptyBackendDir);
            }
        }
        Ok(self.config)
    }
}

/// Request-plane tuning for the multi-worker RPC engine
/// ([`crate::engine::Engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Bound on each disk executor's admission queue; a request targeting
    /// a full queue is rejected with a typed `Overloaded` error instead
    /// of queueing unboundedly.
    pub queue_depth: usize,
    /// Maximum number of co-routed puts the executor funnels into one
    /// `Store::put_batch` per dispatch.
    pub batch_window: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { queue_depth: 64, batch_window: 16 }
    }
}

impl EngineConfig {
    /// Starts a builder seeded with the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { config: EngineConfig::default() }
    }
}

/// Builder for [`EngineConfig`]; see [`EngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Per-executor admission queue bound.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Batched-dispatch window (max puts per funnelled batch).
    pub fn batch_window(mut self, window: usize) -> Self {
        self.config.batch_window = window;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        let EngineConfig { queue_depth, batch_window } = self.config;
        if queue_depth == 0 {
            return Err(ConfigError::Zero { field: "queue_depth" });
        }
        if batch_window == 0 {
            return Err(ConfigError::Zero { field: "batch_window" });
        }
        if batch_window > queue_depth {
            return Err(ConfigError::BatchWindowExceedsQueue { batch_window, queue_depth });
        }
        Ok(self.config)
    }
}

/// Node-level configuration: disk fleet shape plus the per-store and
/// request-plane settings.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Number of disk slots (one store and one engine executor each).
    pub disks: usize,
    /// Geometry of each freshly formatted disk.
    pub geometry: Geometry,
    /// Per-store configuration.
    pub store: StoreConfig,
    /// Seeded-bug / fault-injection configuration.
    pub faults: FaultConfig,
    /// Request-plane tuning.
    pub engine: EngineConfig,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            disks: 1,
            geometry: Geometry::default(),
            store: StoreConfig::default(),
            faults: FaultConfig::none(),
            engine: EngineConfig::default(),
        }
    }
}

impl NodeConfig {
    /// Starts a builder seeded with the defaults (one disk, default
    /// geometry, no faults).
    pub fn builder() -> NodeConfigBuilder {
        NodeConfigBuilder { config: NodeConfig::default() }
    }
}

/// Builder for [`NodeConfig`]; see [`NodeConfig::builder`].
#[derive(Debug, Clone)]
pub struct NodeConfigBuilder {
    config: NodeConfig,
}

impl NodeConfigBuilder {
    /// Number of disk slots. One engine executor (worker) serves each
    /// slot, so this is also the request plane's worker count.
    pub fn disks(mut self, disks: usize) -> Self {
        self.config.disks = disks;
        self
    }

    /// Geometry of each freshly formatted disk.
    pub fn geometry(mut self, geometry: Geometry) -> Self {
        self.config.geometry = geometry;
        self
    }

    /// Per-store configuration.
    pub fn store(mut self, store: StoreConfig) -> Self {
        self.config.store = store;
        self
    }

    /// Seeded-bug / fault-injection configuration.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.config.faults = faults;
        self
    }

    /// Request-plane tuning.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<NodeConfig, ConfigError> {
        if self.config.disks == 0 {
            return Err(ConfigError::Zero { field: "disks" });
        }
        // The engine settings ride along; validate them here too so a
        // node built from this config cannot carry an invalid plane.
        let engine = EngineConfigBuilder { config: self.config.engine }.build()?;
        let mut config = self.config;
        config.engine = engine;
        Ok(config)
    }
}
