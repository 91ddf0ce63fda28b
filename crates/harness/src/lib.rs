//! The lightweight formal methods validation stack (§3–§6 of the paper).
//!
//! This crate is the paper's contribution rendered as a library. The
//! sequential checkers are one pipeline, read top to bottom:
//!
//! - [`ops`] / [`gen`] — operation alphabets (`KvOp`, `NodeOp`,
//!   `IndexOp`) and biased proptest strategies (§4.1, §4.2);
//! - `interp` — the interpreters: the only code that drives a store (one
//!   `match` over `KvOp`) or a node (one over `NodeOp`, direct or over
//!   the wire). They report observations and judge nothing;
//! - `oracle` — the `Oracle` trait, the judgements the policies share,
//!   and the table of what each policy relaxes. Every judgement is one
//!   of three policies over the store observations — strict/§4.4-relaxed,
//!   crash-aware (§5), ack-precise — or the one over the node's (disk
//!   removal); each lives beside the frontend that runs it;
//! - [`simulate`] — the worlds binding interpreter and oracle to the
//!   deterministic [`shardstore_sim`] event loop (schedules of ticks,
//!   drops, delays, armed faults, crash-restarts), one per alphabet;
//! - the frontends, each a world with an oracle plugged in:
//!   [`conformance`] (§4 refinement, plus the shared config and report
//!   types), [`crash`] (§5 persistence + forward progress),
//!   [`fault_sweep`] (§4.4 made systematic: enumerated fault schedules
//!   under the ack-precise oracle), [`node_conformance`] (the control
//!   plane, direct), [`simulate::run_rpc_sim`] (the control plane through
//!   the request plane), and [`swarm`] (batches of seeded, perturbed
//!   runs with auto-minimized failures).
//!
//! Beside the pipeline:
//!
//! - [`index_conformance`] — the literal Fig. 3 loop over the LSM index
//!   alone, against the index model;
//! - [`lin`] — a linearizability checker for concurrent histories against
//!   a sequential specification (§6);
//! - [`concurrent`] / [`node_rpc`] — stateless-model-checking harnesses
//!   for the concurrency issues of Fig. 5 (the Fig. 4 harness among
//!   them), at the store and through the request-plane engine;
//! - [`minimize`] — standalone test-case minimization (§4.3), for op
//!   sequences and for simulator `(ops, schedule)` repros;
//! - [`detect`] — the Fig. 5 driver: seed a historical bug, run the
//!   matching checker, report detection.

pub mod concurrent;
pub mod conformance;
pub mod crash;
pub mod detect;
pub mod fault_sweep;
pub mod gen;
pub mod index_conformance;
mod interp;
pub mod lin;
pub mod minimize;
pub mod node_conformance;
pub mod node_rpc;
pub mod ops;
mod oracle;
pub mod simulate;
pub mod swarm;

pub use conformance::{run_conformance, ConformanceConfig, Divergence, RunReport};
pub use crash::run_crash_consistency;

/// Switches a scheduler to the background writeback engine: a real pump
/// thread racing whatever drives the store (the `background` variant of
/// every checker).
pub(crate) fn enable_background(sched: &shardstore_dependency::IoScheduler) {
    use shardstore_dependency::{WritebackConfig, WritebackMode};
    sched.set_writeback_mode(WritebackMode::Background(WritebackConfig::default()));
}
