//! Deterministic whole-system simulation substrate (ROADMAP item 2).
//!
//! The paper's §4–§6 methodology — generate an operation sequence, inject
//! failures, check conformance against a reference model — previously
//! lived in four separate harness loops, each owning its own seed
//! handling and fault vocabulary. This crate is the single seeded
//! event-loop simulator those loops now run on (the TigerBeetle "VOPR"
//! shape): one logical clock, one ordered event queue, one schedule
//! vocabulary covering timer ticks, RPC delivery perturbation
//! (delay/drop/reorder), disk fault arming, and whole-node
//! crash-restart.
//!
//! The crate is deliberately substrate-only: it knows nothing about
//! stores, nodes, or models. A [`World`] (defined by the harness)
//! interprets each event against the system under test and its reference
//! model; the [`Simulator`] owns *when* events happen and guarantees that
//! the order is a pure function of the seed and the schedule.
//!
//! Layering:
//!
//! - [`clock`] — logical time (no wall clock on any checked path);
//! - [`rng`] — a tiny splitmix64 PRNG so schedules are seed-stable
//!   across platforms and toolchains;
//! - [`event`] — the `(time, seq)`-ordered event queue;
//! - [`schedule`] — the fault/delivery schedule vocabulary shared by all
//!   worlds, with `clean()` (frontend-compatible, no perturbation) and
//!   `perturbed()` (swarm) constructors plus the index-remapping helpers
//!   the auto-minimizer needs;
//! - [`sim`] — the event loop itself plus the [`World`] trait, its
//!   per-run [`SimReport`], and the [`SwarmStats`] accumulator for
//!   compressed-time seed batches.

pub mod clock;
pub mod event;
pub mod rng;
pub mod schedule;
pub mod sim;

pub use clock::LogicalClock;
pub use event::EventQueue;
pub use rng::SimRng;
pub use schedule::{CrashPoint, FaultPoint, PerturbProfile, SimFaultKind, SimSchedule};
pub use sim::{SimCtx, SimEvent, SimReport, Simulator, SwarmStats, World, OP_SPACING};
