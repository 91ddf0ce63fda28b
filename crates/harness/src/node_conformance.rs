//! Conformance checking for the multi-disk node's control plane.
//!
//! Same refinement idea as [`crate::conformance`], but over [`NodeOp`]
//! sequences against the API-level KV model. Disk removal and return are
//! modelled explicitly (the `DiskRemoval` oracle): while a disk is
//! out of service, its shards are unavailable (requests error), but
//! *returning* the disk must bring every shard back — the property issue
//! #4 violated.

use std::sync::Arc;

use shardstore_core::rpc::{ErrorCode, Request, Response};
use shardstore_core::Node;
use shardstore_model::KvModel;
use shardstore_sim::SimSchedule;

use crate::conformance::{ConformanceConfig, Divergence};
use crate::interp::{NodeObservation, NodeRun};
use crate::ops::NodeOp;
use crate::oracle::Oracle;
use crate::simulate::{run_node_sim, run_node_sim_on, SimOptions};

/// Runs a node-level operation sequence against the KV model on a fresh
/// `num_disks`-disk node.
///
/// A thin frontend over the deterministic simulator (clean schedule = a
/// straight-line loop).
pub fn run_node_conformance(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    num_disks: usize,
) -> Result<(), Divergence> {
    run_node_sim(ops, cfg, num_disks, &SimSchedule::clean(), &SimOptions::default()).map(drop)
}

/// Like [`run_node_conformance`] but against a caller-provided node.
pub fn run_node_conformance_on(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    node: &Node,
) -> Result<(), Divergence> {
    run_node_sim_on(ops, cfg, node, &SimSchedule::clean(), &SimOptions::default()).map(drop)
}

/// Control-plane conformance against [`KvModel`]. The model is oblivious
/// to disks: while a disk is out of service its shards are unavailable
/// (requests are refused) and the model is left unchanged — the data
/// still exists, and must be *available again* after `ReturnDisk`, the
/// property issue #4 violated. Not failure-relaxed: any other refusal
/// than a removed disk or a full one is a divergence.
#[derive(Default)]
pub(crate) struct DiskRemoval {
    model: KvModel,
}

/// Sorts a reply to a mutating request: accepted, or refused for a
/// reason the checker excuses.
fn accepted(
    run: &mut NodeRun,
    what: &str,
    on_removed_disk: bool,
    reply: Response,
) -> Result<bool, String> {
    match reply {
        Response::Ok => Ok(true),
        Response::Error(e) if e.code == ErrorCode::OutOfService && on_removed_disk => Ok(false),
        Response::Error(e) if e.code == ErrorCode::NoSpace => {
            run.skipped_no_space += 1;
            Ok(false)
        }
        other => Err(format!("{what} failed: {other:?}")),
    }
}

/// The shard a read returned (`None` = absent), or the reply that was not
/// a read result.
fn payload(reply: Response) -> Result<Option<Vec<u8>>, Response> {
    match reply {
        Response::Data(v) => Ok(Some(v.to_vec())),
        Response::NotFound => Ok(None),
        other => Err(other),
    }
}

fn same(got: &Option<Vec<u8>>, expected: &Option<Arc<Vec<u8>>>) -> bool {
    got.as_deref() == expected.as_ref().map(|e| e.as_slice())
}

impl Oracle<NodeOp, NodeRun, NodeObservation> for DiskRemoval {
    fn observe(&mut self, run: &mut NodeRun, obs: NodeObservation) -> Result<(), String> {
        match obs {
            NodeObservation::Get { key, on_removed_disk, reply } => {
                let got = match payload(reply) {
                    Ok(got) => got,
                    Err(Response::Error(e))
                        if e.code == ErrorCode::NoSpace
                            || (e.code == ErrorCode::OutOfService && on_removed_disk) =>
                    {
                        return Ok(());
                    }
                    Err(other) => return Err(format!("get failed: {other:?}")),
                };
                if on_removed_disk {
                    return Err("get served from a removed disk".to_string());
                }
                let expected = self.model.get(key);
                if !same(&got, &expected) {
                    return Err(format!(
                        "get({key}) mismatch: impl {:?} vs model {:?} bytes",
                        got.map(|v| v.len()),
                        expected.map(|v| v.len())
                    ));
                }
                Ok(())
            }
            NodeObservation::Mutated { what, writes, on_removed_disk, reply } => {
                if !accepted(run, what, on_removed_disk, reply)? {
                    return Ok(());
                }
                if on_removed_disk {
                    return Err(format!("{what} accepted by a removed disk"));
                }
                for (key, value) in writes {
                    match value {
                        Some(v) => {
                            self.model.put(key, &v);
                            run.puts_so_far.push(key);
                        }
                        None => {
                            self.model.delete(key);
                        }
                    }
                }
                Ok(())
            }
            NodeObservation::Listed(reply) => {
                let Response::Shards(listed) = reply else {
                    return Err(format!("list failed: {reply:?}"));
                };
                // The listing must cover every model key on an in-service
                // disk, and nothing the model does not have.
                if let Some(key) = listed.iter().find(|k| self.model.get(**k).is_none()) {
                    return Err(format!("listed phantom shard {key}"));
                }
                let node = run.port.node();
                let in_service = |k: &u128| !run.removed[node.route(*k)];
                match self.model.list().into_iter().find(|k| in_service(k) && !listed.contains(k)) {
                    Some(key) => Err(format!("listing missed shard {key}")),
                    None => Ok(()),
                }
            }
            NodeObservation::DiskRemoved { disk, reply } => {
                if accepted(run, "remove_disk", run.removed[disk], reply)? {
                    run.removed[disk] = true;
                }
                Ok(())
            }
            NodeObservation::DiskReturned { disk, reply } => {
                if !accepted(run, "return_disk", false, reply)? {
                    return Ok(());
                }
                run.removed[disk] = false;
                // The core durability property of disk return: every
                // model shard on this disk is served again, data intact.
                for key in self.model.list() {
                    if run.port.node().route(key) != disk {
                        continue;
                    }
                    let got = payload(run.port.call(Request::Get { shard: key })?);
                    if !got.as_ref().is_ok_and(|got| same(got, &self.model.get(key))) {
                        return Err(format!("shard {key} lost across disk removal/return: {got:?}"));
                    }
                }
                Ok(())
            }
            NodeObservation::Migrated { key, to_disk, on_removed_disk, reply } => {
                if !accepted(run, "migrate", on_removed_disk, reply)? || on_removed_disk {
                    return Ok(());
                }
                // Migration must preserve the data exactly.
                let expected = self.model.get(key);
                let got = payload(run.port.call(Request::Get { shard: key })?)
                    .map_err(|other| format!("post-migrate get failed: {other:?}"))?;
                if !same(&got, &expected) {
                    return Err(format!("shard {key} changed across migration"));
                }
                // Placement flips only for shards that exist; a missing
                // shard's migrate is a no-op.
                if expected.is_some() && run.port.node().route(key) != to_disk {
                    return Err("placement not updated".to_string());
                }
                Ok(())
            }
        }
    }

    /// Catalog/index consistency is an always-on invariant.
    fn after_op(&mut self, run: &mut NodeRun, _at: usize) -> Result<(), String> {
        run.port.node().check_catalog_consistent()
    }
}
