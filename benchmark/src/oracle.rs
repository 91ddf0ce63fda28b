//! The driver's oracle: what every reply must be, given the writes acked
//! so far, and what a recovered store must hold after the crash phase.
//!
//! Requests run one at a time and in order, so the expected state at any
//! request is exactly the acked writes before it — one version number per
//! key is the whole model.

use std::collections::BTreeSet;

use std::borrow::Cow;

use shardstore_core::rpc::{ErrorCode, Response};
use shardstore_core::{Store, ValueBuf};

use crate::workload::{check_value, Op, OpKind, Spec, BULK_KEYS, SCAN_LIMIT, SCAN_SPAN};

/// Why a request did not count as completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The node refused admission (`Overloaded`).
    Refused,
    /// Any other error reply, or a reply with the wrong shape or bytes.
    Failed(String),
}

/// A value's bytes in one piece: borrowed when it already is one segment
/// (every decoded reply), copied only for a multi-chunk rope.
fn contiguous(value: &ValueBuf) -> Cow<'_, [u8]> {
    let mut segments = value.segments();
    match (segments.next(), segments.next()) {
        (Some(only), None) => Cow::Borrowed(only),
        _ => Cow::Owned(value.to_vec()),
    }
}

#[derive(Debug, Clone)]
pub struct Model {
    value_len: usize,
    /// Latest acked version per key; 0 = absent (never written or deleted).
    acked: Vec<u32>,
    scratch: Vec<u8>,
}

/// What the crash phase found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashReport {
    pub keys_checked: usize,
    /// Keys whose recovered value is older than the last fenced write.
    /// Legal only for keys whose last write was still in the memtable.
    pub rolled_back: usize,
    /// Keys that were in the memtable (not yet in an SSTable) at the crash.
    pub unflushed: usize,
    pub errors: Vec<String>,
}

impl Model {
    pub fn new(spec: &Spec) -> Self {
        Model {
            value_len: spec.value_len,
            acked: vec![0; spec.keys as usize],
            scratch: Vec::new(),
        }
    }

    /// Records a write whose ack was received. Called before the fence:
    /// with one request in flight, nothing reads between ack and fence.
    pub fn ack(&mut self, op: &Op) {
        match op.kind {
            OpKind::Put => self.acked[op.key as usize] = op.version,
            OpKind::Delete => self.acked[op.key as usize] = 0,
            OpKind::BulkCreate => {
                for k in op.key..op.key + BULK_KEYS {
                    self.acked[k as usize] = op.version;
                }
            }
            OpKind::Get | OpKind::Scan => {}
        }
    }

    pub fn live_keys(&self) -> usize {
        self.acked.iter().filter(|v| **v != 0).count()
    }

    pub fn live_user_bytes(&self) -> u64 {
        (self.live_keys() * self.value_len) as u64
    }

    /// User bytes an acked write carried (what `write_amp` divides by).
    pub fn user_bytes(&self, op: &Op) -> u64 {
        match op.kind {
            OpKind::Put => self.value_len as u64,
            OpKind::BulkCreate => u64::from(BULK_KEYS) * self.value_len as u64,
            _ => 0,
        }
    }

    fn check_present(&mut self, key: u32, bytes: &[u8]) -> Result<(), String> {
        let want = self.acked[key as usize];
        let got = check_value(key, bytes, &mut self.scratch)?;
        if got != want {
            return Err(format!(
                "key {key}: read version {got}, latest acked is {want}"
            ));
        }
        Ok(())
    }

    /// Checks a decoded reply against the model.
    pub fn check(&mut self, op: &Op, reply: &Response) -> Result<(), Failure> {
        let failed = |s: String| Err(Failure::Failed(s));
        match (op.kind, reply) {
            (_, Response::Error(e)) if e.code == ErrorCode::Overloaded => Err(Failure::Refused),
            (_, Response::Error(e)) => failed(format!("{:?} key {}: {e}", op.kind, op.key)),
            (OpKind::Put | OpKind::Delete | OpKind::BulkCreate, Response::Ok) => Ok(()),
            (OpKind::Get, Response::NotFound) if self.acked[op.key as usize] == 0 => Ok(()),
            (OpKind::Get, Response::NotFound) => failed(format!(
                "key {}: NotFound, but version {} was acked",
                op.key, self.acked[op.key as usize]
            )),
            (OpKind::Get, Response::Data(_)) if self.acked[op.key as usize] == 0 => {
                failed(format!("key {}: data returned for an absent key", op.key))
            }
            (OpKind::Get, Response::Data(v)) => self
                .check_present(op.key, &contiguous(v))
                .map_err(Failure::Failed),
            (OpKind::Scan, Response::ScanPage { entries, next }) => {
                let in_range = op.key..=op.key + SCAN_SPAN;
                let live: Vec<u32> = in_range.filter(|k| self.acked[*k as usize] != 0).collect();
                let page = &live[..live.len().min(SCAN_LIMIT as usize)];
                let got: Vec<u128> = entries.iter().map(|(k, _)| *k).collect();
                if got != page.iter().map(|k| u128::from(*k)).collect::<Vec<_>>() {
                    return failed(format!(
                        "scan from {}: page keys {:?}.. differ from the {} live keys expected",
                        op.key,
                        &got[..got.len().min(4)],
                        page.len()
                    ));
                }
                let want_next = (live.len() > page.len())
                    .then(|| page.last().map(|k| u128::from(*k)))
                    .flatten();
                if *next != want_next {
                    return failed(format!(
                        "scan from {}: continuation {next:?}, expected {want_next:?}",
                        op.key
                    ));
                }
                for (k, v) in entries {
                    self.check_present(*k as u32, &contiguous(v))
                        .map_err(Failure::Failed)?;
                }
                Ok(())
            }
            (kind, other) => failed(format!(
                "{kind:?} key {}: unexpected reply {other:?}",
                op.key
            )),
        }
    }

    /// Phase (4)'s check: reads every key straight from the recovered
    /// store. A key must hold its latest acked version, except that a key
    /// whose last mutation was still in the memtable at the crash
    /// (`unflushed`) may have rolled back to an older acked state: the
    /// `fenced` contract pumps the IO scheduler but does not flush the
    /// LSM memtable, so up to `flush_threshold - 1` fenced writes are
    /// legitimately lost. No key outside the generated key space may
    /// exist.
    pub fn check_recovered(&mut self, store: &Store, unflushed: &BTreeSet<u32>) -> CrashReport {
        let mut report = CrashReport {
            unflushed: unflushed.len(),
            ..CrashReport::default()
        };
        let keys = self.acked.len() as u32;
        for key in 0..keys {
            let want = self.acked[key as usize];
            report.keys_checked += 1;
            let got = match store.get_value(u128::from(key)) {
                Ok(None) => Ok(0),
                Ok(Some(v)) => check_value(key, &contiguous(&v), &mut self.scratch),
                Err(e) => Err(format!("key {key}: recovered read failed: {e}")),
            };
            match got {
                Ok(v) if v == want => {}
                // Versions only grow, so an older state is a smaller (or
                // absent) version; after an acked delete any older value.
                Ok(v) if unflushed.contains(&key) && (v < want || want == 0) => {
                    report.rolled_back += 1
                }
                Ok(v) => report.errors.push(format!(
                    "key {key}: recovered version {v}, fenced and flushed version {want} lost"
                )),
                Err(e) => report.errors.push(e),
            }
        }
        match store.list() {
            Ok(listed) => {
                if let Some(k) = listed.iter().find(|k| **k >= u128::from(keys)) {
                    report
                        .errors
                        .push(format!("never-written key {k} appeared after recovery"));
                }
            }
            Err(e) => report
                .errors
                .push(format!("listing the recovered store failed: {e}")),
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{phase_stream, spec, value, Versions};
    use shardstore_core::rpc::RpcError;

    fn op(kind: OpKind, key: u32, version: u32) -> Op {
        // Only kind/key/version matter to the model; borrow a real Op.
        let s = spec("put_fenced").unwrap();
        let mut versions = Versions::new(s.keys);
        let mut o = phase_stream(s, 1, 1, 1, None, &mut versions).ops[0];
        (o.kind, o.key, o.version) = (kind, key, version);
        o
    }

    #[test]
    fn gets_must_return_the_latest_acked_version() {
        let s = spec("put_fenced").unwrap();
        let mut m = Model::new(s);
        let get = op(OpKind::Get, 7, 0);
        assert_eq!(m.check(&get, &Response::NotFound), Ok(()));
        m.ack(&op(OpKind::Put, 7, 1));
        m.ack(&op(OpKind::Put, 7, 2));
        assert_eq!(
            m.check(&get, &Response::Data(value(7, 2, 1024).into())),
            Ok(())
        );
        assert!(matches!(
            m.check(&get, &Response::Data(value(7, 1, 1024).into())),
            Err(Failure::Failed(_))
        ));
        assert!(matches!(
            m.check(&get, &Response::NotFound),
            Err(Failure::Failed(_))
        ));
        m.ack(&op(OpKind::Delete, 7, 0));
        assert_eq!(m.check(&get, &Response::NotFound), Ok(()));
        assert!(matches!(
            m.check(&get, &Response::Data(value(7, 2, 1024).into())),
            Err(Failure::Failed(_))
        ));
        assert_eq!(m.live_keys(), 0);
    }

    #[test]
    fn refusals_and_errors_are_told_apart() {
        let s = spec("put_fenced").unwrap();
        let mut m = Model::new(s);
        let put = op(OpKind::Put, 1, 1);
        let overloaded = Response::Error(RpcError::new(ErrorCode::Overloaded, "full"));
        let no_space = Response::Error(RpcError::new(ErrorCode::NoSpace, "full"));
        assert_eq!(m.check(&put, &overloaded), Err(Failure::Refused));
        assert!(matches!(m.check(&put, &no_space), Err(Failure::Failed(_))));
        assert!(matches!(
            m.check(&put, &Response::NotFound),
            Err(Failure::Failed(_))
        ));
    }

    #[test]
    fn scan_pages_must_be_exact() {
        let s = spec("scan_bulk").unwrap();
        let mut m = Model::new(s);
        for k in 100..200 {
            m.ack(&op(OpKind::Put, k, 1));
        }
        m.ack(&op(OpKind::BulkCreate, 110, 2));
        let version = |k: u32| if (110..126).contains(&k) { 2 } else { 1 };
        let page = |keys: std::ops::Range<u32>| -> Vec<(u128, shardstore_core::ValueBuf)> {
            keys.map(|k| (u128::from(k), value(k, version(k), 256).into()))
                .collect()
        };
        let scan = op(OpKind::Scan, 100, 0);
        let good = Response::ScanPage {
            entries: page(100..164),
            next: Some(163),
        };
        assert_eq!(m.check(&scan, &good), Ok(()));
        let short = Response::ScanPage {
            entries: page(100..163),
            next: Some(162),
        };
        assert!(m.check(&scan, &short).is_err());
        let no_next = Response::ScanPage {
            entries: page(100..164),
            next: None,
        };
        assert!(m.check(&scan, &no_next).is_err());
        let mut stale = page(100..164);
        stale[12].1 = value(112, 1, 256).into();
        assert!(m
            .check(
                &scan,
                &Response::ScanPage {
                    entries: stale,
                    next: Some(163)
                }
            )
            .is_err());
        // A range holding fewer live keys than the limit ends the scan.
        let tail = op(OpKind::Scan, 150, 0);
        assert_eq!(
            m.check(
                &tail,
                &Response::ScanPage {
                    entries: page(150..200),
                    next: None
                }
            ),
            Ok(())
        );
    }
}
