//! Client op-history recording for the `slice-check` verification
//! subsystem.
//!
//! Every client-visible NFS operation becomes one [`OpRecord`]: a begin
//! event captured when the RPC layer first transmits the call, and an end
//! event captured when the (first) reply is delivered to the workload.
//! The records are the raw material for the consistency oracles in the
//! `slice-check` crate — linearizability of read/write/truncate over a
//! per-chunk register model, close-to-open checks, and equivalence against
//! a crash-free reference run.
//!
//! Recording is off by default (`SliceConfig::record_history`) so the big
//! paper benchmarks pay nothing; tests and the schedule explorer turn it
//! on.

use slice_sim::FxHashMap;

use slice_nfsproto::{CallView, NfsReply, NfsRequest, NfsStatus, ReplyBody, StableHow, Windows};
use slice_sim::SimTime;

/// Register granularity of the data-consistency model: file contents are
/// analyzed as an array of fixed-size chunks, and only chunks *fully*
/// covered by an operation (and holding a uniform byte value) participate.
/// This matches the 1 KiB-aligned patterns the scripted and randomized
/// workloads write, while staying sound for arbitrary traffic: partially
/// covered or mixed-value chunks simply produce no register operation.
pub const CHUNK_BYTES: u64 = 1024;

/// One recorded client-visible operation (begin/end invocation record).
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// RPC xid (stable across retransmissions).
    pub xid: u32,
    /// Procedure name (`lookup`, `read`, `write`, ...).
    pub op: &'static str,
    /// When the call was first transmitted.
    pub begin: SimTime,
    /// When the reply reached the workload (`None` = never completed).
    pub end: Option<SimTime>,
    /// Reply status, when completed.
    pub status: Option<NfsStatus>,
    /// Retransmissions performed before completion. A nonzero count means
    /// a non-idempotent op may have been applied more than once (the
    /// server's duplicate-request cache can be lost in a crash), which the
    /// oracles must tolerate per NFS semantics.
    pub retries: u32,
    /// Target file id (read/write/commit/getattr/setattr/link source).
    pub file: u64,
    /// Byte offset (read/write/commit).
    pub offset: u64,
    /// Byte length (read request count / write data length).
    pub len: u32,
    /// Write stability requested.
    pub stable: Option<StableHow>,
    /// Setattr size, i.e. a truncate/extend to this length.
    pub truncate_to: Option<u64>,
    /// Index of the first chunk fully covered by this op's byte range.
    pub chunk0: u64,
    /// Per-chunk uniform byte values written (`None` = mixed bytes).
    pub wrote: Vec<Option<u8>>,
    /// Per-chunk uniform byte values a read observed (filled at end).
    pub read: Vec<Option<u8>>,
}

/// Uniform byte values of the chunks fully covered by `[offset,
/// offset+data.len())`, together with the first covered chunk index. The
/// bytes are read where they lie, window by window.
fn chunk_values(offset: u64, data: &Windows) -> (u64, Vec<Option<u8>>) {
    let end = offset + data.len() as u64;
    let first = offset.div_ceil(CHUNK_BYTES);
    let last = end / CHUNK_BYTES; // exclusive
    let mut bytes = data
        .iter()
        .flat_map(|w| w.iter().copied())
        .skip((first * CHUNK_BYTES - offset) as usize);
    let vals = (first..last)
        .map(|_| {
            let mut chunk = bytes.by_ref().take(CHUNK_BYTES as usize);
            let b = chunk.next().expect("a covered chunk has bytes");
            // Counting reads every byte, so the next chunk starts where
            // it should.
            (chunk.filter(|&x| x != b).count() == 0).then_some(b)
        })
        .collect();
    (first, vals)
}

/// A per-client sequence of [`OpRecord`]s in issue order.
#[derive(Debug, Default)]
pub struct OpHistory {
    records: Vec<OpRecord>,
    open: FxHashMap<u32, usize>,
}

impl OpHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        OpHistory::default()
    }

    /// Records the begin event of a call as it is first transmitted.
    pub fn begin(&mut self, now: SimTime, xid: u32, call: &CallView<Windows>) {
        let mut rec = OpRecord {
            xid,
            op: call.proc().name(),
            begin: now,
            end: None,
            status: None,
            retries: 0,
            file: 0,
            offset: 0,
            len: 0,
            stable: None,
            truncate_to: None,
            chunk0: 0,
            wrote: Vec::new(),
            read: Vec::new(),
        };
        use NfsRequest::*;
        match call {
            CallView::Write {
                fh,
                offset,
                stable,
                data,
            } => {
                rec.file = fh.file_id();
                rec.offset = *offset;
                rec.len = data.len() as u32;
                rec.stable = Some(*stable);
                let (c0, vals) = chunk_values(*offset, data);
                rec.chunk0 = c0;
                rec.wrote = vals;
            }
            CallView::Other(Read { fh, offset, count } | Commit { fh, offset, count }) => {
                rec.file = fh.file_id();
                rec.offset = *offset;
                rec.len = *count;
            }
            CallView::Other(Setattr { fh, attr }) => {
                rec.file = fh.file_id();
                rec.truncate_to = attr.size;
            }
            CallView::Other(
                Getattr { fh }
                | Link { fh, .. }
                | Access { fh, .. }
                | Readlink { fh }
                | Fsstat { fh },
            ) => {
                rec.file = fh.file_id();
            }
            CallView::Other(_) => {}
        }
        self.open.insert(xid, self.records.len());
        self.records.push(rec);
    }

    /// Records the end event when the reply reaches the workload.
    pub fn complete(&mut self, now: SimTime, xid: u32, retries: u32, reply: &NfsReply<Windows>) {
        let Some(idx) = self.open.remove(&xid) else {
            return;
        };
        let rec = &mut self.records[idx];
        rec.end = Some(now);
        rec.status = Some(reply.status);
        rec.retries = retries;
        if let ReplyBody::Read { data, .. } = &reply.body {
            let (c0, vals) = chunk_values(rec.offset, data);
            rec.chunk0 = c0;
            rec.read = vals;
        }
    }

    /// The recorded operations, in issue order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(data: Vec<u8>) -> Windows {
        slice_nfsproto::ByteBuf::from(data).into()
    }

    #[test]
    fn chunk_values_cover_full_chunks_only() {
        // [100, 2148): chunk 1 fully covered, chunks 0 and 2 partially.
        let data = windows(vec![7u8; 2048]);
        let (c0, vals) = chunk_values(100, &data);
        assert_eq!(c0, 1);
        assert_eq!(vals, vec![Some(7)]);
        // Aligned two-chunk write covers both.
        let (c0, vals) = chunk_values(1024, &data);
        assert_eq!(c0, 1);
        assert_eq!(vals, vec![Some(7), Some(7)]);
    }

    #[test]
    fn mixed_chunks_are_excluded() {
        let mut data = vec![1u8; 1024];
        data[512] = 2;
        let (_, vals) = chunk_values(0, &windows(data));
        assert_eq!(vals, vec![None]);
    }
}
