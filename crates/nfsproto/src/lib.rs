//! NFS V3 / ONC RPC wire protocol for the Slice reproduction.
//!
//! Slice virtualizes the standard NFS V3 protocol: clients speak ordinary
//! NFS to a *virtual* server address, and the µproxy redirects each request
//! to the ensemble member responsible for it. This crate provides the wire
//! protocol both sides of that interposition speak:
//!
//! * [`fh`] — structured Slice file handles (fileID, home site, per-file
//!   policy flags, MD5 cell key);
//! * [`attr`] — `fattr3`/`sattr3` with a fixed attribute layout the µproxy
//!   can patch in place;
//! * [`rpc`] — ONC RPC call/reply framing with realistic `AUTH_UNIX`
//!   credentials (variable-length fields dominate µproxy decode cost);
//! * [`msg`] — the NFS procedures of the paper's Table 1 plus the remainder
//!   of the V3 set Slice serves, with full XDR codecs;
//! * [`packet`] — simulated UDP datagrams whose checksums are maintained
//!   incrementally under rewriting.

#![forbid(unsafe_code)]

pub mod attr;
pub mod bytes;
pub mod fh;
pub mod msg;
pub mod packet;
pub mod rpc;

pub use attr::{
    Fattr3, FileType, NfsStatus, NfsTime, Sattr3, SetTime, ATTR_OFF_ATIME, ATTR_OFF_MTIME,
    ATTR_OFF_SIZE, ATTR_WIRE_SIZE,
};
pub use bytes::{ByteBuf, Windows};
pub use fh::{Fhandle, FH_FLAG_DIR, FH_FLAG_MAPPED, FH_FLAG_MIRRORED, FH_FLAG_SYMLINK, FH_SIZE};
pub use msg::{
    decode_call, decode_reply, encode_call, encode_read_reply, encode_reply, view_call, view_reply,
    BodyView, CallView, DirEntry, DirEntryPlus, NfsProc, NfsReply, NfsRequest, ReplyBody,
    ReplyView, StableHow, REPLY_ATTR_OFFSET, REPLY_STATUS_OFFSET,
};
pub use packet::{Packet, SockAddr, UDP_IP_HEADER_BYTES};
pub use rpc::{peek_xid_type, AuthUnix, CallHeader, MSG_CALL, MSG_REPLY, NFS_PROGRAM, NFS_V3};
