//! ONC RPC (RFC 1831 subset) call and reply framing.
//!
//! The µproxy's per-packet decode cost in the paper is driven in part by the
//! *variable-length* fields in the RPC header — "NFS V3 and ONC RPC headers
//! each include variable-length fields (e.g., access groups and the NFS V3
//! file handle) that increase the decoding overhead" (§5, Table 3
//! discussion). We therefore frame calls with a realistic `AUTH_UNIX`
//! credential carrying a machine name and a group list, so decoding has the
//! same shape of work.

use slice_xdr::{XdrDecoder, XdrEncoder, XdrError};

/// The NFS program number.
pub const NFS_PROGRAM: u32 = 100_003;
/// NFS protocol version 3.
pub const NFS_V3: u32 = 3;
/// RPC message type: call.
pub const MSG_CALL: u32 = 0;
/// RPC message type: reply.
pub const MSG_REPLY: u32 = 1;
/// RPC version.
pub const RPC_VERS: u32 = 2;
/// Auth flavor: none.
pub const AUTH_NONE: u32 = 0;
/// Auth flavor: unix.
pub const AUTH_UNIX: u32 = 1;

/// An `AUTH_UNIX` credential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthUnix {
    /// Arbitrary client stamp.
    pub stamp: u32,
    /// Client machine name.
    pub machine: String,
    /// Effective uid.
    pub uid: u32,
    /// Effective gid.
    pub gid: u32,
    /// Supplementary groups (up to 16).
    pub gids: Vec<u32>,
}

impl Default for AuthUnix {
    fn default() -> Self {
        AuthUnix {
            stamp: 0,
            machine: "client".to_string(),
            uid: 0,
            gid: 0,
            gids: vec![0, 1, 2, 3],
        }
    }
}

/// Checks an `AUTH_UNIX` body field by field — a UTF-8 machine name, at
/// most 16 gids — without building the credential.
fn check_auth_unix(body: &[u8]) -> Result<(), XdrError> {
    let mut d = XdrDecoder::new(body);
    d.get_u32()?; // stamp
    d.get_string()?; // machine name
    d.get_u32()?; // uid
    d.get_u32()?; // gid
    let n = d.get_u32()?;
    if n > 16 {
        return Err(XdrError::InvalidValue {
            what: "auth_unix gid count",
            value: n,
        });
    }
    for _ in 0..n {
        d.get_u32()?;
    }
    Ok(())
}

/// What a call header can carry as its credential.
pub trait Credential {
    /// Writes the credential's flavor and its body as one opaque.
    fn put(&self, enc: &mut XdrEncoder);
}

impl Credential for AuthUnix {
    /// Writes the body straight into `enc`: its length is known from the
    /// fields, and every field is whole words, so it needs no padding.
    fn put(&self, enc: &mut XdrEncoder) {
        let machine = self.machine.len().next_multiple_of(4);
        enc.put_u32(AUTH_UNIX);
        enc.put_u32((4 + 4 + machine + 4 + 4 + 4 + 4 * self.gids.len()) as u32);
        enc.put_u32(self.stamp);
        enc.put_string(&self.machine);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u32(self.gids.len() as u32);
        for g in &self.gids {
            enc.put_u32(*g);
        }
    }
}

/// A credential as it arrived: its flavor and its body's bytes, borrowed
/// from the call they lie in. Encoded again, it is the same bytes, so a
/// forwarder re-issuing a call speaks for the same caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpaqueCred<'a> {
    /// `AUTH_UNIX` or `AUTH_NONE`.
    pub flavor: u32,
    /// The body, without its length word and padding.
    pub body: &'a [u8],
}

impl Credential for OpaqueCred<'_> {
    fn put(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.flavor);
        enc.put_opaque(self.body);
    }
}

/// A decoded RPC call header (the part before the NFS arguments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallHeader<'a> {
    /// Transaction id; pairs replies with calls.
    pub xid: u32,
    /// NFS procedure number.
    pub proc: u32,
    /// The credential, as the call carries it.
    pub cred: OpaqueCred<'a>,
}

/// Encodes an RPC call header; the caller appends the procedure arguments.
pub fn encode_call_header(enc: &mut XdrEncoder, xid: u32, proc: u32, cred: &impl Credential) {
    enc.put_u32(xid);
    enc.put_u32(MSG_CALL);
    enc.put_u32(RPC_VERS);
    enc.put_u32(NFS_PROGRAM);
    enc.put_u32(NFS_V3);
    enc.put_u32(proc);
    cred.put(enc);
    enc.put_u32(AUTH_NONE); // verifier flavor
    enc.put_u32(0); // verifier length
}

/// Decodes an RPC call header, leaving the decoder positioned at the
/// procedure arguments. An `AUTH_UNIX` body is checked field by field;
/// an `AUTH_NONE` body is passed over.
pub fn decode_call_header<'a>(dec: &mut XdrDecoder<'a>) -> Result<CallHeader<'a>, XdrError> {
    let xid = dec.get_u32()?;
    let msg_type = dec.get_u32()?;
    if msg_type != MSG_CALL {
        return Err(XdrError::InvalidValue {
            what: "rpc msg_type (call)",
            value: msg_type,
        });
    }
    let rpcvers = dec.get_u32()?;
    if rpcvers != RPC_VERS {
        return Err(XdrError::InvalidValue {
            what: "rpc version",
            value: rpcvers,
        });
    }
    let prog = dec.get_u32()?;
    if prog != NFS_PROGRAM {
        return Err(XdrError::InvalidValue {
            what: "rpc program",
            value: prog,
        });
    }
    let vers = dec.get_u32()?;
    if vers != NFS_V3 {
        return Err(XdrError::InvalidValue {
            what: "nfs version",
            value: vers,
        });
    }
    let proc = dec.get_u32()?;
    let flavor = dec.get_u32()?;
    let body = match flavor {
        AUTH_UNIX => {
            let body = dec.get_opaque()?;
            check_auth_unix(body)?;
            body
        }
        AUTH_NONE => dec.skip_opaque()?,
        other => {
            return Err(XdrError::InvalidValue {
                what: "cred flavor",
                value: other,
            })
        }
    };
    let _verf_flavor = dec.get_u32()?;
    dec.skip_opaque()?;
    Ok(CallHeader {
        xid,
        proc,
        cred: OpaqueCred { flavor, body },
    })
}

/// Encodes an accepted-success RPC reply header; the caller appends the
/// procedure results.
pub fn encode_reply_header(enc: &mut XdrEncoder, xid: u32) {
    enc.put_u32(xid);
    enc.put_u32(MSG_REPLY);
    enc.put_u32(0); // reply_stat: MSG_ACCEPTED
    enc.put_u32(AUTH_NONE); // verifier flavor
    enc.put_u32(0); // verifier length
    enc.put_u32(0); // accept_stat: SUCCESS
}

/// Decodes an RPC reply header, returning the xid and leaving the decoder
/// at the procedure results.
pub fn decode_reply_header(dec: &mut XdrDecoder<'_>) -> Result<u32, XdrError> {
    let xid = dec.get_u32()?;
    let msg_type = dec.get_u32()?;
    if msg_type != MSG_REPLY {
        return Err(XdrError::InvalidValue {
            what: "rpc msg_type (reply)",
            value: msg_type,
        });
    }
    let reply_stat = dec.get_u32()?;
    if reply_stat != 0 {
        return Err(XdrError::InvalidValue {
            what: "reply_stat",
            value: reply_stat,
        });
    }
    let _verf_flavor = dec.get_u32()?;
    dec.skip_opaque()?;
    let accept_stat = dec.get_u32()?;
    if accept_stat != 0 {
        return Err(XdrError::InvalidValue {
            what: "accept_stat",
            value: accept_stat,
        });
    }
    Ok(xid)
}

/// Reads the xid and message type without full decoding — the µproxy's
/// first touch on every intercepted packet.
pub fn peek_xid_type(payload: &[u8]) -> Result<(u32, u32), XdrError> {
    let mut d = XdrDecoder::new(payload);
    Ok((d.get_u32()?, d.get_u32()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_header_roundtrip() {
        let cred = AuthUnix {
            stamp: 7,
            machine: "pc-17".into(),
            uid: 100,
            gid: 100,
            gids: vec![100, 200, 300],
        };
        let mut e = XdrEncoder::new();
        encode_call_header(&mut e, 0xabcd, 6, &cred);
        e.put_u32(0x5a5a); // pretend arguments
        let b = e.into_bytes();
        let mut d = XdrDecoder::new(&b);
        let h = decode_call_header(&mut d).unwrap();
        assert_eq!(h.xid, 0xabcd);
        assert_eq!(h.proc, 6);
        let mut body = XdrEncoder::new();
        cred.put(&mut body);
        assert_eq!(h.cred.flavor, AUTH_UNIX);
        assert_eq!(h.cred.body, &body.as_bytes()[8..]);
        assert_eq!(d.get_u32().unwrap(), 0x5a5a);
    }

    #[test]
    fn an_opaque_credential_encodes_again_as_it_arrived() {
        let cred = OpaqueCred {
            flavor: AUTH_NONE,
            body: &[1, 2, 3],
        };
        let mut e = XdrEncoder::new();
        encode_call_header(&mut e, 5, 16, &cred);
        let b = e.into_bytes();
        let h = decode_call_header(&mut XdrDecoder::new(&b)).unwrap();
        assert_eq!(h.cred, cred);
        let mut again = XdrEncoder::new();
        encode_call_header(&mut again, 5, 16, &h.cred);
        assert_eq!(again.as_bytes(), &b[..]);
    }

    #[test]
    fn reply_header_roundtrip() {
        let mut e = XdrEncoder::new();
        encode_reply_header(&mut e, 99);
        let xid = decode_reply_header(&mut XdrDecoder::new(e.as_bytes())).unwrap();
        assert_eq!(xid, 99);
    }

    #[test]
    fn peek_matches_header() {
        let mut e = XdrEncoder::new();
        encode_call_header(&mut e, 4242, 1, &AuthUnix::default());
        let (xid, mt) = peek_xid_type(e.as_bytes()).unwrap();
        assert_eq!((xid, mt), (4242, MSG_CALL));
    }

    #[test]
    fn wrong_program_rejected() {
        let mut e = XdrEncoder::new();
        e.put_u32(1); // xid
        e.put_u32(MSG_CALL);
        e.put_u32(RPC_VERS);
        e.put_u32(100_005); // mountd, not nfs
        let mut d = XdrDecoder::new(e.as_bytes());
        assert!(decode_call_header(&mut d).is_err());
    }

    #[test]
    fn oversized_gid_list_rejected() {
        let cred = AuthUnix {
            gids: vec![0; 17],
            ..Default::default()
        };
        let mut e = XdrEncoder::new();
        encode_call_header(&mut e, 1, 0, &cred);
        assert!(decode_call_header(&mut XdrDecoder::new(e.as_bytes())).is_err());
    }
}
