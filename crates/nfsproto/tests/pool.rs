//! Encoders and the buffer pool: a bulk message is built in the one
//! pooled buffer the encoder asked for.
//!
//! Pool statistics are process-wide, so this file holds a single test:
//! nothing else in its process touches the pool while it counts.

use slice_nfsproto::{
    encode_call, encode_read_reply, encode_reply, AuthUnix, ByteBuf, Fattr3, Fhandle, FileType,
    NfsProc, NfsReply, NfsRequest, NfsStatus, NfsTime, ReplyBody, StableHow,
};

#[test]
fn bulk_encodes_miss_the_pool_only_while_it_is_cold() {
    let fh = Fhandle::new(7, 0, 0, 1, 0);
    let attr = Fattr3::new(FileType::Regular, 7, 0o644, NfsTime::default());
    let write = NfsRequest::Write {
        fh,
        offset: 0,
        stable: StableHow::Unstable,
        data: vec![0x5a; 32 * 1024],
    };
    let read = NfsReply {
        proc: NfsProc::Read,
        status: NfsStatus::Ok,
        attr: Some(attr),
        body: ReplyBody::Read {
            data: vec![0xa5; 32 * 1024],
            eof: false,
        },
    };
    // One round: each encode, then release the payload as a packet's
    // last holder would.
    let round = || {
        let call = encode_call(1, &AuthUnix::default(), &write);
        let reply = encode_reply(1, &read);
        let in_place = encode_read_reply(1, &attr, false, 32 * 1024, |buf| buf.fill(0xa5));
        assert_eq!(
            in_place, reply,
            "in-place READ reply differs from encode_reply"
        );
        assert!(call.len() > 32 * 1024 && reply.len() > 32 * 1024);
        for payload in [call, reply, in_place] {
            drop(ByteBuf::from_vec(payload));
        }
    };
    round();
    let (_, cold_misses, _) = slice_sim::pool::alloc_stats();
    assert!(cold_misses > 0, "the first round has nothing to reuse");
    for _ in 0..8 {
        round();
    }
    let (_, misses, _) = slice_sim::pool::alloc_stats();
    assert_eq!(
        misses, cold_misses,
        "a warm pool must serve every bulk encode: a miss here means an \
         encoder outgrew the buffer it asked for"
    );
}
