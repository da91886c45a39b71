// Package wire is the multi-tenant backup protocol's frame format: the
// length-prefixed, CRC-framed message layer spoken between
// freqdedup.RemoteClient and the internal/server session handler. It
// follows the same framing discipline as the on-disk .fdc/.fdr/.fdt
// formats — self-identifying magic, explicit lengths, a trailing CRC —
// so a torn, truncated, or corrupted stream surfaces as ErrCorruptFrame,
// never as silently wrong bytes.
//
// # Frame format
//
// Every frame is:
//
//	offset  size  field
//	0       4     magic   0x46445731 ("FDW1"), big-endian
//	4       4     type    frame type (T* constants)
//	8       4     len     payload length, <= MaxPayload (64 MiB)
//	12      len   payload type-specific (below)
//	12+len  4     crc     CRC-32 (IEEE) over header and payload
//
// All integers are big-endian. Strings (tenant, snapshot names, error
// messages) are u8-length-prefixed and at most MaxName bytes; chunk
// ciphertexts are u32-length-prefixed. A payload must parse exactly —
// trailing bytes are a framing error.
//
// # Session flow
//
// A session opens with THello {version u32, tenant str (non-empty),
// token bytes} and is accepted with THelloOK {version u32, windowChunks
// u32, maxInflight u32, maxChunkBytes u32} — the server's advertised
// limits, which the client must respect — or rejected with TError {code
// u32, msg str}. The
// token authenticates the tenant (bearer token, constant-time compared);
// the transport itself is plaintext TCP, so production deployments put a
// TLS terminator or trusted network segment in front (see the README's
// threat-model note — the negotiation traffic is itself the side channel
// this package exists to measure).
//
// A backup is a chunk negotiation loop with bounded in-flight windows:
//
//	C: TBackupBegin {name str}
//	S: TBackupReady {}
//	C: TNegotiate {seq u32, n u32, n x (cfp [8]byte, ctSize u32)}
//	S: TNegotiateReply {seq u32, n u32, missBitmap ceil(n/8) bytes,
//	                    padding bits zero}
//	C: TChunkData {seq u32, m u32, m x (len u32, ciphertext)}
//	S: TWindowAck {seq u32}
//	... (windows pipeline: at most maxInflight unacknowledged seqs)
//	C: TBackupCommit {n u32, n x (cfp [8]byte, key [32]byte, size u32)}
//	S: TBackupDone {name str, createdUnix u64, logicalBytes u64, chunks u32}
//
// TNegotiate is the dedup query — "have you seen these fingerprints?" —
// and TNegotiateReply's bitmap (bit i set = chunk i missing, upload it)
// is the dedup answer. The pair is exactly the negotiation side channel:
// the query stream reveals the client's chunk sequence pre-acknowledgment
// and the miss bitmap reveals the shared store's cross-tenant dedup
// state. The server records both transcripts per session (see the root
// package's negotiation log). Window sequence numbers start at 0 and
// increase by 1 in stream order; TChunkData must carry exactly the
// negotiated window's missed chunks in bitmap order, each ciphertext
// fingerprint-verified by the server before it may enter the shared
// store (a tenant must not be able to poison another tenant's dedup
// hits). TBackupCommit's entries must match the negotiated stream
// fingerprint-for-fingerprint; the recipe crosses the session in
// plaintext and is sealed by the server under the repository key, so a
// reopened repository rebuilds refcounts without per-tenant keys (a
// deliberate deviation from client-sealed recipes, documented in the
// README). An acknowledged TBackupDone means the snapshot is durable:
// containers sealed and synced, catalog fsynced.
//
// A restore is a server-paced stream:
//
//	C: TRestoreReq {name str}
//	S: TRestoreData {bytes} ... repeated
//	S: TRestoreEnd {totalBytes u64}
//
// TSnapshotsReq {} / TSnapshotsReply {n u32, n x snapshotInfo},
// TDeleteReq {name str} / TDeleteOK {}, and TStatsReq {} / TStatsReply
// {tenantUsage} are simple request/response pairs. Snapshot names on the
// wire are tenant-relative; the server prefixes "tenant/" internally.
//
// TError mid-backup aborts the session; for protocol violations (bad
// state, limit violations, fingerprint mismatches) the server closes the
// connection after sending it.
package wire
