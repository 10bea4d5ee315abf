package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
)

// The codec is a hand-rolled binary format (the paper uses protobufs; any
// self-describing framing preserves behaviour and the stdlib constraint
// rules protobuf out). Layout: one Kind byte followed by the message body.
// Two body formats exist, selected out of band (the TCP transport tags each
// frame with the version its peer negotiated; everything else speaks v1):
//
//   - V1: little-endian fixed-width scalars; strings, byte slices and slice
//     counts carry uint32 length prefixes.
//   - V2: lengths, counts and small scalars are unsigned varints;
//     hlc.Timestamps and TxIDs are delta chains — the first occurrence in a
//     message is a fixed 8-byte value, every later one a zigzag varint of
//     the difference from the previous one of the same type. Commit
//     timestamps inside a batch are dense and ascending, and TxIDs from one
//     coordinator differ only in their low sequence bits, so the chains
//     collapse both to one or two bytes each.
//
// Both versions share one encoder type switch and one decoder kind switch;
// the version lives in the writer/reader state, so a message kind cannot be
// encodable in one version and not the other (the wiresync analyzer checks
// the shared switches).

// Version selects a codec body format. The zero value is not a valid
// version; V1 is the implicit default everywhere a version is not
// negotiated.
type Version uint8

const (
	// V1 is the original fixed-width little-endian format.
	V1 Version = 1
	// V2 is the compact varint/delta format.
	V2 Version = 2
	// MaxVersion is the newest format this build speaks.
	MaxVersion = V2
)

// ErrTruncated reports a message shorter than its declared contents.
var ErrTruncated = errors.New("wire: truncated message")

// ErrMalformed reports a structurally invalid message: a varint that
// overflows its field, or a version this build does not speak.
var ErrMalformed = errors.New("wire: malformed message")

// maxSliceLen bounds decoded slice lengths to keep a corrupt or malicious
// length prefix from allocating unbounded memory.
const maxSliceLen = 1 << 26 // 64 Mi elements / bytes

// Encode serializes msg (kind byte + v1 body) into a fresh buffer.
func Encode(msg Message) []byte {
	return AppendMessageV(nil, msg, V1)
}

// EncodeV serializes msg with the given codec version into a fresh buffer.
func EncodeV(msg Message, v Version) []byte {
	return AppendMessageV(nil, msg, v)
}

// AppendMessage appends the v1 encoding of msg to buf and returns the
// result.
func AppendMessage(buf []byte, msg Message) []byte {
	return AppendMessageV(buf, msg, V1)
}

// AppendMessageV appends the encoding of msg in codec version v to buf and
// returns the result. It is single-pass: the message is walked exactly once,
// appending as it goes — there is no size pre-computation step.
func AppendMessageV(buf []byte, msg Message, v Version) []byte {
	e := enc{buf: buf, v2: v >= V2}
	e.buf = append(e.buf, byte(msg.Kind()))
	switch m := msg.(type) {
	case StartTxReq:
		e.ts(m.ClientUST)
	case StartTxResp:
		e.id(m.TxID)
		e.ts(m.Snapshot)
	case ReadReq:
		e.id(m.TxID)
		e.ts(m.ClientUST)
		e.strings(m.Keys)
		e.cached(m.Cached)
	case ReadResp:
		e.id(m.TxID)
		e.ts(m.Snapshot)
		e.items(m.Items)
	case CommitReq:
		e.id(m.TxID)
		e.ts(m.ClientUST)
		e.ts(m.HWT)
		e.kvs(m.Writes)
	case CommitResp:
		e.id(m.TxID)
		e.ts(m.Snapshot)
		e.ts(m.CommitTS)
	case FinishTx:
		e.id(m.TxID)
	case ReadSliceReq:
		e.strings(m.Keys)
		e.ts(m.Snapshot)
	case ReadSliceResp:
		e.items(m.Items)
	case PrepareReq:
		e.id(m.TxID)
		e.ts(m.Snapshot)
		e.ts(m.HT)
		e.kvs(m.Writes)
	case PrepareResp:
		e.id(m.TxID)
		e.ts(m.Proposed)
	case PrepareBatch:
		e.count(len(m.Reqs))
		for _, p := range m.Reqs {
			e.id(p.TxID)
			e.ts(p.Snapshot)
			e.ts(p.HT)
			e.kvs(p.Writes)
		}
	case PrepareBatchResp:
		e.count(len(m.Resps))
		for _, r := range m.Resps {
			e.id(r.TxID)
			e.ts(r.Proposed)
			e.u16(r.Code)
			e.string(r.Msg)
		}
	case CohortCommit:
		e.id(m.TxID)
		e.ts(m.CommitTS)
	case CommitRecover:
		e.id(m.TxID)
		e.ts(m.CommitTS)
		e.kvs(m.Writes)
	case AbortTx:
		e.id(m.TxID)
	case TxStatusReq:
		e.id(m.TxID)
	case TxStatusResp:
		e.id(m.TxID)
		e.u8(uint8(m.Status))
		e.ts(m.CommitTS)
	case Replicate:
		e.u32(uint32(m.SrcDC))
		e.ts(m.CT)
		e.txns(m.Txns)
	case ReplicateBatch:
		e.u32(uint32(m.SrcDC))
		e.u64(m.Epoch)
		e.u64(m.Seq)
		e.ts(m.UpTo)
		e.ts(m.UST)
		e.ts(m.Sold)
		e.u64(m.Round)
		e.count(len(m.Groups))
		for _, g := range m.Groups {
			e.ts(g.CT)
			e.txns(g.Txns)
		}
	case ReplSyncReq:
		e.u32(uint32(m.ReqDC))
		e.ts(m.FromTS)
	case ReplSyncResp:
		e.u32(uint32(m.SrcDC))
		e.u64(m.Epoch)
		e.u64(m.NextSeq)
		e.ts(m.UpTo)
		e.items(m.Items)
	case ReplStatus:
		e.u32(uint32(m.SrcDC))
		e.u64(m.Epoch)
		e.u64(m.NextSeq)
		e.ts(m.UpTo)
		e.ts(m.UST)
		e.ts(m.Sold)
		e.u64(m.QueuedBytes)
	case Heartbeat:
		e.u32(uint32(m.SrcDC))
		e.ts(m.TS)
	case GSTUp:
		e.bool(m.Active)
		e.ts(m.Min)
		e.ts(m.Oldest)
		e.u64(m.Round)
	case GSTRoot:
		e.u32(uint32(m.DC))
		e.bool(m.Active)
		e.ts(m.Min)
		e.ts(m.Oldest)
		e.u64(m.Round)
	case USTDown:
		e.ts(m.UST)
		e.ts(m.Sold)
		e.bool(m.Active)
	case Hello:
		e.u8(m.MaxVersion)
	case ErrorResp:
		e.u16(m.Code)
		e.string(m.Msg)
	default:
		// Unreachable for the closed Message set; keep the byte stream valid
		// by encoding an error so a peer fails loudly instead of hanging.
		e.buf = e.buf[:len(e.buf)-1]
		e.buf = append(e.buf, byte(KindError))
		e.u16(0)
		e.string(fmt.Sprintf("unencodable message %T", msg))
	}
	return e.buf
}

// Decode parses a v1 message previously produced by Encode/AppendMessage.
func Decode(data []byte) (Message, error) {
	return DecodeV(data, V1)
}

// DecodeV parses a message encoded with codec version v.
func DecodeV(data []byte, v Version) (Message, error) {
	if v != V1 && v != V2 {
		return nil, fmt.Errorf("%w: unsupported codec version %d", ErrMalformed, v)
	}
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	kind, r := Kind(data[0]), reader{buf: data[1:], v2: v == V2}
	var msg Message
	switch kind {
	case KindStartTxReq:
		msg = StartTxReq{ClientUST: r.ts()}
	case KindStartTxResp:
		msg = StartTxResp{TxID: r.id(), Snapshot: r.ts()}
	case KindReadReq:
		msg = ReadReq{TxID: r.id(), ClientUST: r.ts(), Keys: r.strings(), Cached: r.cached()}
	case KindReadResp:
		msg = ReadResp{TxID: r.id(), Snapshot: r.ts(), Items: r.items()}
	case KindCommitReq:
		msg = CommitReq{TxID: r.id(), ClientUST: r.ts(), HWT: r.ts(), Writes: r.kvs()}
	case KindCommitResp:
		msg = CommitResp{TxID: r.id(), Snapshot: r.ts(), CommitTS: r.ts()}
	case KindFinishTx:
		msg = FinishTx{TxID: r.id()}
	case KindReadSliceReq:
		msg = ReadSliceReq{Keys: r.strings(), Snapshot: r.ts()}
	case KindReadSliceResp:
		msg = ReadSliceResp{Items: r.items()}
	case KindPrepareReq:
		msg = PrepareReq{TxID: r.id(), Snapshot: r.ts(), HT: r.ts(), Writes: r.kvs()}
	case KindPrepareResp:
		msg = PrepareResp{TxID: r.id(), Proposed: r.ts()}
	case KindPrepareBatch:
		pb := PrepareBatch{}
		if n := r.sliceLen(); n > 0 {
			pb.Reqs = make([]PrepareReq, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				pb.Reqs = append(pb.Reqs, PrepareReq{
					TxID: r.id(), Snapshot: r.ts(), HT: r.ts(), Writes: r.kvs(),
				})
			}
		}
		msg = pb
	case KindPrepareBatchResp:
		pr := PrepareBatchResp{}
		if n := r.sliceLen(); n > 0 {
			pr.Resps = make([]PrepareResult, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				pr.Resps = append(pr.Resps, PrepareResult{
					TxID: r.id(), Proposed: r.ts(), Code: r.u16(), Msg: r.string(),
				})
			}
		}
		msg = pr
	case KindCohortCommit:
		msg = CohortCommit{TxID: r.id(), CommitTS: r.ts()}
	case KindCommitRecover:
		msg = CommitRecover{TxID: r.id(), CommitTS: r.ts(), Writes: r.kvs()}
	case KindAbortTx:
		msg = AbortTx{TxID: r.id()}
	case KindTxStatusReq:
		msg = TxStatusReq{TxID: r.id()}
	case KindTxStatusResp:
		msg = TxStatusResp{TxID: r.id(), Status: TxStatus(r.u8()), CommitTS: r.ts()}
	case KindReplicate:
		msg = Replicate{SrcDC: topology.DCID(r.u32()), CT: r.ts(), Txns: r.txns()}
	case KindReplicateBatch:
		rep := ReplicateBatch{SrcDC: topology.DCID(r.u32()), Epoch: r.u64(), Seq: r.u64(),
			UpTo: r.ts(), UST: r.ts(), Sold: r.ts(), Round: r.u64()}
		n := r.sliceLen()
		if n > 0 {
			rep.Groups = make([]ReplicateGroup, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				rep.Groups = append(rep.Groups, ReplicateGroup{CT: r.ts(), Txns: r.txns()})
			}
		}
		msg = rep
	case KindReplSyncReq:
		msg = ReplSyncReq{ReqDC: topology.DCID(r.u32()), FromTS: r.ts()}
	case KindReplSyncResp:
		msg = ReplSyncResp{SrcDC: topology.DCID(r.u32()), Epoch: r.u64(), NextSeq: r.u64(), UpTo: r.ts(), Items: r.items()}
	case KindReplStatus:
		msg = ReplStatus{SrcDC: topology.DCID(r.u32()), Epoch: r.u64(), NextSeq: r.u64(),
			UpTo: r.ts(), UST: r.ts(), Sold: r.ts(), QueuedBytes: r.u64()}
	case KindHeartbeat:
		msg = Heartbeat{SrcDC: topology.DCID(r.u32()), TS: r.ts()}
	case KindGSTUp:
		msg = GSTUp{Active: r.bool(), Min: r.ts(), Oldest: r.ts(), Round: r.u64()}
	case KindGSTRoot:
		msg = GSTRoot{DC: topology.DCID(r.u32()), Active: r.bool(), Min: r.ts(), Oldest: r.ts(), Round: r.u64()}
	case KindUSTDown:
		msg = USTDown{UST: r.ts(), Sold: r.ts(), Active: r.bool()}
	case KindHello:
		msg = Hello{MaxVersion: r.u8()}
	case KindError:
		msg = ErrorResp{Code: r.u16(), Msg: r.string()}
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	if r.err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", kind, r.err)
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(r.buf), kind)
	}
	return msg, nil
}

// zigzag folds a signed delta into an unsigned varint-friendly value
// (0, -1, 1, -2, ... → 0, 1, 2, 3, ...).
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// --- encode side ---

// enc is the versioned writer. Delta chains (prevTS/prevID) reset per
// message: an enc value encodes exactly one message body.
type enc struct {
	buf []byte
	v2  bool

	hasTS, hasID   bool
	prevTS, prevID uint64
}

func (e *enc) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *enc) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *enc) u16(v uint16) {
	if e.v2 {
		e.buf = binary.AppendUvarint(e.buf, uint64(v))
		return
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

func (e *enc) u32(v uint32) {
	if e.v2 {
		e.buf = binary.AppendUvarint(e.buf, uint64(v))
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *enc) u64(v uint64) {
	if e.v2 {
		e.buf = binary.AppendUvarint(e.buf, v)
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// ts writes a timestamp: fixed-width in v1; in v2 the first timestamp of the
// message is fixed 8 bytes and every later one is a zigzag varint delta
// against the previous timestamp written.
func (e *enc) ts(t hlc.Timestamp) {
	if !e.v2 {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(t))
		return
	}
	if !e.hasTS {
		e.hasTS, e.prevTS = true, uint64(t)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(t))
		return
	}
	d := int64(uint64(t) - e.prevTS)
	e.prevTS = uint64(t)
	e.buf = binary.AppendUvarint(e.buf, zigzag(d))
}

// id writes a TxID the same way ts writes timestamps, on its own chain:
// consecutive ids from one coordinator differ only in the low sequence
// bits, so the deltas are tiny.
func (e *enc) id(v TxID) {
	if !e.v2 {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
		return
	}
	if !e.hasID {
		e.hasID, e.prevID = true, uint64(v)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
		return
	}
	d := int64(uint64(v) - e.prevID)
	e.prevID = uint64(v)
	e.buf = binary.AppendUvarint(e.buf, zigzag(d))
}

// count writes a slice length (or string/bytes length) prefix.
func (e *enc) count(n int) { e.u32(uint32(n)) }

func (e *enc) string(s string) {
	e.count(len(s))
	e.buf = append(e.buf, s...)
}

func (e *enc) bytes(b []byte) {
	e.count(len(b))
	e.buf = append(e.buf, b...)
}

func (e *enc) strings(ss []string) {
	e.count(len(ss))
	for _, s := range ss {
		e.string(s)
	}
}

func (e *enc) cached(cks []CachedKey) {
	e.count(len(cks))
	for _, ck := range cks {
		e.string(ck.Key)
		e.ts(ck.UT)
	}
}

func (e *enc) kvs(kvs []KV) {
	e.count(len(kvs))
	for _, kv := range kvs {
		e.string(kv.Key)
		e.bytes(kv.Value)
	}
}

func (e *enc) txns(txns []TxUpdates) {
	e.count(len(txns))
	for _, tx := range txns {
		e.id(tx.TxID)
		e.u32(uint32(tx.SrcDC))
		e.kvs(tx.Writes)
	}
}

func (e *enc) items(items []Item) {
	e.count(len(items))
	for _, it := range items {
		e.string(it.Key)
		e.bytes(it.Value)
		e.ts(it.UT)
		e.id(it.TxID)
		e.u32(uint32(it.SrcDC))
	}
}

// --- decode side ---

// reader consumes a buffer with sticky error handling: after the first
// failure every accessor returns zero values and the error survives for the
// caller to report. Byte-slice values are carved out of one lazily allocated
// arena sized to the remaining buffer, so a payload message costs one value
// allocation total instead of one per item (strings still allocate
// individually — Go strings cannot share a mutable backing array).
type reader struct {
	buf []byte
	err error
	v2  bool

	hasTS, hasID   bool
	prevTS, prevID uint64

	arena []byte
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// failMalformed marks a structural error (varint overflow) rather than a
// short buffer.
func (r *reader) failMalformed() {
	if r.err == nil {
		r.err = ErrMalformed
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.buf) < 1 {
		r.fail()
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) bool() bool { return r.u8() != 0 }

// fix64 reads a fixed-width little-endian u64 in both versions.
func (r *reader) fix64() uint64 {
	if r.err != nil || len(r.buf) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// uvarint reads an unsigned varint (v2 only).
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		if n == 0 {
			r.fail() // ran out of bytes mid-varint
		} else {
			r.failMalformed() // > 64-bit overflow
		}
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) u16() uint16 {
	if r.v2 {
		v := r.uvarint()
		if v > 1<<16-1 {
			r.failMalformed()
			return 0
		}
		return uint16(v)
	}
	if r.err != nil || len(r.buf) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.v2 {
		v := r.uvarint()
		if v > 1<<32-1 {
			r.failMalformed()
			return 0
		}
		return uint32(v)
	}
	if r.err != nil || len(r.buf) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.v2 {
		return r.uvarint()
	}
	return r.fix64()
}

// ts reads a timestamp, inverting enc.ts's per-message delta chain in v2.
func (r *reader) ts() hlc.Timestamp {
	if !r.v2 {
		return hlc.Timestamp(r.fix64())
	}
	if !r.hasTS {
		r.hasTS = true
		r.prevTS = r.fix64()
		return hlc.Timestamp(r.prevTS)
	}
	r.prevTS += uint64(unzigzag(r.uvarint()))
	return hlc.Timestamp(r.prevTS)
}

// id reads a TxID, inverting enc.id's chain in v2.
func (r *reader) id() TxID {
	if !r.v2 {
		return TxID(r.fix64())
	}
	if !r.hasID {
		r.hasID = true
		r.prevID = r.fix64()
		return TxID(r.prevID)
	}
	r.prevID += uint64(unzigzag(r.uvarint()))
	return TxID(r.prevID)
}

// length reads a string/bytes/slice length prefix with the sanity cap
// applied.
func (r *reader) length() int {
	var n uint64
	if r.v2 {
		n = r.uvarint()
	} else {
		n = uint64(r.u32())
	}
	if r.err != nil {
		return 0
	}
	if n > maxSliceLen {
		r.failMalformed()
		return 0
	}
	return int(n)
}

// sliceLen reads a count prefix and validates it against the bytes actually
// remaining (each element needs ≥1 byte).
func (r *reader) sliceLen() int {
	n := r.length()
	if r.err != nil {
		return 0
	}
	if n > len(r.buf) {
		r.fail()
		return 0
	}
	return n
}

// minElem is the smallest possible encoding of one slice element whose v1
// encoding occupies fixed bytes; the preflight length×minElem check rejects
// absurd counts before allocating.
func (r *reader) minElem(v1Size int) int {
	if r.v2 {
		return 1
	}
	return v1Size
}

func (r *reader) string() string {
	n := r.length()
	if r.err != nil || len(r.buf) < n {
		r.fail()
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *reader) bytes() []byte {
	n := r.length()
	if r.err != nil || len(r.buf) < n {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	// All byte values of a message are disjoint subslices of the remaining
	// buffer, so an arena with the remaining length always fits every later
	// value too: one allocation per payload message.
	if r.arena == nil {
		r.arena = make([]byte, 0, len(r.buf))
	}
	start := len(r.arena)
	r.arena = append(r.arena, r.buf[:n]...)
	b := r.arena[start : start+n : start+n] // capped: appends must not clobber neighbours
	r.buf = r.buf[n:]
	return b
}

func (r *reader) strings() []string {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	if n*r.minElem(4) > len(r.buf) {
		r.fail()
		return nil
	}
	ss := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		ss = append(ss, r.string())
	}
	return ss
}

func (r *reader) cached() []CachedKey {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	cks := make([]CachedKey, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		cks = append(cks, CachedKey{Key: r.string(), UT: r.ts()})
	}
	return cks
}

func (r *reader) kvs() []KV {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	kvs := make([]KV, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		kvs = append(kvs, KV{Key: r.string(), Value: r.bytes()})
	}
	return kvs
}

func (r *reader) txns() []TxUpdates {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	txns := make([]TxUpdates, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		txns = append(txns, TxUpdates{
			TxID:   r.id(),
			SrcDC:  topology.DCID(r.u32()),
			Writes: r.kvs(),
		})
	}
	return txns
}

func (r *reader) items() []Item {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	items := make([]Item, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		items = append(items, Item{
			Key:   r.string(),
			Value: r.bytes(),
			UT:    r.ts(),
			TxID:  r.id(),
			SrcDC: topology.DCID(r.u32()),
		})
	}
	return items
}

// --- fixed-width primitive helpers (v1 layout; used by tests and sizing) ---

func putU16(buf []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(buf, v)
}

func putU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func putU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}
