package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
)

// The codec is a hand-rolled binary format (the paper uses protobufs; any
// self-describing framing preserves behaviour and the stdlib constraint
// rules protobuf out). Layout: one Kind byte followed by the message body.
// Lengths, counts and small scalars are unsigned varints; hlc.Timestamps and
// TxIDs are delta chains — the first occurrence in a message is a fixed
// 8-byte value, every later one a zigzag varint of the difference from the
// previous one of the same type. Commit timestamps inside a batch are dense
// and ascending, and TxIDs from one coordinator differ only in their low
// sequence bits, so the chains collapse both to one or two bytes each.
//
// Each message type describes its body once, as a walk method that lists its
// fields in wire order (message.go), and walkMsg is the one list of kinds.
// Encode, Decode and ApproxSize all run that walk, over a codec in the
// matching mode.

// ErrTruncated reports a message shorter than its declared contents.
var ErrTruncated = errors.New("wire: truncated message")

// ErrMalformed reports a structurally invalid message: a varint that
// overflows its field or is not in its shortest form, an enum value out of
// range, a retired message kind, or a version this build does not speak.
var ErrMalformed = errors.New("wire: malformed message")

var (
	errRetiredKind = fmt.Errorf("%w: retired message kind", ErrMalformed)
	errUnknownKind = errors.New("wire: unknown message kind")
	errUnencodable = errors.New("wire: message type does not match its kind")
)

// Encode serializes msg (kind byte + body) into a fresh buffer.
func Encode(msg Message) []byte {
	return AppendMessage(nil, msg)
}

// AppendMessage appends the encoding of msg to buf and returns the result.
// It is single-pass: the message is walked exactly once, appending as it
// goes — there is no size pre-computation step.
func AppendMessage(buf []byte, msg Message) []byte {
	c := codec{mode: encoding, buf: append(buf, byte(msg.Kind()))}
	if walkMsg(&c, msg.Kind(), msg); c.err != nil {
		// msg's type is not the one its kind describes (a pointer to a
		// message, say). Keep the byte stream valid by encoding an error, so
		// a peer fails loudly instead of hanging.
		return AppendMessage(buf, ErrorResp{Msg: fmt.Sprintf("unencodable message %T", msg)})
	}
	return c.buf
}

// Decode parses a message previously produced by Encode/AppendMessage. The
// message never aliases data, which the caller may reuse at once. Its
// strings share one copy of data and its byte values one arena, so a key or
// value kept from it keeps that copy alive; copy what outlives the message.
func Decode(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	kind, c := Kind(data[0]), codec{mode: decoding, buf: data[1:]}
	msg := walkMsg(&c, kind, nil)
	if c.err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", kind, c.err)
	}
	if len(c.buf) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(c.buf), kind)
	}
	return msg, nil
}

// ApproxSize bounds a message's encoded size from above without encoding
// it: every field is charged its widest encoding. The flow-control layer
// uses it to charge token buckets and account send-queue depth, and MemNet
// uses it to model link serialization time. The bound is additive: a
// ReplicateBatch's is that of the batch without its groups plus GroupSize of
// each group, and a ReplSyncResp's that of the response without its items
// plus ItemSize of each item.
func ApproxSize(msg Message) int {
	c := codec{mode: sizing, size: 1} // the kind byte
	walkMsg(&c, msg.Kind(), msg)
	return c.size
}

// GroupSize is ApproxSize's charge for one group of a ReplicateBatch.
func GroupSize(g ReplicateGroup) int {
	c := codec{mode: sizing}
	c.group(&g)
	return c.size
}

// ItemSize is ApproxSize's charge for one item of a ReplSyncResp, ReadResp
// or ReadSliceResp.
func ItemSize(it Item) int {
	c := codec{mode: sizing}
	c.item(&it)
	return c.size
}

// walkMsg walks the body of a message of kind k. Encoding and sizing walk
// msg, which must have kind k's type; decoding walks a zero message of that
// type and returns it.
func walkMsg(c *codec, k Kind, msg Message) Message {
	switch k {
	case KindStartTxReq:
		return as(c, msg, (*StartTxReq).walk)
	case KindStartTxResp:
		return as(c, msg, (*StartTxResp).walk)
	case KindReadReq:
		return as(c, msg, (*ReadReq).walk)
	case KindReadResp:
		return as(c, msg, (*ReadResp).walk)
	case KindCommitReq:
		return as(c, msg, (*CommitReq).walk)
	case KindCommitResp:
		return as(c, msg, (*CommitResp).walk)
	case KindFinishTx:
		return as(c, msg, (*FinishTx).walk)
	case KindReadSliceReq:
		return as(c, msg, (*ReadSliceReq).walk)
	case KindReadSliceResp:
		return as(c, msg, (*ReadSliceResp).walk)
	case KindPrepareReq:
		return as(c, msg, (*PrepareReq).walk)
	case KindPrepareResp:
		return as(c, msg, (*PrepareResp).walk)
	case KindCohortCommit:
		return as(c, msg, (*CohortCommit).walk)
	case KindGSTUp:
		return as(c, msg, (*GSTUp).walk)
	case KindGSTRoot:
		return as(c, msg, (*GSTRoot).walk)
	case KindUSTDown:
		return as(c, msg, (*USTDown).walk)
	case KindError:
		return as(c, msg, (*ErrorResp).walk)
	case KindReplicateBatch:
		return as(c, msg, (*ReplicateBatch).walk)
	case KindAbortTx:
		return as(c, msg, (*AbortTx).walk)
	case KindTxStatusReq:
		return as(c, msg, (*TxStatusReq).walk)
	case KindTxStatusResp:
		return as(c, msg, (*TxStatusResp).walk)
	case KindCommitRecover:
		return as(c, msg, (*CommitRecover).walk)
	case KindReplSyncReq:
		return as(c, msg, (*ReplSyncReq).walk)
	case KindReplSyncResp:
		return as(c, msg, (*ReplSyncResp).walk)
	case KindReplStatus:
		return as(c, msg, (*ReplStatus).walk)
	default:
		if k.retired() {
			c.fail(errRetiredKind)
		} else {
			c.fail(errUnknownKind)
		}
	}
	return nil
}

// as walks msg as a T with T's walk method. Decoding returns the decoded T;
// encoding and sizing return nothing, and fail unless msg is a T. Only
// decoding boxes: as is inlined into walkMsg, where walk becomes a direct
// call and T stays on the stack, so encoding and sizing allocate nothing
// (TestAllocBudgetEncode). A switch over walk methods called through an
// interface or a table would move every message and codec to the heap.
func as[T Message](c *codec, msg Message, walk func(*T, *codec)) Message {
	m, ok := msg.(T)
	walk(&m, c)
	if c.mode == decoding {
		return m
	}
	if !ok {
		c.fail(errUnencodable)
	}
	return nil
}

type mode uint8

const (
	encoding mode = iota
	decoding
	sizing
)

// codec walks one message body. Encoding appends each field to buf.
// Decoding consumes buf with sticky error handling: after the first failure
// every field is left zero and err survives for the caller to report.
// Sizing adds each field's widest encoding to size. The timestamp and TxID
// delta chains reset per message, so a codec walks exactly one body.
//
// Only decoding writes through the field pointers it is walked with:
// encoding and sizing read the message, which may be shared by goroutines
// encoding it for different peers.
//
// A decoded message never aliases its input (the transport reuses one frame
// buffer per connection), yet costs a fixed number of allocations however
// many keys it carries. Strings are substrings of one immutable copy of the
// message's bytes, taken at its first non-empty string; byte values are
// carved out of one mutable arena, taken at its first non-empty value. The
// price is retention: a decoded key keeps its message's string copy alive,
// just as a decoded value keeps its message's byte arena alive.
type codec struct {
	mode mode
	buf  []byte
	size int
	err  error

	hasTS, hasID   bool
	prevTS, prevID uint64

	// strs copies the buffer as it stood at the first non-empty string, so a
	// string starting with len(buf) bytes left lies at len(strs)-len(buf).
	strs  string
	arena []byte
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// store sets a decoded field.
func store[T any](c *codec, p *T, v T) {
	if c.mode == decoding {
		*p = v
	}
}

// u8 walks a one-byte field of value v; decoding rejects a value outside
// [lo, hi].
func (c *codec) u8(v, lo, hi uint8) uint8 {
	switch {
	case c.mode == encoding:
		c.buf = append(c.buf, v)
	case c.mode == sizing:
		c.size++
	case c.err != nil:
	case len(c.buf) == 0:
		c.fail(ErrTruncated)
	case c.buf[0] < lo || c.buf[0] > hi:
		c.fail(ErrMalformed)
	default:
		v, c.buf = c.buf[0], c.buf[1:]
	}
	return v
}

func (c *codec) bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	store(c, p, c.u8(v, 0, 1) == 1)
}

// status walks a TxStatus; decoding rejects a value that names no status.
func (c *codec) status(p *TxStatus) {
	store(c, p, TxStatus(c.u8(uint8(*p), uint8(TxStatusPending), uint8(TxStatusUnknown))))
}

func (c *codec) u16(p *uint16) { store(c, p, uint16(c.varint(uint64(*p), math.MaxUint16))) }

func (c *codec) u64(p *uint64) { store(c, p, c.varint(*p, math.MaxUint64)) }

// dc walks a data center id; decoding rejects a value above MaxInt32, which
// would become a negative DCID.
func (c *codec) dc(p *topology.DCID) {
	store(c, p, topology.DCID(c.varint(uint64(uint32(*p)), math.MaxInt32)))
}

func (c *codec) ts(p *hlc.Timestamp) {
	store(c, p, hlc.Timestamp(c.chain(uint64(*p), &c.hasTS, &c.prevTS)))
}

// id walks a TxID on a chain of its own: consecutive ids from one
// coordinator differ only in the low sequence bits, so the deltas are tiny.
func (c *codec) id(p *TxID) { store(c, p, TxID(c.chain(uint64(*p), &c.hasID, &c.prevID))) }

// varint walks an unsigned varint of value v, at most limit. Decoding
// returns the value read and rejects one above limit or not in its shortest
// form; sizing charges the encoding of limit.
func (c *codec) varint(v, limit uint64) uint64 {
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, v)
	case sizing:
		c.size += (bits.Len64(limit) + 6) / 7
	default:
		if c.err != nil {
			return 0
		}
		v, n := binary.Uvarint(c.buf)
		if n == 0 {
			c.fail(ErrTruncated) // ran out of bytes mid-varint
			return 0
		}
		if n < 0 || v > limit || n > 1 && c.buf[n-1] == 0 {
			c.fail(ErrMalformed)
			return 0
		}
		c.buf = c.buf[n:]
		return v
	}
	return v
}

// chain walks value v of a delta chain whose state is (started, prev): the
// chain's first value is a fixed 8 bytes, little-endian, every later one a
// zigzag varint of its difference from the value before (which varint
// returns as written when encoding). Sizing charges a ten-byte delta.
func (c *codec) chain(v uint64, started *bool, prev *uint64) uint64 {
	switch {
	case c.mode == sizing:
		c.size += binary.MaxVarintLen64
	case *started:
		v = *prev + uint64(unzigzag(c.varint(zigzag(int64(v-*prev)), math.MaxUint64)))
	case c.mode == encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
	case c.err != nil || len(c.buf) < 8:
		c.fail(ErrTruncated)
	default:
		v, c.buf = binary.LittleEndian.Uint64(c.buf), c.buf[8:]
	}
	*started, *prev = true, v
	return v
}

// zigzag folds a signed delta into an unsigned varint-friendly value
// (0, -1, 1, -2, ... → 0, 1, 2, 3, ...).
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// count walks the length prefix of a list, string or byte slice of n
// elements. Decoding returns the count read, rejecting one larger than the
// bytes left (every element takes at least one) before anything is
// allocated.
func (c *codec) count(n int) int {
	n = int(c.varint(uint64(n), math.MaxUint32))
	if c.mode == decoding && n > len(c.buf) {
		c.fail(ErrTruncated)
		return 0
	}
	return n
}

// list walks a list's count and returns its length; decoding allocates the
// list, whose elements the caller then walks in place.
func list[T any](c *codec, p *[]T) int {
	n := c.count(len(*p))
	if c.mode == decoding && n > 0 {
		*p = make([]T, n)
	}
	return n
}

func (c *codec) string(p *string) {
	n := c.count(len(*p))
	switch {
	case c.mode == encoding:
		c.buf = append(c.buf, *p...)
	case c.mode == sizing:
		c.size += n
	case c.err == nil && n > 0:
		if c.strs == "" {
			c.strs = string(c.buf)
		}
		off := len(c.strs) - len(c.buf)
		*p, c.buf = c.strs[off:off+n], c.buf[n:]
	}
}

func (c *codec) bytes(p *[]byte) {
	n := c.count(len(*p))
	switch {
	case c.mode == encoding:
		c.buf = append(c.buf, *p...)
	case c.mode == sizing:
		c.size += n
	case c.err == nil && n > 0:
		// All byte values of a message are disjoint subslices of the
		// remaining buffer, so an arena with the remaining length always fits
		// every later value too: one allocation per payload message.
		if c.arena == nil {
			c.arena = make([]byte, 0, len(c.buf))
		}
		start := len(c.arena)
		c.arena = append(c.arena, c.buf[:n]...)
		// Capped: appends must not clobber neighbours.
		*p, c.buf = c.arena[start:start+n:start+n], c.buf[n:]
	}
}

func (c *codec) keys(p *[]string) {
	for i := range list(c, p) {
		c.string(&(*p)[i])
	}
}

func (c *codec) cached(p *[]CachedKey) {
	for i := range list(c, p) {
		ck := &(*p)[i]
		c.string(&ck.Key)
		c.ts(&ck.UT)
	}
}

func (c *codec) kvs(p *[]KV) {
	for i := range list(c, p) {
		kv := &(*p)[i]
		c.string(&kv.Key)
		c.bytes(&kv.Value)
	}
}

func (c *codec) items(p *[]Item) {
	for i := range list(c, p) {
		c.item(&(*p)[i])
	}
}

func (c *codec) item(it *Item) {
	c.string(&it.Key)
	c.bytes(&it.Value)
	c.ts(&it.UT)
	c.id(&it.TxID)
	c.dc(&it.SrcDC)
}

func (c *codec) txns(p *[]TxUpdates) {
	for i := range list(c, p) {
		tx := &(*p)[i]
		c.id(&tx.TxID)
		c.dc(&tx.SrcDC)
		c.kvs(&tx.Writes)
	}
}

func (c *codec) groups(p *[]ReplicateGroup) {
	for i := range list(c, p) {
		c.group(&(*p)[i])
	}
}

func (c *codec) group(g *ReplicateGroup) {
	c.ts(&g.CT)
	c.txns(&g.Txns)
}
