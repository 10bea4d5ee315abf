package wire

import "fmt"

// Names kept for the benchmark module (benchmark/), a module of its own that
// compiles against this package: its probes encode and decode through the
// version-named entry points, and it counts replication and 2PC traffic by
// kind, retired kinds included. Nothing in this module sends a retired kind
// or calls the wrappers.

// Retired message kinds. Their numeric values stay reserved so that the
// values of the live kinds never shift; the decoder rejects all five with
// ErrMalformed. KindReplicate and KindHeartbeat were the unbatched
// replication path, one message per commit timestamp plus an idle
// heartbeat, both now carried by ReplicateBatch; KindPrepareBatch and
// KindPrepareBatchResp coalesced concurrent prepares from one coordinator to
// one cohort, and each remote prepare is now one PrepareReq call; KindHello
// was the per-connection codec negotiation of a transport that spoke two
// codecs.
const (
	KindReplicate        Kind = 13
	KindHeartbeat        Kind = 14
	KindPrepareBatch     Kind = 23
	KindPrepareBatchResp Kind = 24
	KindHello            Kind = 29
)

// retired reports whether k is one of the retired kinds above.
func (k Kind) retired() bool {
	switch k {
	case KindReplicate, KindHeartbeat, KindPrepareBatch, KindPrepareBatchResp, KindHello:
		return true
	}
	return false
}

// Version names a codec body format. The codec has one format, MaxVersion.
type Version uint8

// MaxVersion is the one codec format this build speaks.
const MaxVersion Version = 2

// AppendMessageV is AppendMessage; v is accepted for source compatibility
// and must be MaxVersion.
func AppendMessageV(buf []byte, msg Message, v Version) []byte {
	return AppendMessage(buf, msg)
}

// DecodeV is Decode for callers that name the version; any version other
// than MaxVersion is rejected with ErrMalformed.
func DecodeV(data []byte, v Version) (Message, error) {
	if v != MaxVersion {
		return nil, fmt.Errorf("%w: unsupported codec version %d", ErrMalformed, v)
	}
	return Decode(data)
}
