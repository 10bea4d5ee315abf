package wire

import (
	"encoding/hex"
	"errors"
	"testing"
)

// TestGoldenBytes pins the encoding of every sample message, byte for byte:
// the wire format is what peers of other builds read, so a change to how the
// codec is written must leave these bytes as they are. Entry i is the hex
// encoding of sampleMessages()[i], then of deltaChainMessages()[i].
func TestGoldenBytes(t *testing.T) {
	check := func(set string, msgs []Message, golden []string) {
		t.Helper()
		if len(msgs) != len(golden) {
			t.Fatalf("%s: %d messages but %d golden encodings", set, len(msgs), len(golden))
		}
		for i, msg := range msgs {
			if got := hex.EncodeToString(Encode(msg)); got != golden[i] {
				t.Errorf("%s[%d] %v encodes as\n %s\nwant\n %s", set, i, msg.Kind(), got, golden[i])
			}
		}
	}
	check("sampleMessages", sampleMessages(), []string{
		"010000000000000000",                                                                         // StartTxReq
		"01070040e201000000",                                                                         // StartTxReq
		"0263000000000c00030100580000000000",                                                         // StartTxResp
		"03010000000000000000000000000000000301610262620000",                                         // ReadReq
		"03030000000002000100000000000000000000",                                                     // ReadReq
		"03000000000000000003008e02000000000105666972737400",                                         // ReadReq
		"03000000000000000003008e02000000000105666972737402046d696e65838020008380d028",               // ReadReq
		"03000000000000000000000000000000000001046f6e6c7902",                                         // ReadReq
		"040000000000000000000000000000000000",                                                       // ReadResp
		"044d000000000500020000bc020000000002017803010203ffffb72b8781808080c0828004020000ffff271100", // ReadResp
		"050700000000000000000000000000000088802001016b0176",                                         // CommitReq
		"05080000000000000000000000000000000000",                                                     // CommitReq
		"0500000000000000000900030000000000f8ff0701046f6e6c7900",                                     // CommitReq
		"0600000000000000000000000000000000feffc73e",                                                 // CommitResp
		"0606000000000100010000e70300000000848010",                                                   // CommitResp
		"070000000080f40109",                                                                         // FinishTx
		"08020170017103004d0000000000",                                                               // ReadSliceReq
		"0901017a000100000000000000020000000000000001",                                               // ReadSliceResp
		"0a03000000000000000a000000000000001402016102787901620000",                                   // PrepareReq
		"0a04000000000000000a0000000000000014010163017a01",                                           // PrepareReq
		"0b03000000000000000000150000000000",                                                         // PrepareResp
		"0c03000000000000000200190000000000",                                                         // CohortCommit
		"19060000000000000000001a00000000000101720177",                                               // CommitRecover
		"190000000000000000000000000000000000",                                                       // CommitRecover
		"1a0200002a0000000000",                                                                       // ReplSyncReq
		"1b01092100002b00000000000101730174fbff0f070000000004000101",                                 // ReplSyncResp
		"1b000000000000000000000000",                                                                 // ReplSyncResp
		"142900000000070002",                                                                         // AbortTx
		"140000000000000000",                                                                         // AbortTx
		"151100000000030001",                                                                         // TxStatusReq
		"1611000000000300010201005a0000000000",                                                       // TxStatusResp
		"160000000000000000040000000000000000",                                                       // TxStatusResp
		"1303021100003c0000000000ffff0fffff17ceea9ee6a60a02ffffbf010215000000000000000301016101310203008080080102010201620001630100", // ReplicateBatch
		"130000000000460000000000ffffaf04000000",       // ReplicateBatch
		"130100000000470000000000ffffb704000100",       // ReplicateBatch
		"0f0103000c0000000000818060ceea9ee6a60a",       // GSTUp
		"0f0000000000000000000000",                     // GSTUp
		"100101ffffffffffffffff0effffffffffffffffff01", // GSTRoot
		"10000000000000000000000000",                   // GSTRoot
		"1c02051201002c0000000000818008ffff17808040",   // ReplStatus
		"1c0000000000000000000000000000",               // ReplStatus
		"110000370000000000ffff2701",                   // USTDown
		"12010873746f7070696e67",                       // Error
		"120000",                                       // Error
	})
	check("deltaChainMessages", deltaChainMessages(), []string{
		"0f0000000000000000000100",                   // GSTUp
		"0f00ffffffffffffffff0200",                   // GSTUp
		"0f00ffffffffffffffff0000",                   // GSTUp
		"0f0000000000000000800100",                   // GSTUp
		"0f00ffffffffffffff7f0200",                   // GSTUp
		"0f0005000000000000000000",                   // GSTUp
		"0f000000000000000080fffff3ffffffffffff0100", // GSTUp
		"1b01010200006300000000000301610131ffffc705e8030000000500020201620132808008c90f02016301338080088580808080c082800400", // ReplSyncResp
	})
}

// preSolePrepareReq is sampleMessages' first PrepareReq as encoded before
// the message carried Sole. A peer of that build sends a body one byte
// short, which must not decode.
const preSolePrepareReq = "0a03000000000000000a0000000000000014020161027879016200"

// retiredGolden holds the last encodings of the retired kinds.
var retiredGolden = []string{
	"170204000000000000000b0000000000000014010163017a02111400", // PrepareBatch
	"1700", // PrepareBatch
	"1802040000000000000001001700000000000000028180b8010408636f6e666c696374", // PrepareBatchResp
	"1800", // PrepareBatchResp
}

// TestRetiredGoldenBytes keeps the last encodings of the retired
// PrepareBatch and PrepareBatchResp kinds: a peer of an older build may still
// send them, and they must decode to ErrMalformed, never to a message of a
// later kind that reused 23 or 24.
func TestRetiredGoldenBytes(t *testing.T) {
	for _, golden := range retiredGolden {
		data, err := hex.DecodeString(golden)
		if err != nil {
			t.Fatal(err)
		}
		if msg, err := Decode(data); !errors.Is(err, ErrMalformed) {
			t.Errorf("Decode(%s) = %v, %v; want ErrMalformed", golden, msg, err)
		}
	}
}

// TestPreSolePrepareReqRefused: a PrepareReq without its Sole byte is
// truncated, not a prepare that silently defaults to two-phase commit.
func TestPreSolePrepareReqRefused(t *testing.T) {
	data, err := hex.DecodeString(preSolePrepareReq)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := Decode(data); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(%s) = %v, %v; want ErrTruncated", preSolePrepareReq, msg, err)
	}
}
