package server

import (
	"strings"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// TestBuildReplicateBatchesSizesMatchApproxSize pins the contract the flow
// pump relies on: the per-chunk sizes returned by buildReplicateBatches equal
// wire.ApproxSize of the corresponding chunk exactly, so the encode path can
// skip the second full walk per destination.
func TestBuildReplicateBatchesSizesMatchApproxSize(t *testing.T) {
	mk := func(id wire.TxID, ct hlc.Timestamp, keys ...string) committedTx {
		c := committedTx{id: id, ct: ct, srcDC: 2}
		for i, k := range keys {
			c.writes = append(c.writes, wire.KV{
				Key:   k,
				Value: []byte(strings.Repeat("v", 1+i*13)),
			})
		}
		return c
	}

	cases := []struct {
		name     string
		ready    []committedTx
		maxBytes int
	}{
		{"empty heartbeat", nil, 1 << 20},
		{"one round one chunk", []committedTx{
			mk(1, 10, "alpha", "b"),
			mk(2, 10, "carrier-key"),
			mk(3, 11, "z"),
		}, 1 << 20},
		{"split groups", []committedTx{
			mk(1, 10, "a", "b", "c"),
			mk(2, 11, "d", "e", "f"),
			mk(3, 12, "g", "h", "i"),
		}, 150},
		{"split by bytes", []committedTx{
			mk(1, 10, "key-one"),
			mk(2, 11, "key-two"),
			mk(3, 12, "key-three"),
		}, 1},
		{"oversized group travels whole", []committedTx{
			mk(1, 10, "a", "bb", "ccc", "dddd", "eeeee", "ffffff"),
			mk(2, 11, "tail"),
		}, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chunks, sizes := buildReplicateBatches(nil, nil, 2, 1, tc.ready, 50, tc.maxBytes)
			if len(chunks) != len(sizes) {
				t.Fatalf("%d chunks but %d sizes", len(chunks), len(sizes))
			}
			for i, c := range chunks {
				if want := wire.ApproxSize(c); sizes[i] != want {
					t.Fatalf("chunk %d size = %d, ApproxSize = %d", i, sizes[i], want)
				}
			}
		})
	}
}
