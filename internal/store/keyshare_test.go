package store

import (
	"testing"
	"unsafe"

	"github.com/paris-kv/paris/internal/wire"
)

// TestStoredVersionsShareOneKey applies versions of one key, each decoded
// from a message of its own, and checks that the store keeps one string for
// the key — in every version and in the map — and that it is none of the
// decoded ones: a decoded key is a substring of its message's bytes, and a
// stored one would pin the whole message.
func TestStoredVersionsShareOneKey(t *testing.T) {
	const key = "user:42"
	decode := func(ut uint64) wire.Item {
		t.Helper()
		msg, err := wire.Decode(wire.Encode(wire.ReadSliceResp{Items: []wire.Item{item(key, ut, ut, 1, "v")}}))
		if err != nil {
			t.Fatal(err)
		}
		return msg.(wire.ReadSliceResp).Items[0]
	}
	// The third version is older than both: it becomes the chain's head.
	decoded := []wire.Item{decode(10), decode(20), decode(5)}
	s := New()
	for _, it := range decoded {
		s.Apply(it)
	}

	data := func(s string) *byte { return unsafe.StringData(s) }
	sh := s.shardFor(key)
	chain := sh.chains[key]
	if len(chain) != len(decoded) {
		t.Fatalf("chain holds %d versions, want %d", len(chain), len(decoded))
	}
	stored := data(chain[0].Key)
	for i, v := range chain {
		if data(v.Key) != stored {
			t.Fatalf("version %d keeps a key string of its own", i)
		}
	}
	for k := range sh.chains {
		if k == key && data(k) != stored {
			t.Fatal("the map key is not the versions' key string")
		}
	}
	for i, it := range decoded {
		if data(it.Key) == stored {
			t.Fatalf("the store keeps message %d's key string", i)
		}
	}
}
