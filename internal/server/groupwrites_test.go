package server

import (
	"slices"
	"testing"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// TestGroupWritesSplitsByPartition checks the commit's write grouping: one
// outcome per partition in order of first appearance, each holding exactly
// its partition's writes in write-set order, and no group able to append
// into its neighbour's share of the common array.
func TestGroupWritesSplitsByPartition(t *testing.T) {
	srv := newBenchServer(t)
	topo := srv.cfg.Topology
	a, b := keysOn(t, topo, 1, 2), keysOn(t, topo, 2, 3)
	writes := []wire.KV{{Key: b[0]}, {Key: a[0]}, {Key: b[1]}, {Key: b[2]}, {Key: a[1]}}

	outcomes := srv.groupWrites(writes)
	want := []struct {
		part topology.PartitionID
		keys []string
	}{{2, b}, {1, a}}
	if len(outcomes) != len(want) {
		t.Fatalf("%d groups, want %d", len(outcomes), len(want))
	}
	for i, w := range want {
		out := outcomes[i]
		var keys []string
		for _, kv := range out.writes {
			keys = append(keys, kv.Key)
		}
		if out.part != w.part || !slices.Equal(keys, w.keys) {
			t.Fatalf("group %d: partition %d keys %v, want partition %d keys %v", i, out.part, keys, w.part, w.keys)
		}
		if cap(out.writes) != len(out.writes) {
			t.Fatalf("group %d: cap %d beyond its %d writes", i, cap(out.writes), len(out.writes))
		}
	}
}
