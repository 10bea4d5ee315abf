package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/paris-kv/paris/internal/racedetect"
)

func TestHotpathDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("hotpath driver runs closed loops on two transports")
	}
	var out bytes.Buffer
	cmp, err := Hotpath(quickOpts(&out))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Result{
		"memnet-1": cmp.MemNet1, "memnet-n": cmp.MemNetN,
		"tcp-1": cmp.TCP1, "tcp-n": cmp.TCPN,
	} {
		if r.Committed == 0 {
			t.Fatalf("%s committed no transactions", name)
		}
	}
	if cmp.ScalingMemNet <= 0 || cmp.ScalingTCP <= 0 {
		t.Fatalf("scaling not computed: %v / %v", cmp.ScalingMemNet, cmp.ScalingTCP)
	}
	if cmp.ReadSingleAllocs <= 0 || cmp.ReadSingleAllocs > cmp.ReadMultiAllocs {
		t.Fatalf("alloc profile inverted: single %v multi %v",
			cmp.ReadSingleAllocs, cmp.ReadMultiAllocs)
	}
	// The headline regression guard: the single-partition read path must
	// stay leaner than the recorded pre-overhaul baseline.
	if !racedetect.Enabled && cmp.ReadSingleAllocs >= seedBaseline["seed_read_single_allocs_per_op"] {
		t.Fatalf("single-partition read allocs/op regressed to %v (seed %v)",
			cmp.ReadSingleAllocs, seedBaseline["seed_read_single_allocs_per_op"])
	}
	if !strings.Contains(out.String(), "scaling") {
		t.Fatal("driver printed no summary")
	}
	rep := cmp.Report("hotpath")
	if len(rep.Rows) != 4 || rep.Summary["seed_read_single_allocs_per_op"] == 0 {
		t.Fatalf("report malformed: %+v", rep)
	}
}
