package bench

import (
	"bytes"
	"testing"
	"time"
)

func TestVisibilityDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("visibility driver runs multiple clusters; skipped in -short")
	}
	var out bytes.Buffer
	cmp, err := Visibility(quickOpts(&out))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Delta.Committed == 0 || cmp.TCP.Committed == 0 {
		t.Fatalf("arm committed nothing: memnet=%d tcp=%d", cmp.Delta.Committed, cmp.TCP.Committed)
	}
	// Every loaded arm must actually sample commit→stable latencies, and the
	// samples must be plausible (positive, under a minute).
	for name, vis := range map[string]VisSummary{"memnet": cmp.VisDelta, "tcp": cmp.VisTCP} {
		if vis.Samples == 0 {
			t.Fatalf("%s arm collected no visibility samples", name)
		}
		if vis.P50 <= 0 || vis.P99 > time.Minute || vis.P50 > vis.P99 || vis.MultiRound < 0 || vis.MultiRound > 1 {
			t.Fatalf("%s arm visibility percentiles implausible: %+v", name, vis)
		}
	}
	// Idle, each of the 24 tree and root edges carries one push per
	// GossipIdleMax (160 ms): 150 messages a second, against the 4 800 of one
	// per 5 ms round. The CI-short window sees each edge once or twice, hence
	// the slack; a plane that stayed busy would be an order of magnitude over.
	if cmp.IdleGossipDelta > 300 {
		t.Fatalf("idle gossip %.0f msgs/s, want ≤ 300 (loaded: %.0f)", cmp.IdleGossipDelta, cmp.LoadedGossipDelta)
	}
	// The stages of the attribution are reached in order, within the whole.
	a := cmp.Attribution
	if a.Samples == 0 || a.LocalApply <= 0 || a.LocalApply > a.PeerVV || a.PeerVV > a.DCRoot ||
		a.DCRoot > a.RootUST || a.RootUST > a.LastLeaf || a.LastLeaf > time.Second {
		t.Fatalf("attribution implausible: %+v", a)
	}
	// Hot-mix shape must clear the 25% budget (same bound as the wire-level
	// size test); the bulk shape just has to shrink.
	if float64(cmp.CodecV2Bytes) > 0.75*float64(cmp.CodecV1Bytes) {
		t.Fatalf("v2 codec (%dB) not ≥25%% smaller than v1 (%dB) on hot-mix round",
			cmp.CodecV2Bytes, cmp.CodecV1Bytes)
	}
	if cmp.CodecV2BulkBytes >= cmp.CodecV1BulkBytes {
		t.Fatalf("v2 codec (%dB) not smaller than v1 (%dB) on bulk round",
			cmp.CodecV2BulkBytes, cmp.CodecV1BulkBytes)
	}
	if cmp.RepairChunks == 0 {
		t.Fatal("flow-controlled probe served no repair chunks")
	}
	// One same-UT group of 256-byte single-write items can overshoot the
	// budget by at most one item's cost; anything beyond that means the
	// chunker is not bounding frames.
	slack := uint64(256 + 64)
	if cmp.RepairChunkMax > cmp.RepairChunkBudget+slack {
		t.Fatalf("repair chunk max %dB exceeds budget %dB (+%dB slack)",
			cmp.RepairChunkMax, cmp.RepairChunkBudget, slack)
	}
	rep := cmp.Report("visibility")
	if _, ok := rep.Summary["vis_tcp_multi_round_share"]; !ok || len(rep.Rows) != 2 || rep.Summary["vis_samples"] == 0 || rep.Summary["attr_last_leaf_p50_us"] == 0 {
		t.Fatalf("report malformed: %+v", rep)
	}
}
