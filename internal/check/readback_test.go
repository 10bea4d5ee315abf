package check

import (
	"strings"
	"testing"
)

// readBackHistory: session 1 writes x twice and y once, session 2 writes x
// at the same timestamp as session 1's second write with a higher id, and a
// read-only transaction writes nothing. Every transaction is consistent on
// its own, so Check finds nothing whatever the read-back says.
func readBackHistory() *History {
	var h History
	h.Add(Tx{Session: 1, Seq: 1, ID: 10, Snapshot: 1, CommitTS: 5, Writes: []string{"x", "y"}})
	h.Add(Tx{Session: 1, Seq: 2, ID: 11, Snapshot: 6, CommitTS: 9, Writes: []string{"x"}})
	h.Add(Tx{Session: 2, Seq: 1, ID: 12, Snapshot: 6, CommitTS: 9, Writes: []string{"x"}})
	h.Add(Tx{Session: 2, Seq: 2, Snapshot: 10, Reads: []ReadObs{{Key: "z"}}})
	return &h
}

func TestLastWritesPicksNewestByTimestampThenID(t *testing.T) {
	last := readBackHistory().LastWrites()
	if len(last) != 2 || last["x"].ID != 12 || last["y"].ID != 10 {
		t.Fatalf("LastWrites = x:%v y:%v (%d keys), want x by tx 12, y by tx 10", last["x"], last["y"], len(last))
	}
}

// TestCheckReadBackCatchesLostWrites plants each way an acknowledged write
// can be missing from a final read-back. Check alone passes the history, so
// only the read-back catches them.
func TestCheckReadBackCatchesLostWrites(t *testing.T) {
	h := readBackHistory()
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("Check found %v in a history that is consistent without its read-back", vs)
	}
	good := map[string]ReadObs{
		"x": {Key: "x", Writer: 12, UT: 9, Found: true},
		"y": {Key: "y", Writer: 10, UT: 5, Found: true},
	}
	if vs := h.CheckReadBack(good); len(vs) != 0 {
		t.Fatalf("clean read-back flagged: %v", vs)
	}
	// A version newer than any recorded write is an unrecorded commit.
	if vs := h.CheckReadBack(map[string]ReadObs{
		"x": {Key: "x", Writer: 3, UT: 20, Found: true},
		"y": good["y"],
	}); len(vs) != 0 {
		t.Fatalf("read-back of a newer version flagged: %v", vs)
	}

	for name, tc := range map[string]struct {
		got  map[string]ReadObs
		want string
	}{
		"older version":            {map[string]ReadObs{"x": good["x"], "y": {Key: "y", Writer: 4, UT: 3, Found: true}}, `key "y"`},
		"same timestamp, lower id": {map[string]ReadObs{"x": {Key: "x", Writer: 11, UT: 9, Found: true}, "y": good["y"]}, `key "x"`},
		"nothing found":            {map[string]ReadObs{"x": good["x"], "y": {Key: "y"}}, `key "y"`},
		"key not read":             {map[string]ReadObs{"x": good["x"]}, `key "y" was not read back`},
	} {
		vs := h.CheckReadBack(tc.got)
		if len(vs) != 1 || vs[0].Kind != KindLostWrite || !strings.Contains(vs[0].Detail, tc.want) {
			t.Errorf("%s: got %v, want one %s violation naming %s", name, vs, KindLostWrite, tc.want)
		}
	}
}
