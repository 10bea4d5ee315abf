package main

import (
	"bufio"
	"os"
	"strconv"
)

// span is one traced interval. Spans of one transaction share (Session, Tx);
// Parent names the span that caused it ("" for the root).
type span struct {
	Session int
	Tx      uint64
	Name    string
	Parent  string
	Start   int64 // ns since the benchmark's epoch
	End     int64
}

func (s span) dur() int64 { return s.End - s.Start }

// spansOf cuts a transaction's spans from its recorded boundaries:
// tx ⊃ {gen, begin, read, write, commit}, and vis (parent tx) when the commit
// was sampled for visibility. The gap between read and write is where the
// benchmark checks the values and records the history, so it shows up as the
// tx span's self time — tracing's own cost, kept out of every child.
func spansOf(session int, t txTrace) []span {
	mk := func(name, parent string, start, end int64) span {
		return span{Session: session, Tx: t.seq, Name: name, Parent: parent, Start: start, End: end}
	}
	out := []span{
		mk("tx", "", t.t0, t.t5),
		mk("gen", "tx", t.t0, t.t1),
		mk("begin", "tx", t.t1, t.t2),
		mk("read", "tx", t.t2, t.t3),
		mk("write", "tx", t.tw, t.t4),
		mk("commit", "tx", t.t4, t.t5),
	}
	if t.visEnd != 0 {
		out = append(out, mk("vis", "tx", t.t5, t.visEnd))
	}
	return out
}

// selfTime is a span's duration minus the part of its interval its children
// cover. Children are clipped to the parent (vis outlives tx) and overlapping
// children are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a transaction has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	covered, edge := int64(0), parent.Start
	for _, v := range ivs {
		if v.b > edge {
			covered += v.b - max(v.a, edge)
			edge = v.b
		}
	}
	return parent.dur() - covered
}

// writeSpans writes every worker's spans as JSON lines. The encoding is done
// by hand: a pass holds around a million spans and encoding/json would spend
// longer writing them than the pass spent recording them.
func writeSpans(path string, workers []*worker) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for _, w := range workers {
		for _, t := range w.traces {
			for _, s := range spansOf(w.id, t) {
				buf = buf[:0]
				buf = append(buf, `{"session":`...)
				buf = strconv.AppendInt(buf, int64(s.Session), 10)
				buf = append(buf, `,"tx":`...)
				buf = strconv.AppendUint(buf, s.Tx, 10)
				buf = append(buf, `,"name":"`...)
				buf = append(buf, s.Name...)
				buf = append(buf, `","parent":"`...)
				buf = append(buf, s.Parent...)
				buf = append(buf, `","start_ns":`...)
				buf = strconv.AppendInt(buf, s.Start, 10)
				buf = append(buf, `,"end_ns":`...)
				buf = strconv.AppendInt(buf, s.End, 10)
				buf = append(buf, "}\n"...)
				if _, err := bw.Write(buf); err != nil {
					_ = f.Close()
					return n, err
				}
				n++
			}
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return n, err
	}
	return n, f.Close()
}

// attachVis copies the watcher's visibility times into the traces they belong
// to, after the pass: the watcher never writes memory a session is appending to.
func attachVis(workers []*worker, done []visDone) {
	for _, d := range done {
		if d.trace >= 0 && d.trace < len(workers[d.worker].traces) {
			workers[d.worker].traces[d.trace].visEnd = d.end
		}
	}
}

// spanNs returns one duration per traced transaction of w, in time order.
func spanNs(w *worker, dur func(txTrace) int64) []uint32 {
	out := make([]uint32, len(w.traces))
	for i, t := range w.traces {
		out[i] = clampNs(dur(t))
	}
	return out
}

// The durations the per-layer table reads from a trace. A caller's latency
// runs from Begin to Commit's return; the root span also holds the generator,
// which is not the system's.
func genNs(t txTrace) int64    { return t.t1 - t.t0 }
func beginNs(t txTrace) int64  { return t.t2 - t.t1 }
func readNs(t txTrace) int64   { return t.t3 - t.t2 }
func commitNs(t txTrace) int64 { return t.t5 - t.t4 }
func txNs(t txTrace) int64     { return t.t5 - t.t1 }
func txSelfNs(t txTrace) int64 {
	sp := spansOf(0, t)
	return selfTime(sp[0], sp[1:])
}
