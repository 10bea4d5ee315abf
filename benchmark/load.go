package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/paris-kv/paris/internal/check"
	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/wire"
)

const (
	// numWindows cuts every driven interval into equal windows (2.5 s each in
	// the default 20 s); their rates' spread flags a disturbed run.
	numWindows   = 8
	visPoll      = 250 * time.Microsecond
	ustSampleGap = 50 * time.Millisecond
	ringSize     = 256 // last writes per session kept for the final read-back
	// checkedTxs is how many traced transactions are recorded as check.Tx and
	// validated; the checker's closure is superlinear, so the rest of the pass
	// runs without the recording.
	checkedTxs = 1500
)

// clock is nanoseconds since the benchmark's epoch, on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// writeRec remembers one acknowledged write for the final read-back.
type writeRec struct {
	key string
	val []byte
	ct  hlc.Timestamp
	tx  wire.TxID
}

// txTrace is one traced transaction's span boundaries, from which the seven
// spans of spansOf are cut. visEnd is filled in after the pass.
type txTrace struct {
	seq                        uint64
	t0, t1, t2, t3, tw, t4, t5 int64 // gen | begin | read | (check, record) | write | commit
	visEnd                     int64 // 0 when the transaction was not sampled
}

// worker is one session's closed loop and everything it measures.
type worker struct {
	id   int
	sess session
	gen  *generator
	seq  uint64 // transactions attempted over the session's lifetime

	ring    [ringSize]writeRec
	ringPos int
	updates uint64 // committed update transactions, for visibility sampling

	// Per-phase results, reset by drive.
	attempted, failed uint64
	wrong             uint64 // failed because a result was wrong, not because a call errored
	firstErr          error
	windows           [numWindows]uint64 // committed per window
	txNs, readNs      []uint32
	commitNs          []uint32
	traces            []txTrace
	history           []check.Tx
	// The client's counters at the loop's two ends, read by the loop itself:
	// a Client is not safe to read from another goroutine while it runs.
	statsBefore, statsAfter client.Stats
}

// visReq asks the watcher to time one commit's universal visibility.
type visReq struct {
	worker int
	trace  int // index into the worker's traces, -1 untraced
	ct     hlc.Timestamp
	at     int64
}

type visDone struct {
	visReq
	end int64
}

// watcher is the one benchmark goroutine beside the sessions. It polls the
// minimum UST every visPoll and times each sampled commit until that minimum
// covers it; in the traced pass it also samples UST lag and spread.
type watcher struct {
	servers []*server.Server
	// reqs is sized for the commits two sessions can sample while one poll
	// is in progress, with two orders of magnitude to spare; a full channel
	// drops the sample and counts it rather than stall a session.
	reqs    chan visReq
	dropped uint64 // written by workers under mu
	mu      sync.Mutex

	sampleUST bool
	done      []visDone
	lagMs     []float64
	spreadMs  []float64

	stop chan struct{}
	wg   sync.WaitGroup
}

func startWatcher(servers []*server.Server, sampleUST bool) *watcher {
	w := &watcher{
		servers:   servers,
		reqs:      make(chan visReq, 4096),
		sampleUST: sampleUST,
		stop:      make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

func (w *watcher) submit(r visReq) {
	select {
	case w.reqs <- r:
	default:
		w.mu.Lock()
		w.dropped++
		w.mu.Unlock()
	}
}

func (w *watcher) run() {
	defer w.wg.Done()
	var pending []visReq
	nextSample := now()
	stopping := false
	var giveUp int64
	for {
		for drained := false; !drained; {
			select {
			case r := <-w.reqs:
				pending = append(pending, r)
			default:
				drained = true
			}
		}
		low, high := minUST(w.servers)
		t := now()
		kept := pending[:0]
		for _, r := range pending {
			if r.ct <= low {
				w.done = append(w.done, visDone{visReq: r, end: t})
			} else {
				kept = append(kept, r)
			}
		}
		pending = kept
		if w.sampleUST && t >= nextSample {
			nextSample = t + int64(ustSampleGap)
			wall := uint64(time.Now().UnixMilli())
			w.lagMs = append(w.lagMs, float64(wall)-float64(low.Physical()))
			w.spreadMs = append(w.spreadMs, float64(high.Physical())-float64(low.Physical()))
		}
		if !stopping {
			select {
			case <-w.stop:
				stopping = true
				giveUp = t + int64(time.Second) // let the last commits become visible
			default:
			}
		}
		if stopping && (len(pending) == 0 && len(w.reqs) == 0 || t > giveUp) {
			return
		}
		time.Sleep(visPoll)
	}
}

// finish stops the watcher once the outstanding samples are visible (or a
// second has passed) and returns what it timed.
func (w *watcher) finish() []visDone {
	close(w.stop)
	w.wg.Wait()
	return w.done
}

// procCounters are the process-wide counters read at a phase's two ends only:
// ReadMemStats stops the world, so it never runs inside the interval.
type procCounters struct {
	mem   runtime.MemStats
	cpuNs int64
	host  hostTicks
	msgs  uint64
	sent  netCounters
	srv   serverTotals
}

type serverTotals struct {
	slices, prepares, prepBatches, prepBatched, pumpWakeups uint64
	replBatches, replItems, gossipSent, gossipSuppressed    uint64
	aborted, readFailovers, gcRemoved                       uint64
}

func sumServers(servers []*server.Server) serverTotals {
	var t serverTotals
	for _, s := range servers {
		m := s.Metrics()
		t.slices += m.SlicesServed
		t.prepares += m.Prepares
		t.prepBatches += m.PrepareBatches
		t.prepBatched += m.PrepareBatchedReqs
		t.pumpWakeups += m.PrepPumpWakeups
		t.replBatches += m.ReplBatches
		t.replItems += m.ReplItems
		t.gossipSent += m.GossipSent
		t.gossipSuppressed += m.GossipSuppressed
		t.aborted += m.TxAborted
		t.readFailovers += m.ReadFailovers
		t.gcRemoved += m.GCRemoved
	}
	return t
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostTicks is the first line of /proc/stat: the clock ticks every processor of
// the box has spent, and how many of them the hypervisor gave to someone else.
type hostTicks struct{ total, steal uint64 }

func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	var f [8]uint64 // user nice system idle iowait irq softirq steal
	_, _ = fmt.Sscanf(string(data), "cpu %d %d %d %d %d %d %d %d", &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7])
	var h hostTicks
	for _, v := range f {
		h.total += v
	}
	h.steal = f[7]
	return h
}

// stealPct is the share of the box's processor time, in percent, that the
// hypervisor took away between two readings.
func stealPct(a, b hostTicks) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var v float64
	_, _ = fmt.Sscanf(string(data), "%f", &v)
	return v
}

// snapshotProc reads every counter the per-layer table differences. full adds
// the per-kind and per-server counters the traced pass needs; the untraced
// interval reads only what its three count metrics use.
func snapshotProc(d deployment, full bool) procCounters {
	var p procCounters
	if full {
		p.sent = snapshotNet(d)
		p.msgs = p.sent.sent
		p.srv = sumServers(d.servers())
	} else {
		p.msgs = messagesSent(d)
	}
	p.cpuNs = cpuNs()
	p.host = readHostTicks()
	runtime.ReadMemStats(&p.mem)
	return p
}

// phase is one driven interval's outcome.
type phase struct {
	seconds    float64
	before     procCounters
	after      procCounters
	vis        []visDone
	visDropped uint64
	lagMs      []float64
	spreadMs   []float64
}

// drive runs every worker's closed loop for d and returns the interval's
// counters. traced switches span and history recording on; sampleCap sizes
// the preallocated sample memory per worker (0: nothing is recorded — warm-up)
// and historyCap the number of transactions recorded for internal/check.
func drive(dep deployment, workers []*worker, dur time.Duration, traced bool, sampleCap, historyCap int) phase {
	for _, w := range workers {
		w.attempted, w.failed, w.wrong, w.firstErr = 0, 0, 0, nil
		w.windows = [numWindows]uint64{}
		w.txNs, w.readNs, w.commitNs, w.traces, w.history = nil, nil, nil, nil, nil
		switch {
		case traced:
			w.traces = make([]txTrace, 0, sampleCap)
			w.history = make([]check.Tx, 0, historyCap/len(workers))
		case sampleCap > 0:
			w.txNs = make([]uint32, 0, sampleCap)
			w.readNs = make([]uint32, 0, sampleCap)
			w.commitNs = make([]uint32, 0, sampleCap)
		}
	}
	watch := startWatcher(dep.servers(), traced)
	ph := phase{seconds: dur.Seconds()}
	ph.before = snapshotProc(dep, traced)

	start := now()
	end := start + int64(dur)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(watch, start, end, traced, sampleCap > 0)
		}()
	}
	time.Sleep(time.Duration(end - now()))
	ph.after = snapshotProc(dep, traced)
	wg.Wait()

	ph.vis = watch.finish()
	ph.visDropped = watch.dropped
	ph.lagMs, ph.spreadMs = watch.lagMs, watch.spreadMs
	return ph
}

func clampNs(d int64) uint32 {
	if d > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// loop is the closed loop: the next transaction starts only when the previous
// one has returned. A transaction counts toward a window only if its Commit
// returned before the interval's end, so every window is exactly as long as
// the others; the one in flight at the end is run to completion and dropped.
func (w *worker) loop(watch *watcher, start, end int64, traced, record bool) {
	ctx := context.Background()
	windowNs := (end - start) / numWindows
	w.statsBefore = w.sess.client().Stats()
	defer func() { w.statsAfter = w.sess.client().Stats() }()
	for {
		t0 := now()
		if t0 >= end {
			return
		}
		p := w.gen.next()
		w.seq++
		t1 := now()
		tx, err := w.sess.begin(ctx)
		if err != nil {
			w.fail(err, false)
			time.Sleep(time.Millisecond) // a dead coordinator must not spin the loop
			continue
		}
		t2 := now()
		vals, err := tx.Read(ctx, p.reads...)
		t3 := now()
		if err != nil {
			tx.Abandon()
			w.fail(err, false)
			continue
		}
		// Every key was preloaded, so every read must return an 8-byte value.
		if err := checkReads(p, vals); err != nil {
			tx.Abandon()
			w.fail(err, true)
			continue
		}
		var rec *check.Tx
		if traced && len(w.history) < cap(w.history) {
			w.history = append(w.history, w.observe(p))
			rec = &w.history[len(w.history)-1]
		}
		tw := now()
		for i, k := range p.writes {
			if err := tx.Write(k, p.vals[i]); err != nil {
				w.fail(err, false) // cannot happen inside a transaction; counted all the same
			}
		}
		id := w.sess.client().TxID() // gone once Commit returns
		t4 := now()
		ct, err := tx.Commit(ctx)
		t5 := now()
		if err != nil {
			tx.Abandon()
			w.fail(err, false)
			if rec != nil {
				w.history = w.history[:len(w.history)-1]
			}
			continue
		}
		if ct == 0 {
			w.fail(fmt.Errorf("update transaction %d committed at timestamp 0", w.seq), true)
			continue
		}
		if rec != nil {
			rec.CommitTS = ct
		}
		for i, k := range p.writes {
			w.ring[w.ringPos] = writeRec{key: k, val: p.vals[i], ct: ct, tx: id}
			w.ringPos = (w.ringPos + 1) % ringSize
		}
		if t5 >= end {
			return
		}
		w.attempted++
		w.windows[min(int((t5-start)/windowNs), numWindows-1)]++
		traceIdx := -1
		switch {
		case traced:
			w.traces = append(w.traces, txTrace{seq: w.seq, t0: t0, t1: t1, t2: t2, t3: t3, tw: tw, t4: t4, t5: t5})
			traceIdx = len(w.traces) - 1
		case record:
			w.txNs = append(w.txNs, clampNs(t5-t1))
			w.readNs = append(w.readNs, clampNs(t3-t2))
			w.commitNs = append(w.commitNs, clampNs(t5-t4))
		}
		w.updates++
		if record && w.updates%uint64(w.gen.w.visEvery) == 0 {
			watch.submit(visReq{worker: w.id, trace: traceIdx, ct: ct, at: t5})
		}
	}
}

// fail counts an abandoned transaction: it is attempted, excluded from every
// latency sample, and the loop goes on.
func (w *worker) fail(err error, wrong bool) {
	w.attempted++
	w.failed++
	if wrong {
		w.wrong++
	}
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *worker) committed() uint64 { return w.attempted - w.failed }

func checkReads(p *plan, vals map[string][]byte) error {
	if len(vals) != len(p.reads) {
		return fmt.Errorf("read returned %d of %d preloaded keys", len(vals), len(p.reads))
	}
	for _, k := range p.reads {
		if len(vals[k]) != valueSize {
			return fmt.Errorf("key %q read back %d bytes, want %d", k, len(vals[k]), valueSize)
		}
	}
	return nil
}

// observe records the running transaction for internal/check from the
// client's read-set, which holds the version metadata Tx.Read does not return.
func (w *worker) observe(p *plan) check.Tx {
	cl := w.sess.client()
	rec := check.Tx{
		Session:  w.id,
		Seq:      int(w.seq),
		ID:       cl.TxID(),
		Snapshot: cl.Snapshot(),
		Reads:    make([]check.ReadObs, len(p.reads)),
		Writes:   append([]string(nil), p.writes...),
	}
	for i, k := range p.reads {
		item, ok := cl.Observed(k)
		rec.Reads[i] = check.ReadObs{Key: k, Writer: item.TxID, UT: item.UT, Found: ok}
	}
	return rec
}

// verifyLastWrites reads back the last writes every session had acknowledged,
// once the UST covers them: each key must hold that write or a newer one.
// It is the untraced run's end-to-end check that acknowledged commits are
// durable, universally visible and resolved last-writer-wins.
func verifyLastWrites(dep deployment, workers []*worker) error {
	newest := make(map[string]writeRec)
	var maxCT hlc.Timestamp
	for _, w := range workers {
		for _, r := range w.ring {
			if r.key == "" {
				continue
			}
			if cur, ok := newest[r.key]; !ok || r.ct > cur.ct || r.ct == cur.ct && r.tx > cur.tx {
				newest[r.key] = r
			}
			maxCT = max(maxCT, r.ct)
		}
	}
	if len(newest) == 0 {
		return fmt.Errorf("no committed write to read back")
	}
	if err := waitUST(dep.servers(), maxCT, 10*time.Second); err != nil {
		return err
	}
	keys := make([]string, 0, len(newest))
	for k := range newest {
		keys = append(keys, k)
	}
	ctx := context.Background()
	w := workers[0]
	tx, err := w.sess.begin(ctx)
	if err != nil {
		return fmt.Errorf("read-back begin: %w", err)
	}
	vals, err := tx.Read(ctx, keys...)
	if err != nil {
		tx.Abandon()
		return fmt.Errorf("read-back: %w", err)
	}
	defer tx.Abandon()
	for k, want := range newest {
		item, ok := w.sess.client().Observed(k)
		// Versions are ordered by (commit timestamp, transaction id): two
		// coordinators do hand out equal timestamps for a hot key.
		switch {
		case !ok || item.UT < want.ct || item.UT == want.ct && item.TxID < want.tx:
			return fmt.Errorf("key %q read back at %v by tx %v, but the write of tx %v committed at %v was acknowledged",
				k, item.UT, item.TxID, want.tx, want.ct)
		case item.UT == want.ct && item.TxID == want.tx && !bytes.Equal(vals[k], want.val):
			return fmt.Errorf("key %q read back %x from tx %v, which wrote %x", k, vals[k], want.tx, want.val)
		}
	}
	return nil
}

// waitUST blocks until every server's UST covers ts.
func waitUST(servers []*server.Server, ts hlc.Timestamp, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if low, _ := minUST(servers); low >= ts {
			return nil
		}
		if time.Now().After(deadline) {
			low, _ := minUST(servers)
			return fmt.Errorf("UST %v did not cover %v within %v", low, ts, timeout)
		}
		time.Sleep(visPoll)
	}
}
