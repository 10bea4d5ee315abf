package transport

import (
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// collector records delivered envelopes.
type collector struct {
	mu   sync.Mutex
	got  []Envelope
	wake chan struct{}
}

func newCollector() *collector {
	return &collector{wake: make(chan struct{}, 1)}
}

func (c *collector) Deliver(env Envelope) {
	c.mu.Lock()
	c.got = append(c.got, env)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) []Envelope {
	t.Helper()
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		if len(c.got) >= n {
			out := make([]Envelope, len(c.got))
			copy(out, c.got)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.wake:
		case <-deadline:
			t.Fatalf("timed out waiting for %d envelopes (have %d)", n, c.count())
		}
	}
}

var (
	nodeA = topology.ServerID(0, 0)
	nodeB = topology.ServerID(1, 0)
	nodeC = topology.ServerID(2, 0)
)

func hb(ts uint64) wire.Message {
	return wire.ReplicateBatch{SrcDC: 0, UpTo: hlc.Timestamp(ts)}
}

func TestMemNetDelivers(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()

	sink := newCollector()
	epA, err := net.Register(nodeA, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(nodeB, sink); err != nil {
		t.Fatal(err)
	}

	if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)}); err != nil {
		t.Fatal(err)
	}
	got := sink.waitFor(t, 1, time.Second)
	if got[0].From != nodeA || got[0].To != nodeB {
		t.Fatalf("bad envelope routing: %+v", got[0])
	}
	if got[0].Msg.(wire.ReplicateBatch).UpTo != 1 {
		t.Fatalf("payload corrupted: %+v", got[0].Msg)
	}
}

func TestMemNetDuplicateRegistration(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()
	if _, err := net.Register(nodeA, newCollector()); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(nodeA, newCollector()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestMemNetUnknownDestination(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()
	ep, err := net.Register(nodeA, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)}); err == nil {
		t.Fatal("send to unregistered node accepted")
	}
}

func TestMemNetFIFOPerLink(t *testing.T) {
	net := NewMemNet(Uniform{IntraDC: 0, InterDC: time.Millisecond})
	defer func() { _ = net.Close() }()

	sink := newCollector()
	epA, _ := net.Register(nodeA, newCollector())
	if _, err := net.Register(nodeB, sink); err != nil {
		t.Fatal(err)
	}

	const n = 500
	for i := 0; i < n; i++ {
		if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got := sink.waitFor(t, n, 5*time.Second)
	for i, env := range got {
		if ts := env.Msg.(wire.ReplicateBatch).UpTo; ts != hlc.Timestamp(i) {
			t.Fatalf("FIFO violated at %d: got ts %d", i, ts)
		}
	}
}

func TestMemNetAppliesLatency(t *testing.T) {
	const delay = 60 * time.Millisecond
	net := NewMemNet(Uniform{IntraDC: 0, InterDC: delay})
	defer func() { _ = net.Close() }()

	sink := newCollector()
	epA, _ := net.Register(nodeA, newCollector())
	if _, err := net.Register(nodeB, sink); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)}); err != nil {
		t.Fatal(err)
	}
	sink.waitFor(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delivered after %v, want ≥ %v", elapsed, delay)
	}
}

func TestMemNetPartitionQueuesAndHealReleases(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()

	sink := newCollector()
	epA, _ := net.Register(nodeA, newCollector())
	if _, err := net.Register(nodeB, sink); err != nil {
		t.Fatal(err)
	}

	net.SetPartitioned(0, 1, true)
	for i := 0; i < 10; i++ {
		if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if n := sink.count(); n != 0 {
		t.Fatalf("partitioned link delivered %d envelopes", n)
	}

	net.SetPartitioned(0, 1, false)
	got := sink.waitFor(t, 10, time.Second)
	for i, env := range got {
		if ts := env.Msg.(wire.ReplicateBatch).UpTo; ts != hlc.Timestamp(i) {
			t.Fatalf("heal broke FIFO at %d: ts %d", i, ts)
		}
	}
}

func TestMemNetIsolateDC(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()

	sinkB, sinkC := newCollector(), newCollector()
	epA, _ := net.Register(nodeA, newCollector())
	if _, err := net.Register(nodeB, sinkB); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(nodeC, sinkC); err != nil {
		t.Fatal(err)
	}

	net.IsolateDC(0, true, 3)
	_ = epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)})
	_ = epA.Send(Envelope{To: nodeC, Class: ClassCast, Msg: hb(2)})
	time.Sleep(30 * time.Millisecond)
	if sinkB.count() != 0 || sinkC.count() != 0 {
		t.Fatal("isolated DC still delivering")
	}
	net.IsolateDC(0, false, 3)
	sinkB.waitFor(t, 1, time.Second)
	sinkC.waitFor(t, 1, time.Second)
}

func TestMemNetCountsMessages(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()
	sink := newCollector()
	epA, _ := net.Register(nodeA, newCollector())
	if _, err := net.Register(nodeB, sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(uint64(i))})
	}
	sink.waitFor(t, 5, time.Second)
	if got := net.MessagesSent(); got != 5 {
		t.Fatalf("MessagesSent = %d, want 5", got)
	}
	if got := net.MessagesByKind()[wire.KindReplicateBatch]; got != 5 {
		t.Fatalf("heartbeat count = %d, want 5", got)
	}
}

func TestMemNetSendAfterClose(t *testing.T) {
	net := NewMemNet(nil)
	ep, err := net.Register(nodeA, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(nodeB, newCollector()); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)}); err == nil {
		t.Fatal("send accepted after close")
	}
	if _, err := net.Register(nodeC, newCollector()); err == nil {
		t.Fatal("register accepted after close")
	}
}

func TestMemNetCloseWhilePartitionedDoesNotHang(t *testing.T) {
	net := NewMemNet(nil)
	sink := newCollector()
	epA, _ := net.Register(nodeA, newCollector())
	if _, err := net.Register(nodeB, sink); err != nil {
		t.Fatal(err)
	}
	net.SetPartitioned(0, 1, true)
	_ = epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)})
	done := make(chan struct{})
	go func() {
		_ = net.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on a partitioned link")
	}
}

func TestMemNetClosedEndpointStopsReceiving(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()
	sink := newCollector()
	epA, _ := net.Register(nodeA, newCollector())
	epB, err := net.Register(nodeB, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := epB.Close(); err != nil {
		t.Fatal(err)
	}
	_ = epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)})
	time.Sleep(30 * time.Millisecond)
	if sink.count() != 0 {
		t.Fatal("closed endpoint still receives")
	}
}

func TestGeoModelProperties(t *testing.T) {
	g := NewGeoModel(10, 1.0)
	a := topology.ServerID(0, 0) // virginia
	b := topology.ServerID(4, 1) // sydney
	// Symmetric.
	if g.Delay(a, b) != g.Delay(b, a) {
		t.Fatal("geo delay not symmetric")
	}
	// One-way Virginia↔Sydney is 100ms (200ms RTT).
	if got := g.Delay(a, b); got != 100*time.Millisecond {
		t.Fatalf("virginia-sydney one-way = %v, want 100ms", got)
	}
	// Intra-DC is small.
	if got := g.Delay(a, topology.ServerID(0, 7)); got >= time.Millisecond {
		t.Fatalf("intra-DC delay = %v, want sub-ms", got)
	}
	// RTT helper doubles the one-way delay.
	if got := g.RTTBetween(0, 4); got != 200*time.Millisecond {
		t.Fatalf("RTT = %v, want 200ms", got)
	}
}

func TestGeoModelScale(t *testing.T) {
	full := NewGeoModel(5, 1.0)
	tenth := NewGeoModel(5, 0.1)
	a, b := topology.ServerID(0, 0), topology.ServerID(1, 0)
	if tenth.Delay(a, b)*10 != full.Delay(a, b) {
		t.Fatalf("scale not linear: %v vs %v", tenth.Delay(a, b), full.Delay(a, b))
	}
}

func TestGeoModelManyDCsWrapsRegions(t *testing.T) {
	g := NewGeoModel(12, 1.0) // more DCs than regions
	a, b := topology.ServerID(0, 0), topology.ServerID(10, 0)
	if g.Delay(a, b) <= 0 {
		t.Fatal("wrapped regions must still have positive inter-DC delay")
	}
}

func TestRegionString(t *testing.T) {
	if Virginia.String() != "virginia" || Ohio.String() != "ohio" {
		t.Fatal("region names wrong")
	}
}

func TestClassString(t *testing.T) {
	for _, c := range []Class{ClassCast, ClassRequest, ClassResponse} {
		if c.String() == "" {
			t.Fatal("empty class string")
		}
	}
}

func TestMemNetLinkFaults(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()

	sink := newCollector()
	epA, err := net.Register(nodeA, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(nodeB, sink); err != nil {
		t.Fatal(err)
	}

	// Blackhole: send succeeds, nothing arrives, drop counter advances.
	net.SetLinkFault(nodeA, nodeB, FaultBlackhole)
	if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)}); err != nil {
		t.Fatalf("blackholed send must be accepted, got %v", err)
	}
	if got := net.DroppedMessages(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}

	// Error fault: send refused.
	net.SetLinkFault(nodeA, nodeB, FaultError)
	if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(2)}); err != ErrLinkDown {
		t.Fatalf("faulted send err = %v, want ErrLinkDown", err)
	}

	// Clearing restores delivery; the blackholed envelope stays lost.
	net.SetLinkFault(nodeA, nodeB, FaultNone)
	if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(3)}); err != nil {
		t.Fatal(err)
	}
	envs := sink.waitFor(t, 1, time.Second)
	if len(envs) != 1 || envs[0].Msg.(wire.ReplicateBatch).UpTo != 3 {
		t.Fatalf("delivered %v, want only the post-heal heartbeat", envs)
	}
}

func TestMemNetNodeFaultIsBidirectional(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()

	sinkB, sinkC := newCollector(), newCollector()
	epA, err := net.Register(nodeA, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Register(nodeB, sinkB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(nodeC, sinkC); err != nil {
		t.Fatal(err)
	}

	net.SetNodeFault(nodeB, FaultBlackhole)
	// Traffic toward and from the faulted node is dropped...
	if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(1)}); err != nil {
		t.Fatal(err)
	}
	if err := epB.Send(Envelope{To: nodeC, Class: ClassCast, Msg: hb(2)}); err != nil {
		t.Fatal(err)
	}
	if got := net.DroppedMessages(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	// ...while unrelated links still deliver.
	if err := epA.Send(Envelope{To: nodeC, Class: ClassCast, Msg: hb(3)}); err != nil {
		t.Fatal(err)
	}
	sinkC.waitFor(t, 1, time.Second)
	if sinkB.count() != 0 {
		t.Fatalf("faulted node received %d envelopes", sinkB.count())
	}

	net.SetNodeFault(nodeB, FaultNone)
	if err := epA.Send(Envelope{To: nodeB, Class: ClassCast, Msg: hb(4)}); err != nil {
		t.Fatal(err)
	}
	sinkB.waitFor(t, 1, time.Second)
}

func TestMemNetBatchRespectsFaults(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()

	sink := newCollector()
	epA, err := net.Register(nodeA, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(nodeB, sink); err != nil {
		t.Fatal(err)
	}

	batch := []Envelope{
		{To: nodeB, Class: ClassCast, Msg: hb(1)},
		{To: nodeB, Class: ClassCast, Msg: hb(2)},
	}
	net.SetLinkFault(nodeA, nodeB, FaultBlackhole)
	if err := epA.(BatchEndpoint).SendBatch(batch); err != nil {
		t.Fatalf("blackholed batch must be accepted, got %v", err)
	}
	if got := net.DroppedMessages(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	net.SetLinkFault(nodeA, nodeB, FaultError)
	if err := epA.(BatchEndpoint).SendBatch(batch); err != ErrLinkDown {
		t.Fatalf("faulted batch err = %v, want ErrLinkDown", err)
	}
}
