package tcp

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
)

// newWorldMetrics is newWorld with a metrics registry installed, for tests
// that assert on the wire engine's accounting.
func newWorldMetrics(t testing.TB, n int) (*Transport, []*mpi.Comm, *obs.Registry) {
	t.Helper()
	tr, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	reg := obs.NewRegistry(n)
	tr.SetMetrics(reg)
	w := mpi.NewWorld(n, tr, 64<<10)
	w.SetMetrics(reg)
	tr.Bind(w)
	var g sched.Group
	comms := make([]*mpi.Comm, n)
	for i := range comms {
		comms[i] = w.AttachRank(i, g.Proc())
	}
	return tr, comms, reg
}

// TestWireCoalescing pins the tentpole property: messages enqueued while the
// writer is busy leave in ONE vectored write. The test plays the busy writer
// itself by holding flushMu, queues a burst, releases, and then reads the
// batch-size histogram: every frame of the burst must have shared a flush.
func TestWireCoalescing(t *testing.T) {
	tr, comms, reg := newWorldMetrics(t, 2)
	q := tr.queues[0][1]

	const burst = 32
	q.flushMu.Lock()
	reqs := make([]*mpi.Request, burst)
	for i := range reqs {
		reqs[i] = comms[0].Isend(1, i, mpi.Bytes([]byte("batched payload")))
	}
	q.flushMu.Unlock()

	if err := comms[0].Waitall(reqs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		buf, _ := comms[1].Recv(0, i)
		buf.Release()
	}

	w := reg.Snapshot().Wire
	if w.Frames < burst {
		t.Fatalf("wire frames = %d, want ≥ %d", w.Frames, burst)
	}
	if w.BatchFrames.Max < burst {
		t.Fatalf("max batch = %d frames, want the whole burst (%d) in one flush", w.BatchFrames.Max, burst)
	}
	if w.QueuedBytes != 0 {
		t.Fatalf("queued-bytes gauge = %d after drain, want 0", w.QueuedBytes)
	}
}

// TestCloseFlushesPendingSends: Close must drain what the engine accepted —
// every in-flight send completes (OnInjected fires, Waitall returns nil), no
// callback is lost — and sends attempted after Close fail deterministically.
func TestCloseFlushesPendingSends(t *testing.T) {
	tr, comms, reg := newWorldMetrics(t, 2)
	q := tr.queues[0][1]

	const pending = 8
	q.flushMu.Lock()
	reqs := make([]*mpi.Request, pending)
	for i := range reqs {
		reqs[i] = comms[0].Isend(1, i, mpi.Bytes([]byte("in flight at Close")))
	}
	// Close blocks on the writer's drain, and the writer blocks on flushMu:
	// release it from the side so Close can finish the flush.
	go func() {
		time.Sleep(20 * time.Millisecond)
		q.flushMu.Unlock()
	}()
	tr.Close()

	if err := comms[0].Waitall(reqs); err != nil {
		t.Fatalf("sends accepted before Close must flush, got %v", err)
	}
	if w := reg.Snapshot().Wire; w.QueuedBytes != 0 {
		t.Fatalf("queued-bytes gauge = %d after Close, want 0", w.QueuedBytes)
	}

	req := comms[0].Isend(1, 99, mpi.Bytes([]byte("after Close")))
	comms[0].Wait(req)
	if !errors.Is(req.Err(), mpi.ErrTransport) {
		t.Fatalf("send after Close: Err() = %v, want ErrTransport", req.Err())
	}
}

// TestBrokenConnFailsQueuedSends kills the connection under a full queue:
// the flush must fail every queued request through OnError (none may hang or
// complete as if sent), the queue-depth gauge must return to zero, and later
// sends must fail fast on the broken queue.
func TestBrokenConnFailsQueuedSends(t *testing.T) {
	tr, comms, reg := newWorldMetrics(t, 2)
	q := tr.queues[0][1]

	const pending = 8
	q.flushMu.Lock()
	tr.conns[0][1].Close()
	reqs := make([]*mpi.Request, pending)
	for i := range reqs {
		reqs[i] = comms[0].Isend(1, i, mpi.Bytes([]byte("doomed")))
	}
	q.flushMu.Unlock()

	if err := comms[0].Waitall(reqs); !errors.Is(err, mpi.ErrTransport) {
		t.Fatalf("Waitall = %v, want ErrTransport", err)
	}
	for i, r := range reqs {
		if !errors.Is(r.Err(), mpi.ErrTransport) {
			t.Errorf("request %d: Err() = %v, want ErrTransport", i, r.Err())
		}
	}
	w := reg.Snapshot().Wire
	if w.WriteErrors == 0 {
		t.Fatal("broken connection not counted as a wire write error")
	}
	if w.QueuedBytes != 0 {
		t.Fatalf("queued-bytes gauge = %d after failure, want 0", w.QueuedBytes)
	}

	// The queue is broken: the next send fails synchronously, without
	// touching the dead socket.
	req := comms[0].Isend(1, 99, mpi.Bytes([]byte("fails fast")))
	comms[0].Wait(req)
	if !errors.Is(req.Err(), mpi.ErrTransport) {
		t.Fatalf("send on broken queue: Err() = %v, want ErrTransport", req.Err())
	}
}

// shortConn is a net.Conn whose Write accepts acceptBytes and then fails,
// simulating a connection dying mid-batch.
type shortConn struct {
	net.Conn // nil; only Write and the deadline no-ops are used
	accepted int
	limit    int
}

var errConnDied = errors.New("connection died mid-batch")

func (c *shortConn) Write(p []byte) (int, error) {
	room := c.limit - c.accepted
	if room <= 0 {
		return 0, errConnDied
	}
	if len(p) <= room {
		c.accepted += len(p)
		return len(p), nil
	}
	c.accepted += room
	return room, errConnDied
}

// funcDone adapts a pair of funcs to mpi.Completion for tests that want to
// observe exactly which signal a frame received.
type funcDone struct {
	injected func()
	failed   func(error)
}

func (d *funcDone) Injected() { d.injected() }

func (d *funcDone) Failed(err error) { d.failed(err) }

// TestPartialWriteAttribution drives a flush into a connection that dies
// mid-batch and checks the attribution walk: frames the kernel fully
// accepted complete via Done.Injected; the frame cut mid-flight and
// everything behind it fail via Done.Failed — exactly one callback per
// frame, assigned to exactly the right frames.
func TestPartialWriteAttribution(t *testing.T) {
	const frames = 5
	payload := make([]byte, 100)
	frameSize := headerLen + len(payload)
	// The conn accepts the first two frames and 10 bytes of the third.
	conn := &shortConn{limit: 2*frameSize + 10}

	tr := &Transport{n: 2, closed: make(chan struct{}), metrics: obs.NewRegistry(2)}
	q := newWireQueue(tr, conn, 0, 1)

	type result struct {
		injected bool
		err      error
	}
	results := make([]result, frames)
	fired := make([]int, frames)
	q.flushMu.Lock()
	for i := 0; i < frames; i++ {
		i := i
		m := &mpi.Msg{
			Src: 0, Dst: 1, Tag: i, Kind: mpi.KindEager, Buf: mpi.Bytes(payload),
			Done: &funcDone{
				injected: func() { results[i].injected = true; fired[i]++ },
				failed:   func(err error) { results[i].err = err; fired[i]++ },
			},
		}
		if err := q.enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
	q.flushMu.Unlock()
	q.flush(false)

	for i, r := range results {
		if fired[i] != 1 {
			t.Errorf("frame %d: %d callbacks fired, want exactly 1", i, fired[i])
		}
		if i < 2 {
			if !r.injected {
				t.Errorf("frame %d fully written but not completed", i)
			}
		} else {
			if r.err == nil || !errors.Is(r.err, errConnDied) {
				t.Errorf("frame %d cut/unwritten: err = %v, want wrap of errConnDied", i, r.err)
			}
		}
	}
	if w := tr.metrics.Snapshot().Wire; w.WriteErrors != 1 || w.QueuedBytes != 0 {
		t.Fatalf("wire accounting after partial write: errors=%d gauge=%d, want 1 and 0", w.WriteErrors, w.QueuedBytes)
	}
}

// TestNoGoroutineLeakAfterClose runs traffic through the engine and checks
// that Close reaps every goroutine the transport started — readers and
// writers both — by comparing the process goroutine count to the pre-New
// baseline (goleak-style, with a settle loop for runtime stragglers).
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	baseline := runtime.NumGoroutine()

	tr, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(3)
	tr.SetMetrics(reg)
	w := mpi.NewWorld(3, tr, 64<<10)
	w.SetMetrics(reg)
	tr.Bind(w)
	var g sched.Group
	comms := make([]*mpi.Comm, 3)
	for i := range comms {
		comms[i] = w.AttachRank(i, g.Proc())
	}
	var reqs []*mpi.Request
	for i := 1; i < 3; i++ {
		for k := 0; k < 4; k++ {
			reqs = append(reqs, comms[0].Isend(i, k, mpi.Bytes([]byte("leak probe"))))
		}
	}
	if err := comms[0].Waitall(reqs); err != nil {
		t.Fatal(err)
	}
	tr.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d > baseline %d after Close\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelSetupLatency guards the parallelized mesh bring-up: a 12-rank
// mesh (66 listen/dial/accept triples) must come up promptly and fully
// connected. The bound is generous — the point is to catch a regression to
// serial setup compounding with a slow loopback, not to benchmark.
func TestParallelSetupLatency(t *testing.T) {
	const n = 12
	start := time.Now()
	tr, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	elapsed := time.Since(start)
	t.Logf("tcp.New(%d): %d pairs in %v", n, n*(n-1)/2, elapsed)
	if elapsed > 10*time.Second {
		t.Fatalf("mesh setup took %v, want well under 10s", elapsed)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && tr.conns[i][j] == nil {
				t.Fatalf("missing connection %d→%d", i, j)
			}
		}
	}

	// The mesh must not just exist but carry traffic corner to corner.
	w := mpi.NewWorld(n, tr, 64<<10)
	tr.Bind(w)
	var g sched.Group
	c0 := w.AttachRank(0, g.Proc())
	cn := w.AttachRank(n-1, g.Proc())
	for i := 1; i < n-1; i++ {
		w.AttachRank(i, g.Proc())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf, _ := cn.Recv(0, 1)
		buf.Release()
	}()
	if err := c0.Send(n-1, 1, mpi.Bytes([]byte(fmt.Sprintf("corner to corner %d", n)))); err != nil {
		t.Fatal(err)
	}
	<-done
}
