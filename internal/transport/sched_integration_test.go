package transport

// Integration tests for the server-side scheduler: the busy wire response
// and its error taxonomy, OpCancel freeing queued/running capacity, the
// backlog piggyback on hello, and the H14-style overload validation (EDF
// must beat FIFO on met deadlines under overload, and the pathological
// reverse-EDF must be measurably worse — if the queue discipline did not
// matter, all three would tie).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/sched"
)

// schedTestDetector interprets the first value of the window as an
// instruction: negative blocks until release closes (a held concurrency
// slot), positive sleeps that many milliseconds (a fixed service time),
// zero returns immediately.
type schedTestDetector struct{ release chan struct{} }

func (schedTestDetector) Name() string { return "sched-test" }

func (d schedTestDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if len(frames) == 0 || len(frames[0]) == 0 {
		return anomaly.Verdict{}, fmt.Errorf("empty window")
	}
	switch v := frames[0][0]; {
	case v < 0:
		<-d.release
	case v > 0:
		time.Sleep(time.Duration(v * float64(time.Millisecond)))
	}
	return anomaly.Verdict{}, nil
}

func (schedTestDetector) NumParams() int           { return 1 }
func (schedTestDetector) FlopsPerWindow(int) int64 { return 1 }

func startSchedServer(t *testing.T, det anomaly.Detector, cfg sched.Config) *Server {
	t.Helper()
	srv, err := ServeWith("127.0.0.1:0", det, ServerOptions{Sched: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return srv
}

func pollSched(t *testing.T, srv *Server, what string, cond func(sched.Stats) bool) sched.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var st sched.Stats
	for time.Now().Before(deadline) {
		var ok bool
		if st, ok = srv.SchedStats(); !ok {
			t.Fatal("server runs no scheduler")
		}
		if cond(st) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("scheduler never reached %s (stats %+v)", what, st)
	return st
}

// TestBusyResponseTaxonomy pins the busy wire response's client-side
// classification on the binary codec: ErrBusy and ErrRemote, but never
// ErrConn (the connection is healthy and stays usable).
func TestBusyResponseTaxonomy(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		det := schedTestDetector{release: make(chan struct{})}
		srv := startSchedServer(t, det, sched.Config{MaxConcurrent: 1, MaxQueue: 0})
		cli := dialT(t, srv.Addr(), 0)

		holderDone := make(chan struct{})
		go func() {
			defer close(holderDone)
			if _, err := cli.Detect([][]float64{{-1}}); err != nil {
				t.Errorf("holder detect: %v", err)
			}
		}()
		pollSched(t, srv, "running=1", func(st sched.Stats) bool { return st.Running == 1 })

		_, err := cli.Detect([][]float64{{0}})
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("detect at capacity = %v, want ErrBusy", err)
		}
		if !errors.Is(err, ErrRemote) {
			t.Fatalf("busy error %v must wrap ErrRemote", err)
		}
		if errors.Is(err, ErrConn) {
			t.Fatalf("busy error %v must NOT read as a connection failure", err)
		}
		if st, _ := srv.SchedStats(); st.Busy != 1 {
			t.Fatalf("scheduler stats %+v, want Busy=1", st)
		}

		// The refusal cost nothing: the connection is still good and the
		// next request (after capacity frees) succeeds.
		close(det.release)
		<-holderDone
		if _, err := cli.Detect([][]float64{{0}}); err != nil {
			t.Fatalf("detect after capacity freed: %v", err)
		}
	})
}

// TestBatchBusyResponse covers the batch RPC's busy path (same admission,
// bulk class).
func TestBatchBusyResponse(t *testing.T) {
	det := schedTestDetector{release: make(chan struct{})}
	srv := startSchedServer(t, det, sched.Config{MaxConcurrent: 1, MaxQueue: 0})
	cli := dialT(t, srv.Addr(), 0)
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		_, _ = cli.Detect([][]float64{{-1}})
	}()
	pollSched(t, srv, "running=1", func(st sched.Stats) bool { return st.Running == 1 })
	_, err := cli.DetectBatch([][][]float64{{{0}}, {{0}}})
	if !errors.Is(err, ErrBusy) || errors.Is(err, ErrConn) {
		t.Fatalf("batch at capacity = %v, want ErrBusy without ErrConn", err)
	}
	close(det.release)
	<-holderDone
}

// TestCancelFreesQueuedCapacity proves the OpCancel path end to end: a
// client whose context dies while its request is queued frees the queue
// slot promptly — long before the slot-holding request finishes — and the
// server writes no response for it. Goroutine-leak bracketed.
func TestCancelFreesQueuedCapacity(t *testing.T) {
	before := runtime.NumGoroutine()
	det := schedTestDetector{release: make(chan struct{})}
	srv := startSchedServer(t, det, sched.Config{MaxConcurrent: 1, MaxQueue: 8, Policy: sched.EDF{}})
	cli := dialT(t, srv.Addr(), 0)

	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		if _, err := cli.Detect([][]float64{{-1}}); err != nil {
			t.Errorf("holder detect: %v", err)
		}
	}()
	pollSched(t, srv, "running=1", func(st sched.Stats) bool { return st.Running == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	qErr := make(chan error, 1)
	go func() {
		_, err := cli.DetectContext(ctx, [][]float64{{0}})
		qErr <- err
	}()
	pollSched(t, srv, "queued=1", func(st sched.Stats) bool { return st.Queued == 1 })

	// Cancel while queued: the client withdraws and ships OpCancel; the
	// server's queue slot must free promptly even though the holder is
	// still pinning the only concurrency slot.
	cancel()
	if err := <-qErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled detect = %v, want context.Canceled", err)
	}
	freedBy := time.Now().Add(2 * time.Second)
	for {
		st, _ := srv.SchedStats()
		if st.Queued == 0 && st.Canceled == 1 {
			break
		}
		if time.Now().After(freedBy) {
			t.Fatalf("queued capacity not freed promptly after cancel (stats %+v)", st)
		}
		time.Sleep(time.Millisecond)
	}

	// The freed slot is usable: a new request queues and completes once
	// the holder releases.
	okErr := make(chan error, 1)
	go func() {
		_, err := cli.Detect([][]float64{{0}})
		okErr <- err
	}()
	pollSched(t, srv, "queued=1 again", func(st sched.Stats) bool { return st.Queued == 1 })
	close(det.release)
	<-holderDone
	if err := <-okErr; err != nil {
		t.Fatalf("detect after cancel: %v", err)
	}

	// No goroutine may linger once traffic drains (the canceled request's
	// handler must not be parked forever).
	gDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(gDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+3 {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, n)
	}
}

// TestCancelInterruptsRunningRequest: canceling a request that already
// holds a slot interrupts interruptible server work (the injected fault
// delay) and suppresses the response, freeing the slot long before the
// injected delay elapses.
func TestCancelInterruptsRunningRequest(t *testing.T) {
	det := schedTestDetector{release: make(chan struct{})}
	close(det.release) // nothing blocks in the detector itself
	srv := startSchedServer(t, det, sched.Config{MaxConcurrent: 1, MaxQueue: 8})
	srv.SetFaultDelay(10 * time.Second)
	cli := dialT(t, srv.Addr(), 0)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := cli.DetectContext(ctx, [][]float64{{0}})
		errCh <- err
	}()
	pollSched(t, srv, "running=1", func(st sched.Stats) bool { return st.Running == 1 })
	start := time.Now()
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled detect = %v", err)
	}
	st := pollSched(t, srv, "slot freed", func(st sched.Stats) bool {
		return st.Running == 0 && st.Done == 1
	})
	if freed := time.Since(start); freed > 5*time.Second {
		t.Fatalf("slot freed only after %v; cancel did not interrupt the injected delay", freed)
	}
	if st.Canceled != 1 {
		t.Fatalf("stats %+v, want Canceled=1", st)
	}
	srv.SetFaultDelay(0)
	// Capacity is genuinely available again.
	if _, err := cli.Detect([][]float64{{0}}); err != nil {
		t.Fatalf("detect after running-cancel: %v", err)
	}
}

// TestCancelAgainstUnscheduledServer: the one-way cancel frame is a no-op
// for servers without a scheduler — the connection stays fully usable.
func TestCancelAgainstUnscheduledServer(t *testing.T) {
	srv := startServer(t) // no scheduler
	cli := dialT(t, srv.Addr(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cli.DetectContext(ctx, [][]float64{{0.5}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled detect = %v", err)
	}
	cli.sendCancel(12345) // explicit stray cancel: must not disturb the stream
	for i := 0; i < 3; i++ {
		if _, err := cli.Detect([][]float64{{0.5}}); err != nil {
			t.Fatalf("detect after stray cancel: %v", err)
		}
	}
}

// TestPingStatusBacklog: the hello piggyback reports queue depth from
// scheduled servers and the zero PeerStatus from unscheduled ones.
func TestPingStatusBacklog(t *testing.T) {
	plain := startServer(t)
	pc := dialT(t, plain.Addr(), 0)
	st, err := pc.PingStatus(context.Background())
	if err != nil || st.Scheduled {
		t.Fatalf("unscheduled PingStatus = %+v, %v; want zero status", st, err)
	}

	det := schedTestDetector{release: make(chan struct{})}
	srv := startSchedServer(t, det, sched.Config{MaxConcurrent: 1, MaxQueue: 8})
	cli := dialT(t, srv.Addr(), 0)
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		_, _ = cli.Detect([][]float64{{-1}})
	}()
	pollSched(t, srv, "running=1", func(st sched.Stats) bool { return st.Running == 1 })
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		_, _ = cli.Detect([][]float64{{0}})
	}()
	pollSched(t, srv, "queued=1", func(st sched.Stats) bool { return st.Queued == 1 })

	st, err = cli.PingStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Scheduled || st.QueueDepth != 1 {
		t.Fatalf("PingStatus = %+v, want Scheduled=true QueueDepth=1", st)
	}
	close(det.release)
	<-holderDone
	<-queuedDone
}

// burstPerm is the fixed arrival order of the overload burst (a seeded
// shuffle of 0..31, pinned as a literal so the FIFO result is
// deterministic): job i carries deadline (i+1)*slope + slack from the
// burst anchor. Under the cost model "expired queued entries are canceled
// for free, a dequeued job always costs one service time", this
// permutation yields EDF 32/32 met, FIFO 20/32, reverse-EDF 18/32.
var burstPerm = [32]int{9, 24, 14, 10, 28, 1, 5, 3, 22, 21, 13, 12, 23, 16, 27, 6, 7, 29, 8, 25, 0, 26, 2, 30, 20, 31, 19, 11, 4, 17, 18, 15}

// runOverloadBurst drives the canonical overload burst against a
// scheduler running the given policy and returns how many of the 32 jobs
// met their deadline. One slot, 10 ms service, deadlines (i+1)*11ms+20ms:
// EDF-feasible (slope > service), so EDF meets everything and any policy
// that serves out of deadline order must miss.
func runOverloadBurst(t *testing.T, policy sched.Policy) int {
	t.Helper()
	const (
		serviceMs = 10
		slopeMs   = 11
		slackMs   = 20
	)
	det := schedTestDetector{release: make(chan struct{})}
	srv := startSchedServer(t, det, sched.Config{MaxConcurrent: 1, MaxQueue: 64, Policy: policy})
	cli := dialT(t, srv.Addr(), 0)

	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		_, _ = cli.Detect([][]float64{{-1}})
	}()
	pollSched(t, srv, "holder running", func(st sched.Stats) bool { return st.Running == 1 })

	// All 32 jobs queue behind the holder in burstPerm order; the anchor
	// gives setup a fixed budget so every deadline is relative to the
	// moment service actually starts.
	anchor := time.Now().Add(1500 * time.Millisecond)
	var met atomic.Int64
	var wg sync.WaitGroup
	for n, i := range burstPerm {
		deadline := anchor.Add(time.Duration(slopeMs*(i+1)+slackMs) * time.Millisecond)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			if _, err := cli.DetectContext(ctx, [][]float64{{serviceMs}}); err == nil {
				met.Add(1)
			}
		}()
		pollSched(t, srv, "burst enqueued", func(st sched.Stats) bool { return st.Queued == n+1 })
	}
	if !time.Now().Before(anchor) {
		t.Fatal("burst setup overran its anchor budget; rerun with a larger anchor")
	}
	time.Sleep(time.Until(anchor))
	close(det.release)
	<-holderDone
	wg.Wait()
	return int(met.Load())
}

// TestSchedOverloadH14 is the H14-style validation of the queue
// discipline under ~3x overload (320 ms of demand against deadlines
// spanning ~372 ms, single slot): EDF must meet essentially every
// deadline the feasible schedule allows, FIFO measurably fewer, and the
// pathological reverse-EDF fewer still than EDF. Margins are wide of the
// deterministic model (EDF 32, FIFO 20, reverse 18) to absorb scheduling
// jitter.
func TestSchedOverloadH14(t *testing.T) {
	if testing.Short() {
		t.Skip("overload burst sleeps real wall-clock; skipped in -short")
	}
	edf := runOverloadBurst(t, sched.EDF{})
	fifo := runOverloadBurst(t, sched.FIFO{})
	rev := runOverloadBurst(t, sched.ReverseEDF{})
	t.Logf("met deadlines out of 32: EDF=%d FIFO=%d reverse-EDF=%d", edf, fifo, rev)
	if edf < 30 {
		t.Errorf("EDF met only %d/32 deadlines of an EDF-feasible burst", edf)
	}
	if fifo > edf-4 {
		t.Errorf("FIFO met %d/32, EDF %d/32 — EDF must beat FIFO clearly under overload", fifo, edf)
	}
	if rev > edf-8 {
		t.Errorf("reverse-EDF met %d/32, EDF %d/32 — the pathological policy must be measurably worse", rev, edf)
	}
}
