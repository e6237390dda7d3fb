package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/routing"
	"repro/internal/transport"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanCall    spanKind = iota // Session.Detect / DetectBatch (the root)
	spanContext                 // features.Extractor.Context
	spanIoT                     // the device's local detector
	spanRemote                  // the cluster.Remote boundary of a tier
	spanServer                  // the detector a tier's server runs
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; call is the root call the span belongs to (0 for server
// spans, which cannot see it); n is the windows the call carried.
type span struct {
	start, end int64
	call       int32
	n          int32
	kind       spanKind
	layer      hec.Layer
}

func (s span) dur() int64 { return s.end - s.start }

// tracer records spans into memory allocated before the timed phase; they
// are aggregated once the phase is over. The span buffer is mapped outside
// the Go heap so that it does not change how often the collector runs.
// Client-side spans find their root call through the window they carry:
// every window belongs to one caller (see partition), and each caller
// publishes the id of the call it is making.
type tracer struct {
	epoch   time.Time
	spans   []span
	release func() // unmaps spans
	next    atomic.Int64
	calls   atomic.Int32
	owner   map[*[]float64]int // first frame of a pool window → its caller
	cur     []atomic.Int32     // per caller: the root call in progress
	ctxs    [][]float64        // contexts captured for policy.probs_us
	nctx    atomic.Int64
}

// maxContexts bounds how many policy contexts a traced run keeps.
const maxContexts = 4096

// newTracer maps room for maxSpans spans; free releases it.
func newTracer(items [][]item, maxSpans int) (*tracer, error) {
	spans, release, err := offHeap[span](maxSpans)
	if err != nil {
		return nil, fmt.Errorf("tracer: mapping span buffer: %w", err)
	}
	t := &tracer{
		epoch:   time.Now(),
		spans:   spans,
		release: release,
		owner:   make(map[*[]float64]int),
		cur:     make([]atomic.Int32, len(items)),
		ctxs:    make([][]float64, maxContexts),
	}
	for c, its := range items {
		for _, it := range its {
			for _, w := range it.windows {
				if _, dup := t.owner[&w[0]]; dup {
					t.free()
					return nil, fmt.Errorf("tracer: two pool windows share their first frame")
				}
				t.owner[&w[0]] = c
			}
		}
	}
	return t, nil
}

// free unmaps the span buffer. Nothing may record or read spans after it.
func (t *tracer) free() {
	t.spans = nil
	t.release()
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.next.Store(0)
	t.nctx.Store(0)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// beginCall allocates the next root-call id and publishes it as caller
// c's call in progress.
func (t *tracer) beginCall(c int) int32 {
	id := t.calls.Add(1)
	t.cur[c].Store(id)
	return id
}

// callOf returns the root call in progress for the caller owning the
// window whose frames these are (0 when the window is not a pool window).
func (t *tracer) callOf(frames [][]float64) int32 {
	if len(frames) == 0 {
		return 0
	}
	c, ok := t.owner[&frames[0]]
	if !ok {
		return 0
	}
	return t.cur[c].Load()
}

// callOfBatch is callOf for a batch; its windows share one root call.
func (t *tracer) callOfBatch(windows [][][]float64) int32 {
	if len(windows) == 0 {
		return 0
	}
	return t.callOf(windows[0])
}

func (t *tracer) record(k spanKind, l hec.Layer, call int32, n int, start, end int64) {
	if i := t.next.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{start: start, end: end, call: call, n: int32(n), kind: k, layer: l}
	}
}

// recorded returns the spans recorded since the last reset, or an error
// when the buffer overflowed (the aggregate would cover only part of the
// phase).
func (t *tracer) recorded() ([]span, error) {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		return nil, fmt.Errorf("tracer: %d spans overflowed a %d-span buffer", n, len(t.spans))
	}
	return t.spans[:n], nil
}

// contexts returns the policy contexts captured since the last reset.
func (t *tracer) contexts() [][]float64 {
	n := t.nctx.Load()
	if n > int64(len(t.ctxs)) {
		n = int64(len(t.ctxs))
	}
	return t.ctxs[:n]
}

// tracedDetector times every call into a detector. Client-side (IoT)
// spans are tied to their root call; server-side spans are not.
type tracedDetector struct {
	anomaly.Detector
	tr    *tracer
	kind  spanKind
	layer hec.Layer
}

func (d tracedDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	t0 := d.tr.now()
	v, err := d.Detector.Detect(frames)
	d.tr.record(d.kind, d.layer, d.callOf(frames), 1, t0, d.tr.now())
	return v, err
}

func (d tracedDetector) callOf(frames [][]float64) int32 {
	if d.kind == spanServer {
		return 0
	}
	return d.tr.callOf(frames)
}

// tracedBatchDetector is a tracedDetector over a detector with a batch
// path. It must stay an anomaly.BatchDetector, or anomaly.DetectAll would
// silently fall back to per-window calls and the traced run would measure
// a different program.
type tracedBatchDetector struct {
	tracedDetector
	batch anomaly.BatchDetector
}

func (d tracedBatchDetector) DetectBatch(windows [][][]float64) ([]anomaly.Verdict, error) {
	t0 := d.tr.now()
	vs, err := d.batch.DetectBatch(windows)
	var call int32
	if d.kind != spanServer {
		call = d.tr.callOfBatch(windows)
	}
	d.tr.record(d.kind, d.layer, call, len(windows), t0, d.tr.now())
	return vs, err
}

// traceDetector wraps det, keeping its batch path when it has one.
func traceDetector(det anomaly.Detector, tr *tracer, kind spanKind, l hec.Layer) anomaly.Detector {
	td := tracedDetector{Detector: det, tr: tr, kind: kind, layer: l}
	if bd, ok := det.(anomaly.BatchDetector); ok {
		return tracedBatchDetector{tracedDetector: td, batch: bd}
	}
	return td
}

// tracedExtractor times context extraction and keeps the contexts it
// produced, so the policy forward pass can be timed on them afterwards.
type tracedExtractor struct {
	features.Extractor
	tr *tracer
}

func (e tracedExtractor) Context(frames [][]float64) ([]float64, error) {
	t0 := e.tr.now()
	z, err := e.Extractor.Context(frames)
	e.tr.record(spanContext, hec.LayerIoT, e.tr.callOf(frames), 1, t0, e.tr.now())
	if err == nil {
		if i := e.tr.nctx.Add(1) - 1; i < int64(len(e.tr.ctxs)) {
			e.tr.ctxs[i] = z
		}
	}
	return z, err
}

// tracedSet times a tier's cluster.Remote boundary. Embedding the replica
// set keeps its batch RPC (cluster.BatchRemote) and routing introspection
// (cluster.StatusSource, which Session.TierStatus reads).
type tracedSet struct {
	*routing.ReplicaSet
	tr    *tracer
	layer hec.Layer
}

func (r tracedSet) DetectContext(ctx context.Context, frames [][]float64) (transport.DetectResult, error) {
	t0 := r.tr.now()
	res, err := r.ReplicaSet.DetectContext(ctx, frames)
	r.tr.record(spanRemote, r.layer, r.tr.callOf(frames), 1, t0, r.tr.now())
	return res, err
}

func (r tracedSet) DetectBatchContext(ctx context.Context, windows [][][]float64) (transport.BatchResult, error) {
	t0 := r.tr.now()
	res, err := r.ReplicaSet.DetectBatchContext(ctx, windows)
	r.tr.record(spanRemote, r.layer, r.tr.callOfBatch(windows), len(windows), t0, r.tr.now())
	return res, err
}

var (
	_ anomaly.BatchDetector = tracedBatchDetector{}
	_ features.Extractor    = tracedExtractor{}
	_ cluster.BatchRemote   = tracedSet{}
	_ cluster.StatusSource  = tracedSet{}
)

// relay is a byte-counting TCP proxy in front of one server: it measures
// what really crosses the wire without touching the program.
type relay struct {
	lis    net.Listener
	target string
	bytes  atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func startRelay(target string) (*relay, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{lis: lis, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) Addr() string { return r.lis.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.lis.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		if !r.track(down, up) {
			return
		}
		r.wg.Add(2)
		go r.pipe(up, down)
		go r.pipe(down, up)
	}
}

// track registers a connection pair for Close; false once closed.
func (r *relay) track(a, b net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		a.Close()
		b.Close()
		return false
	}
	r.conns = append(r.conns, a, b)
	return true
}

// pipe copies src to dst, counting bytes, and tears the pair down when
// either side ends.
func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// Close stops the relay and waits for its goroutines.
func (r *relay) Close() {
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.lis.Close()
	r.wg.Wait()
}

// callBreakdown splits one root call into the time its child spans took
// and the rest (cluster.self_us: routing logic, the policy forward pass,
// result assembly).
type callBreakdown struct {
	total, self, context, iot int64
	remote                    [hec.NumLayers]int64
}

// breakdown attributes every client-side span to its root call. It fails
// when a child lies outside its root's interval or cannot be attributed,
// which would make the self-time split meaningless.
func breakdown(spans []span) (map[int32]*callBreakdown, error) {
	roots := make(map[int32]span)
	for _, s := range spans {
		if s.kind == spanCall {
			roots[s.call] = s
		}
	}
	out := make(map[int32]*callBreakdown, len(roots))
	for id, s := range roots {
		out[id] = &callBreakdown{total: s.dur(), self: s.dur()}
	}
	for _, s := range spans {
		if s.kind == spanCall || s.kind == spanServer {
			continue
		}
		root, ok := roots[s.call]
		if !ok {
			return nil, fmt.Errorf("trace: span kind %d at %v belongs to no recorded call", s.kind, s.layer)
		}
		if s.start < root.start || s.end > root.end {
			return nil, fmt.Errorf("trace: span kind %d [%d,%d] escapes its call [%d,%d]",
				s.kind, s.start, s.end, root.start, root.end)
		}
		b := out[s.call]
		b.self -= s.dur()
		switch s.kind {
		case spanContext:
			b.context += s.dur()
		case spanIoT:
			b.iot += s.dur()
		case spanRemote:
			b.remote[s.layer] += s.dur()
		}
	}
	for id, b := range out {
		if b.self < 0 {
			return nil, fmt.Errorf("trace: call %d's children overlap (self time %d ns)", id, b.self)
		}
	}
	return out, nil
}

// serversNested checks that every server span lies inside a remote span
// of the same tier: the server's work happened within some client RPC.
func serversNested(spans []span) error {
	for _, l := range remoteTiers {
		var remotes []span
		for _, s := range spans {
			if s.kind == spanRemote && s.layer == l {
				remotes = append(remotes, s)
			}
		}
		sort.Slice(remotes, func(i, j int) bool { return remotes[i].start < remotes[j].start })
		// maxEnd[i] is the latest end among remotes[:i+1].
		maxEnd := make([]int64, len(remotes))
		for i, s := range remotes {
			maxEnd[i] = s.end
			if i > 0 && maxEnd[i-1] > s.end {
				maxEnd[i] = maxEnd[i-1]
			}
		}
		for _, s := range spans {
			if s.kind != spanServer || s.layer != l {
				continue
			}
			i := sort.Search(len(remotes), func(i int) bool { return remotes[i].start > s.start }) - 1
			if i < 0 || maxEnd[i] < s.end {
				return fmt.Errorf("trace: %v server span [%d,%d] lies in no remote span", l, s.start, s.end)
			}
		}
	}
	return nil
}
