// Package transport implements the testbed's communication layer: length-
// prefixed messages over keep-alive TCP connections (the paper keeps
// sockets open "to reduce the overhead of connection establishment"), a
// detection-service server for hosting a layer's model, client-side one-way
// delay injection emulating the paper's tc-configured WAN links, request-ID
// multiplexing so one connection pipelines many in-flight requests, a
// self-healing client connection pool, a batch-detection RPC that ships N
// windows per request through the vectorised detection engine, and a
// model-shipping RPC so a node that trained a detector can hand its weights
// to peers.
//
// Frames are encoded by one binary codec (codec.go) with a layout per
// operation; the OpHello handshake refuses peers on another protocol
// version. The wire format is documented in docs/PROTOCOL.md.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anomaly"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// ErrRemote marks failures reported by — or on the way to — a remote peer:
// error responses, dropped connections, and server-side load shedding. It is
// never attached to local cancellation (ctx errors pass through unwrapped,
// so errors.Is(err, context.Canceled) stays meaningful), which lets callers
// separate "the remote failed" from "I gave up".
var ErrRemote = errors.New("transport: remote failure")

// ErrConn marks the subset of ErrRemote failures where the connection
// itself died (dial failure, peer dropped, send failed) rather than the
// peer answering with an application error. Routing layers use it to tell
// "this replica is unreachable — evict and fail over" apart from "this
// replica is healthy but refused the request". Every ErrConn error also
// wraps ErrRemote.
var ErrConn = errors.New("transport: connection failure")

// ErrBusy marks the subset of ErrRemote failures where the peer refused
// admission because its scheduler's queue was full (the `busy` response
// code). The replica is healthy — it answered promptly, it just has no
// capacity — so routing layers reroute the request to another replica
// without burning health/expel accounting, and pools keep the connection.
// ErrBusy wraps ErrRemote but never ErrConn.
var ErrBusy = errors.New("transport: server busy")

// maxMessageBytes bounds a single message; a 128×18 float64 window is
// ~18 KB and the largest model snapshot (AE-Cloud) ~4.3 MB, so 16 MB leaves
// ample room while preventing hostile allocations.
const maxMessageBytes = 16 << 20

// maxInFlightPerConn bounds the requests a server handles concurrently on
// one connection. When a peer pipelines faster than the detector drains,
// the read loop stops pulling frames off the socket and TCP flow control
// pushes back on the sender, instead of goroutines and decoded windows
// piling up without bound.
const maxInFlightPerConn = 64

// Op selects what a request asks the server to do.
type Op uint8

// The protocol's operations.
const (
	// OpDetect asks the server to judge one window.
	OpDetect Op = iota
	// OpDetectBatch asks the server to judge many windows in one request —
	// the batch-inference RPC: one wire round trip and one vectorised
	// detection pass amortise framing, codec work and link latency over the
	// whole batch.
	OpDetectBatch
	// OpHello is the version check every connection opens with (and the
	// liveness ping): both ends must speak ProtocolVersion, and a peer on
	// any other version is refused at dial. The response carries the
	// server's model content address and scheduling backlog, so a health
	// probe doubles as a staleness and load probe.
	OpHello
	// OpCancel withdraws an earlier request on the same connection,
	// identified by TargetID: a scheduling server frees the queued or
	// running capacity immediately instead of waiting for the deadline
	// header to catch it. The frame is one-way — the server never responds
	// to it (the canceled request itself gets no response either; the
	// client already left).
	OpCancel
	// OpModelVersion asks for the server's model content address: the
	// SHA-256 version of its canonical tensor payload plus the per-tensor
	// digest manifest. An up-to-date client compares versions and skips the
	// download; a stale one diffs the manifests and delta-fetches only the
	// changed tensors.
	OpModelVersion
	// OpModelChunk fetches one bounded slice of the canonical model payload
	// (full or delta-restricted via WantTensors), identified by byte offset
	// and guarded by a per-chunk CRC. Each chunk is an ordinary pipelined
	// request, so a multi-megabyte provisioning transfer interleaves with
	// detection traffic instead of monopolizing the connection, and a
	// client can resume at any offset — including from a different replica
	// serving the same version.
	OpModelChunk
)

// detection reports whether op is a detection RPC — the only ops that are
// scheduled, shed past their deadline and canceled on the wire.
func (op Op) detection() bool { return op == OpDetect || op == OpDetectBatch }

// DetectRequest is the client→server message. ID is echoed back in the
// response so one connection can pipeline concurrent requests.
type DetectRequest struct {
	// Version is the protocol version the frame was encoded with, as
	// decoded; encoding always writes ProtocolVersion.
	Version uint8
	ID      uint64
	Op      Op
	Frames  [][]float64
	// Windows carries the batch for OpDetectBatch; Frames is ignored.
	Windows [][][]float64
	// DeadlineUnixMicro propagates the caller's context deadline as
	// microseconds since the Unix epoch (0 = no deadline). A server that
	// dequeues the request after this instant sheds the work instead of
	// running the detector — the verdict could no longer reach the caller in
	// time, so computing it would only burn the tier's capacity. Assumes
	// loosely synchronised clocks; see docs/PROTOCOL.md for the skew notes.
	DeadlineUnixMicro int64
	// TargetID is the ID of the request an OpCancel frame withdraws
	// (OpCancel only; zero elsewhere).
	TargetID uint64
	// ChunkOffset and ChunkSize select the slice of the canonical model
	// payload an OpModelChunk request wants: ChunkSize 0 asks for the
	// server's default (DefaultModelChunkBytes). Zero outside OpModelChunk.
	ChunkOffset int
	ChunkSize   int
	// WantDelta marks an OpModelChunk request as a delta fetch: the payload
	// is restricted to the tensors named in WantTensors (possibly none —
	// a header-only delta still refreshes the scorer and threshold). When
	// false the full payload is served and WantTensors is ignored; the
	// explicit flag is what tells a header-only delta from a full fetch.
	WantDelta   bool
	WantTensors []string
}

// Response codes carried in DetectResponse.Code, distinguishing error
// classes that callers must be able to react to mechanically (string
// matching on Err is not a protocol).
const (
	// CodeExpired marks a request shed because its propagated deadline had
	// already passed when the server picked it up. Clients surface it as
	// context.DeadlineExceeded.
	CodeExpired = "expired"
	// CodeBusy marks a request refused at admission because the server's
	// scheduler queue was full. Clients surface it as ErrBusy; routing
	// layers reroute to another replica without health churn.
	CodeBusy = "busy"
)

// DetectResponse is the server→client message. Err is non-empty when the
// operation failed server-side; the connection stays usable. Which fields
// travel depends on the op of the request it answers (see codec.go).
type DetectResponse struct {
	// Version is the protocol version the frame was encoded with, as
	// decoded; encoding always writes ProtocolVersion.
	Version uint8
	ID      uint64
	Verdict anomaly.Verdict
	// ExecMs is the simulated execution time from the server's calibrated
	// compute model (wall-clock when the server has no model).
	ExecMs float64
	// ProcMs is the server's actual wall-clock handling time, so clients can
	// separate network time from compute time.
	ProcMs float64
	Err    string
	// Code classifies machine-actionable failures (see CodeExpired); empty
	// for success and for generic errors.
	Code string
	// Verdicts and ExecMsEach are set only for OpDetectBatch responses, one
	// entry per requested window (ExecMsEach mirrors ExecMs per window).
	Verdicts   []anomaly.Verdict
	ExecMsEach []float64
	// Sched is the server's scheduling backlog, piggybacked on OpHello
	// responses from servers running a scheduler (nil from everyone else).
	Sched *SchedInfo
	// ModelVersion is the content address (hex SHA-256 of the canonical
	// tensor payload) of the model the server currently serves. Carried on
	// OpHello, OpModelVersion and OpModelChunk responses; empty when the
	// server holds no model.
	ModelVersion string
	// Manifest is the per-tensor digest manifest (OpModelVersion only).
	Manifest *ModelManifest
	// ChunkOffset/ChunkTotal/Chunk/ChunkCRC carry one slice of the
	// canonical model payload on OpModelChunk responses: the echoed byte
	// offset, the total payload length for the requested tensor set, the
	// slice itself and its CRC-32 (IEEE). A client resumes by asking for
	// offset len(assembled) — on any replica whose ModelVersion matches.
	ChunkOffset int
	ChunkTotal  int
	Chunk       []byte
	ChunkCRC    uint32
}

// SchedInfo is a scheduling server's backlog snapshot as carried on
// OpHello responses: the live queue depth plus the scheduler's cumulative
// busy/expired/canceled counters, so health probes double as backlog
// collectors for load-aware routing and autoscaling.
type SchedInfo struct {
	// QueueDepth is the number of requests waiting in the admission queue
	// at the time of the hello.
	QueueDepth int
	// Busy counts arrivals refused with the busy code, Expired entries
	// shed at dequeue past their deadline, Canceled cancels that found
	// their target — all cumulative for the server's lifetime.
	Busy     uint64
	Expired  uint64
	Canceled uint64
}

// ModelSnapshot is a detector shipped over the wire: the nn.Snapshot of its
// network plus the fitted anomaly scorer and enough metadata to rebuild the
// identical architecture (builders stay the single source of truth for model
// structure; the snapshot carries values only).
type ModelSnapshot struct {
	// Kind is the model family: "autoencoder" or "seq2seq".
	Kind string
	// Tier is the HEC tier the model was built for: "IoT", "Edge" or "Cloud".
	Tier string
	// InputDim is the autoencoder window width; seq2seq models ignore it.
	InputDim int
	// Quantized records whether the weights were FP16-compressed before
	// shipping (the values already carry the rounding).
	Quantized bool
	// Weights are the network parameters.
	Weights *nn.Snapshot
	// Scorer is the fitted logPD scorer state.
	Scorer *anomaly.ScorerState
	// Conf is the confidence rule the detector judges with.
	Conf anomaly.Confidence
}

// writeFrame writes one frame: the 4-byte big-endian length prefix
// followed by the payload. Oversized payloads are rejected before anything
// hits the wire, leaving the connection usable.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxMessageBytes {
		return fmt.Errorf("transport: message of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: writing length prefix: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("transport: writing payload: %w", err)
	}
	return nil
}

// readFrame reads one frame, reusing buf's storage when it is big enough.
// The returned payload is only valid until the next readFrame on the same
// buf.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxMessageBytes {
		return nil, fmt.Errorf("transport: incoming message of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: reading payload: %w", err)
	}
	return payload, nil
}

// ServerOptions configures ServeWith.
type ServerOptions struct {
	// ExecMs, if non-nil, supplies the simulated execution time reported per
	// request (window length → ms); nil reports wall-clock time.
	ExecMs func(frames int) float64
	// Model, if non-nil, is the snapshot the server distributes to peers
	// (OpModelVersion / OpModelChunk). ServeWith refuses a snapshot the
	// canonical model codec rejects.
	Model *ModelSnapshot
	// Sched, if non-nil, puts the node's detection work under a server-side
	// scheduler: a global concurrency limit with a bounded, policy-ordered
	// admission queue (busy responses when full, expired entries shed at
	// dequeue) and OpCancel support. Nil keeps the legacy behaviour —
	// every request runs immediately, bounded only by the per-connection
	// in-flight cap.
	Sched *sched.Config
}

// Server hosts one layer's detector over TCP. Each accepted connection is
// served by a dedicated read loop; every request is handled on its own
// goroutine and its response written as soon as it is ready (guarded by a
// per-connection write lock), so a slow detection does not block requests
// pipelined behind it.
type Server struct {
	// serving holds the detector, compute model and distributable snapshot
	// behind one atomic pointer, so UpdateModel can hot-swap a refreshed
	// model with zero restarts: requests in flight finish on the detector
	// they loaded, new requests see the new one, and nothing locks.
	serving atomic.Pointer[serving]

	// sched, when non-nil, gates every detection request through the
	// per-node scheduler; connSeq numbers accepted connections so cancel
	// keys (connection, request ID) are unique across clients.
	sched   *sched.Scheduler
	connSeq atomic.Uint64

	// Fault-injection hooks for scenario testing (see SetFaultDelay and
	// Partition); both zero in production.
	faultDelay  atomic.Int64 // extra per-request service time, ns
	partitioned atomic.Bool  // drop new connections, sever existing ones

	lis    net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts a detection server on addr (e.g. "127.0.0.1:0"). execMs, if
// non-nil, supplies the simulated execution time reported per request.
func Serve(addr string, det anomaly.Detector, execMs func(frames int) float64) (*Server, error) {
	return ServeWith(addr, det, ServerOptions{ExecMs: execMs})
}

// ServeWith is Serve with full options.
func ServeWith(addr string, det anomaly.Detector, opt ServerOptions) (*Server, error) {
	if det == nil {
		return nil, errors.New("transport: Serve requires a detector")
	}
	sv, err := newServing(det, opt.ExecMs, opt.Model)
	if err != nil {
		return nil, err
	}
	var schd *sched.Scheduler
	if opt.Sched != nil {
		var err error
		if schd, err = sched.New(*opt.Sched); err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{sched: schd, lis: lis, conns: make(map[net.Conn]struct{})}
	s.serving.Store(sv)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// serving is the server's swappable model state: everything a request
// handler reads is loaded once per request from the atomic pointer.
type serving struct {
	detector anomaly.Detector
	execMs   func(frames int) float64
	// dist is the distributed model: the snapshot, its canonical payload,
	// content address and per-tensor manifest, plus a memo of delta
	// payloads already cut for popular want-lists. Nil when the node
	// serves no model.
	dist *distState
}

type distState struct {
	snap     *ModelSnapshot
	payload  []byte
	manifest *ModelManifest

	mu     sync.Mutex
	deltas map[string][]byte
}

// newServing builds the serving state, canonically encoding the snapshot
// once so version probes and chunk requests serve cached bytes. A snapshot
// the codec rejects is refused: a node never serves a model it cannot
// distribute.
func newServing(det anomaly.Detector, execMs func(int) float64, snap *ModelSnapshot) (*serving, error) {
	sv := &serving{detector: det, execMs: execMs}
	if snap != nil {
		payload, manifest, err := encodeModel(snap, nil)
		if err != nil {
			return nil, fmt.Errorf("transport: refusing to serve snapshot: %w", err)
		}
		sv.dist = &distState{snap: snap, payload: payload, manifest: manifest, deltas: make(map[string][]byte)}
	}
	return sv, nil
}

// deltaPayload returns the canonical payload restricted to want, memoized
// per want-list: a fleet of nodes upgrading across the same two versions
// all ask for the same tensors.
func (d *distState) deltaPayload(want []string) ([]byte, error) {
	key := strings.Join(want, "\x00")
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.deltas[key]; ok {
		return p, nil
	}
	p, err := EncodeModel(d.snap, want)
	if err != nil {
		return nil, err
	}
	d.deltas[key] = p
	return p, nil
}

// UpdateModel hot-swaps the detector the server runs and the snapshot it
// distributes, with zero restarts: in-flight requests finish on the old
// detector, every later request (and every version probe) sees the new one.
// execMs nil keeps the current compute model — the common case when a
// refreshed model has the same architecture. The snapshot is canonically
// encoded before the swap, so a snapshot the codec rejects leaves the
// server serving its previous model.
func (s *Server) UpdateModel(det anomaly.Detector, execMs func(frames int) float64, snap *ModelSnapshot) error {
	if det == nil {
		return errors.New("transport: UpdateModel requires a detector")
	}
	if execMs == nil {
		execMs = s.serving.Load().execMs
	}
	sv, err := newServing(det, execMs, snap)
	if err != nil {
		return err
	}
	s.serving.Store(sv)
	return nil
}

// ModelVersion returns the content address of the model the server is
// currently distributing ("" when none).
func (s *Server) ModelVersion() string {
	if sv := s.serving.Load(); sv.dist != nil {
		return sv.dist.manifest.Version
	}
	return ""
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// SetFaultDelay injects d of extra service time into every detection
// request (OpHello is exempt, so liveness pings and the version check
// still answer promptly — a straggler is slow, not dead). The delay is
// slept outside the server's measured processing time, so clients see it
// exactly where a real straggler's queueing shows up: in measured network
// time, and in the replica's in-flight count. d ≤ 0 removes the fault.
// Safe to call concurrently with live traffic; it is the scenario
// engine's straggler hook.
func (s *Server) SetFaultDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.faultDelay.Store(int64(d))
}

// FaultDelay returns the currently injected per-request service delay.
func (s *Server) FaultDelay() time.Duration { return time.Duration(s.faultDelay.Load()) }

// Partition simulates a network partition around the server: on severs
// every established connection and makes the accept loop drop new ones on
// arrival, so peers see connection-level failures (ErrConn) exactly as
// they would across a real partition — dials "succeed" at the TCP layer
// but no handshake ever completes. Partition(false) heals it: the
// listener was never closed, so clients redial and recover. It is the
// scenario engine's partition/flapping-health hook and is idempotent in
// both directions.
func (s *Server) Partition(on bool) {
	s.partitioned.Store(on)
	if !on {
		return
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
}

// Partitioned reports whether the server is currently partitioned.
func (s *Server) Partitioned() bool { return s.partitioned.Load() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		if s.partitioned.Load() {
			// Partitioned: the TCP connect succeeded, but nothing crosses
			// the cut — the peer's handshake fails and classifies as
			// ErrConn, just like a mid-stream sever.
			conn.Close()
			continue
		}
		if tcp, ok := conn.(*net.TCPConn); ok {
			// Keep-alive sockets, as in the paper's testbed.
			_ = tcp.SetKeepAlive(true)
			_ = tcp.SetKeepAlivePeriod(30 * time.Second)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	var (
		wmu      sync.Mutex // serialises response writes on this connection
		wbuf     []byte     // response encode buffer, guarded by wmu
		inflight sync.WaitGroup
		slots    = make(chan struct{}, maxInFlightPerConn)
		rbuf     []byte // frame read buffer, owned by this loop
	)
	connID := s.connSeq.Add(1)
	defer func() {
		inflight.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		payload, err := readFrame(conn, rbuf)
		if err != nil {
			return // peer closed, drain deadline hit, or protocol error
		}
		rbuf = payload[:cap(payload)]
		req := new(DetectRequest)
		if err := DecodeRequest(payload, req); err != nil {
			return // undecodable frame: the peer does not speak this protocol
		}
		if req.Version != ProtocolVersion {
			// A hello from a peer on another protocol version: tell it
			// which version it met, then hang up — nothing else it sends
			// can be decoded.
			refusal := &DetectResponse{ID: req.ID, Err: fmt.Sprintf(
				"protocol version mismatch: client speaks %d, server speaks %d", req.Version, ProtocolVersion)}
			wmu.Lock()
			if wbuf, err = AppendResponse(wbuf[:0], OpHello, refusal); err == nil {
				_ = writeFrame(conn, wbuf)
			}
			wmu.Unlock()
			return
		}
		if req.Op == OpCancel {
			// One-way frame, handled inline on the read loop without taking
			// an in-flight slot: freeing capacity must not itself queue
			// behind the saturation it is trying to relieve. Without a
			// scheduler there is nothing to free — the request is already
			// running — so the frame is a no-op either way, never an error.
			if s.sched != nil {
				s.sched.Cancel(sched.Key{Conn: connID, Req: req.TargetID})
			}
			continue
		}
		slots <- struct{}{} // backpressure: stop reading when saturated
		inflight.Add(1)
		go func() {
			defer func() {
				<-slots
				inflight.Done()
			}()
			resp, write := s.process(connID, req)
			if !write {
				return // canceled: nobody is waiting for a response
			}
			// A failed write means the peer is gone; the read loop will
			// notice shortly.
			wmu.Lock()
			var encErr error
			if wbuf, encErr = AppendResponse(wbuf[:0], req.Op, resp); encErr == nil {
				_ = writeFrame(conn, wbuf)
			}
			wmu.Unlock()
		}()
	}
}

// process runs one decoded request through admission (when a scheduler is
// configured) and the handler, reporting whether a response should be
// written — canceled requests get none: the client already withdrew its
// pending slot, so a response would just be dropped.
func (s *Server) process(connID uint64, req *DetectRequest) (resp *DetectResponse, write bool) {
	var grant *sched.Grant
	if s.sched != nil && req.Op.detection() {
		var deadline time.Time
		if req.DeadlineUnixMicro > 0 {
			deadline = time.UnixMicro(req.DeadlineUnixMicro)
		}
		class := sched.ClassInteractive
		if req.Op == OpDetectBatch {
			class = sched.ClassBulk
		}
		g, err := s.sched.Acquire(sched.Key{Conn: connID, Req: req.ID}, deadline, class)
		switch {
		case err == nil:
			grant = g
			defer grant.Done()
		case errors.Is(err, sched.ErrBusy):
			return &DetectResponse{ID: req.ID, Code: CodeBusy,
				Err: "server at capacity: scheduler queue full"}, true
		case errors.Is(err, sched.ErrExpired):
			return &DetectResponse{ID: req.ID, Code: CodeExpired,
				Err: "deadline expired while queued; work shed"}, true
		case errors.Is(err, sched.ErrCanceled):
			return nil, false
		default:
			return &DetectResponse{ID: req.ID, Err: err.Error()}, true
		}
	}
	// Straggler injection: sleep the fault delay outside the measured
	// processing time, so clients account it as network/queueing time — and
	// while sleeping, the request occupies an in-flight slot, which is what
	// lets load-aware routing see the straggler. The ping/version-check op
	// stays fast: slow ≠ dead. Under a scheduler the sleep is interruptible
	// by cancel — the whole point of OpCancel is not holding capacity for a
	// caller that already left.
	if d := s.faultDelay.Load(); d > 0 && req.Op != OpHello {
		if grant != nil {
			select {
			case <-time.After(time.Duration(d)):
			case <-grant.Canceled():
				return nil, false
			}
		} else {
			time.Sleep(time.Duration(d))
		}
	}
	resp = s.handle(req)
	if grant != nil && grant.IsCanceled() {
		return nil, false
	}
	return resp, true
}

// SchedStats snapshots the server's scheduler; ok is false when the
// server runs without one.
func (s *Server) SchedStats() (st sched.Stats, ok bool) {
	if s.sched == nil {
		return sched.Stats{}, false
	}
	return s.sched.Stats(), true
}

func (s *Server) handle(req *DetectRequest) *DetectResponse {
	// Deadline shedding: if the client's propagated deadline has already
	// passed, the response cannot be useful no matter how fast detection
	// runs — skip the detector entirely and tell the client why. Only
	// detection is shed: model shipping is a provisioning step whose answer
	// does not go stale, and the hello is not work.
	if req.DeadlineUnixMicro > 0 && req.Op.detection() && time.Now().UnixMicro() > req.DeadlineUnixMicro {
		return &DetectResponse{
			ID:   req.ID,
			Code: CodeExpired,
			Err:  "deadline expired before processing; work shed",
		}
	}
	sv := s.serving.Load()
	switch req.Op {
	case OpDetect:
		start := time.Now()
		v, err := sv.detector.Detect(req.Frames)
		proc := float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			return &DetectResponse{ID: req.ID, ProcMs: proc, Err: err.Error()}
		}
		exec := proc
		if sv.execMs != nil {
			exec = sv.execMs(len(req.Frames))
		}
		return &DetectResponse{ID: req.ID, Verdict: v, ExecMs: exec, ProcMs: proc}
	case OpDetectBatch:
		if len(req.Windows) == 0 {
			return &DetectResponse{ID: req.ID, Err: "empty detection batch"}
		}
		start := time.Now()
		vs, err := anomaly.DetectAll(sv.detector, req.Windows)
		proc := float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			return &DetectResponse{ID: req.ID, ProcMs: proc, Err: err.Error()}
		}
		execEach := make([]float64, len(req.Windows))
		for i, w := range req.Windows {
			if sv.execMs != nil {
				execEach[i] = sv.execMs(len(w))
			} else {
				// No compute model: split the measured handling time evenly.
				execEach[i] = proc / float64(len(req.Windows))
			}
		}
		return &DetectResponse{ID: req.ID, Verdicts: vs, ExecMsEach: execEach, ProcMs: proc}
	case OpModelVersion:
		if sv.dist == nil {
			return &DetectResponse{ID: req.ID, Err: "no model snapshot available on this node"}
		}
		return &DetectResponse{ID: req.ID,
			ModelVersion: sv.dist.manifest.Version, Manifest: sv.dist.manifest}
	case OpModelChunk:
		return s.handleModelChunk(sv, req)
	case OpHello:
		resp := &DetectResponse{ID: req.ID}
		if sv.dist != nil {
			// Carry the model's content address on the hello, so health
			// probes double as staleness probes: a watcher node learns a
			// new version landed without a dedicated RPC.
			resp.ModelVersion = sv.dist.manifest.Version
		}
		if s.sched != nil {
			// Piggyback the scheduling backlog on the hello so health
			// probes double as backlog collectors.
			st := s.sched.Stats()
			resp.Sched = &SchedInfo{
				QueueDepth: st.Queued,
				Busy:       st.Busy,
				Expired:    st.Expired,
				Canceled:   st.Canceled,
			}
		}
		return resp
	default:
		// Unreachable: DecodeRequest admits only the ops above, and
		// OpCancel never reaches the handler.
		return &DetectResponse{ID: req.ID, Err: fmt.Sprintf("op %d has no handler", req.Op)}
	}
}

// handleModelChunk serves one bounded slice of the canonical model payload.
// The server is stateless across chunks — the request names the byte range,
// the response names the version the bytes belong to — which is what makes
// the transfer resumable on any replica serving the same version.
func (s *Server) handleModelChunk(sv *serving, req *DetectRequest) *DetectResponse {
	if sv.dist == nil {
		return &DetectResponse{ID: req.ID, Err: "no model snapshot available on this node"}
	}
	payload := sv.dist.payload
	if req.WantDelta {
		var err error
		if payload, err = sv.dist.deltaPayload(req.WantTensors); err != nil {
			return &DetectResponse{ID: req.ID, Err: err.Error()}
		}
	}
	if req.ChunkOffset < 0 || req.ChunkOffset > len(payload) {
		return &DetectResponse{ID: req.ID,
			Err: fmt.Sprintf("chunk offset %d outside payload of %d bytes", req.ChunkOffset, len(payload))}
	}
	size := req.ChunkSize
	if size <= 0 {
		size = DefaultModelChunkBytes
	}
	if size > maxModelChunkBytes {
		size = maxModelChunkBytes
	}
	if rem := len(payload) - req.ChunkOffset; size > rem {
		size = rem
	}
	chunk := payload[req.ChunkOffset : req.ChunkOffset+size]
	return &DetectResponse{
		ID:           req.ID,
		ModelVersion: sv.dist.manifest.Version,
		ChunkOffset:  req.ChunkOffset,
		ChunkTotal:   len(payload),
		Chunk:        chunk,
		ChunkCRC:     crc32.ChecksumIEEE(chunk),
	}
}

// Close stops accepting, drops every open connection (in-flight handlers
// finish; their responses fail to send), and waits for all connection
// goroutines to exit. Pending client calls are woken with an error rather
// than left hanging on a keep-alive socket. For a graceful alternative that
// lets in-flight responses reach their callers, see Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting connections,
// stops reading new requests off existing ones, lets every in-flight
// request finish and its response reach the wire, then closes the
// connections — so rolling a replica does not surface spurious failures
// for work the server had already picked up. Requests a client pipelined
// but the server had not yet read are dropped with the connection; the
// client sees a connection failure and its routing layer fails over.
//
// If ctx expires before the drain completes, the remaining connections are
// closed Close-style and ctx's error is returned. Shutdown and Close are
// both idempotent and safe to combine (whichever runs first wins).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	err := s.lis.Close()
	// Unblock every connection's read loop without touching the write side:
	// in-flight handlers keep writing responses, but no new request is read.
	now := time.Now()
	for _, conn := range conns {
		_ = conn.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		// Force path: close the stragglers and return at once — handlers
		// still running unwind in the background (their response writes
		// fail), exactly as they would under Close.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// DetectResult is one remote detection as seen by the client, with network
// and compute time separated so callers can account delay consistently:
// NetMs is measured live (including injected link delays), ExecMs comes from
// the server's calibrated compute model.
type DetectResult struct {
	Verdict anomaly.Verdict
	// ExecMs is the server-reported (simulated) execution time.
	ExecMs float64
	// NetMs is the measured wall-clock time minus the server's processing
	// time: transport plus injected link delay.
	NetMs float64
	// E2EMs = NetMs + ExecMs, the model-consistent end-to-end delay.
	E2EMs float64
}

// DialOptions configures DialWith.
type DialOptions struct {
	// OneWay is the emulated per-direction link delay (0 disables emulation).
	OneWay time.Duration
	// Serial restores the legacy one-request-at-a-time behaviour, holding an
	// exclusive lock across the injected delays. It exists so benchmarks and
	// demos can quantify what pipelining buys; new code should leave it off.
	Serial bool
}

// Client is a keep-alive connection to a detection server. Requests carry
// IDs and responses are matched back to their callers by a dedicated read
// loop, so any number of goroutines can have detections in flight on the
// same connection; injected link delays are slept per-call without holding
// any lock shared with other callers.
type Client struct {
	conn   net.Conn
	oneWay time.Duration
	serial bool

	serialMu sync.Mutex // held across a whole call in Serial mode only
	wmu      sync.Mutex // serialises request writes; guards encBuf
	encBuf   []byte     // request encode buffer, guarded by wmu

	mu      sync.Mutex // guards pending, nextID, err
	pending map[uint64]pendingCall
	nextID  uint64
	err     error
}

// pendingCall is one request awaiting its response. The op selects the
// layout the response body is decoded with (responses do not repeat it).
type pendingCall struct {
	ch chan *DetectResponse
	op Op
}

// Dial connects to a detection server with pipelining enabled, after the
// OpHello version check. oneWay is the emulated per-direction link delay (0
// disables emulation).
func Dial(addr string, oneWay time.Duration) (*Client, error) {
	return DialWith(addr, DialOptions{OneWay: oneWay})
}

// DialWith connects to a detection server with full options. It performs
// the OpHello version check before returning, so a peer on another
// protocol version is refused at dial. It is DialContext with
// context.Background(): the dial and the handshake are bounded only by
// their internal 5 s caps.
func DialWith(addr string, opt DialOptions) (*Client, error) {
	return DialContext(context.Background(), addr, opt)
}

// DialContext is DialWith bounded by ctx: both the TCP connect and the
// version handshake respect the caller's deadline (each additionally capped
// at 5 s), so a redial on a request path cannot stall past the request's
// own budget.
func DialContext(ctx context.Context, addr string, opt DialOptions) (*Client, error) {
	if opt.OneWay < 0 {
		return nil, fmt.Errorf("transport: negative one-way delay %v", opt.OneWay)
	}
	dialCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dialCtx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w (%w)", addr, err, connError())
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		_ = tcp.SetKeepAlive(true)
	}
	c := &Client{
		conn:    conn,
		oneWay:  opt.OneWay,
		serial:  opt.Serial,
		pending: make(map[uint64]pendingCall),
	}
	go c.readLoop()
	if err := c.handshake(ctx, addr); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// handshake runs the OpHello version check. A peer on another protocol
// version cannot serve this client at all, so the refusal — naming both
// versions — is a connection failure (ErrConn), and routing layers fail
// over to a compatible replica. A peer that cannot answer the hello
// within the budget is connection-dead too, and the handshake's own
// timeout is deliberately flattened out of the error chain — it is an
// implementation budget, not the caller's detection deadline, and must not
// read as ErrDeadline (which would also stop routing layers from failing
// over).
func (c *Client) handshake(ctx context.Context, addr string) error {
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := c.hello(hctx); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The *caller* abandoned the dial (cancel or their own
			// deadline); preserve their error so the taxonomy reads
			// "I gave up", not "the remote failed".
			return fmt.Errorf("transport: handshake with %s abandoned: %w", addr, ctxErr)
		}
		return fmt.Errorf("transport: handshake with %s failed: %v (%w)", addr, err, connError())
	}
	return nil
}

// hello sends one OpHello and checks the answer: the peer must speak
// ProtocolVersion and accept ours.
func (c *Client) hello(ctx context.Context) (*DetectResponse, error) {
	resp, err := c.do(ctx, &DetectRequest{Op: OpHello})
	if err != nil {
		return nil, err
	}
	if resp.Version != ProtocolVersion {
		return nil, fmt.Errorf("transport: protocol version mismatch: peer speaks %d, this client speaks %d (%w)",
			resp.Version, ProtocolVersion, ErrRemote)
	}
	if resp.Err != "" {
		return nil, remoteError("hello", resp)
	}
	return resp, nil
}

// InFlight reports how many calls are currently awaiting responses on this
// connection — the pipeline depth. Pools prefer idle connections for
// streaming model fetches so provisioning never queues behind a deep
// detection pipeline.
func (c *Client) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// readLoop routes responses to their waiting callers by request ID. On any
// read error it fails every pending call and exits; the client is unusable
// afterwards (Broken reports true) — pools and replica sets evict and
// redial.
func (c *Client) readLoop() {
	var rbuf []byte
	for {
		payload, err := readFrame(c.conn, rbuf)
		if err != nil {
			c.fail(err)
			return
		}
		rbuf = payload[:cap(payload)]
		if len(payload) < 9 {
			c.fail(fmt.Errorf("transport: %d-byte response frame has no envelope", len(payload)))
			return
		}
		id := binary.LittleEndian.Uint64(payload[1:9])
		c.mu.Lock()
		call, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !ok {
			continue // the caller abandoned the request; nobody decodes it
		}
		resp := new(DetectResponse)
		if err := DecodeResponse(payload, call.op, resp); err != nil {
			c.fail(err)
			close(call.ch)
			return
		}
		call.ch <- resp // buffered; never blocks the loop
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, call := range pending {
		close(call.ch)
	}
}

// Broken reports whether the connection has failed (read loop dead or
// Close called). A broken client fails every call; owners evict it and
// dial a replacement.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending == nil
}

// connError returns the sentinel pair every connection-level failure
// wraps: ErrConn for "the connection died, fail over", inside ErrRemote so
// existing taxonomy mapping keeps working.
func connError() error {
	return fmt.Errorf("%w (%w)", ErrConn, ErrRemote)
}

// do sends one request and waits for its response, ctx cancellation, or
// connection failure, whichever comes first. The caller's deadline rides
// the wire in DeadlineUnixMicro so the server can shed expired work. On
// cancellation the pending slot is withdrawn immediately — a response that
// later arrives for it is dropped by the read loop — and ctx's error is
// returned unwrapped-by-ErrRemote so callers can tell cancellation apart
// from remote failure.
func (c *Client) do(ctx context.Context, req *DetectRequest) (*DetectResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		req.DeadlineUnixMicro = deadline.UnixMicro()
	}
	ch := make(chan *DetectResponse, 1)
	c.mu.Lock()
	if c.pending == nil {
		err := c.err
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: connection down: %w (%w)", err, connError())
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = pendingCall{ch: ch, op: req.Op}
	c.mu.Unlock()

	c.wmu.Lock()
	var encErr, writeErr error
	c.encBuf, encErr = AppendRequest(c.encBuf[:0], req)
	if encErr == nil && len(c.encBuf) > maxMessageBytes {
		encErr = fmt.Errorf("transport: message of %d bytes exceeds limit", len(c.encBuf))
	}
	if encErr == nil {
		writeErr = writeFrame(c.conn, c.encBuf)
	}
	c.wmu.Unlock()
	if encErr != nil || writeErr != nil {
		c.mu.Lock()
		if c.pending != nil {
			delete(c.pending, req.ID)
		}
		c.mu.Unlock()
		if encErr != nil {
			// Local refusal (encode failure, oversized message): nothing hit
			// the wire and the connection stays usable — this is the
			// request's failure, not the link's, so it must not read as
			// ErrConn (which would evict healthy connections and expel
			// healthy replicas).
			return nil, fmt.Errorf("transport: sending request: %w (%w)", encErr, ErrRemote)
		}
		return nil, fmt.Errorf("transport: sending request: %w (%w)", writeErr, connError())
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return nil, fmt.Errorf("transport: connection lost mid-request: %w (%w)", err, connError())
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		if c.pending != nil {
			delete(c.pending, req.ID)
		}
		c.mu.Unlock()
		// The pending slot is withdrawn; now tell the server, so a
		// scheduling peer frees the queued/running capacity immediately
		// instead of discovering a stale deadline at dequeue.
		if req.Op.detection() {
			c.sendCancel(req.ID)
		}
		return nil, fmt.Errorf("transport: request abandoned: %w", ctx.Err())
	}
}

// sendCancel ships a one-way OpCancel frame for an abandoned request. The
// frame consumes a fresh request ID that is never registered as pending
// (the server never answers it). Best-effort: write errors are ignored (a
// dead connection has no capacity to free, and the read loop surfaces it
// on the next real call).
func (c *Client) sendCancel(targetID uint64) {
	c.mu.Lock()
	if c.pending == nil {
		c.mu.Unlock()
		return // connection already failed
	}
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	c.wmu.Lock()
	var err error
	c.encBuf, err = AppendRequest(c.encBuf[:0], &DetectRequest{ID: id, Op: OpCancel, TargetID: targetID})
	if err == nil {
		_ = writeFrame(c.conn, c.encBuf)
	}
	c.wmu.Unlock()
}

// timedDo runs one request under the client's delay-emulation protocol: the
// serial-mode lock (held across the whole call, sleeps included), the
// injected one-way delay before the send and again after the response, and
// the network-time measurement (wall clock minus the server's processing
// time, clamped at zero). Detect and DetectBatch share it so the protocol
// cannot drift between the per-window and batch paths. ctx cancellation is
// honoured during both injected delays and while waiting for the response.
func (c *Client) timedDo(ctx context.Context, req *DetectRequest) (*DetectResponse, float64, error) {
	if c.serial {
		c.serialMu.Lock()
		defer c.serialMu.Unlock()
	}
	start := time.Now()
	if err := parallel.Sleep(ctx, c.oneWay); err != nil {
		return nil, 0, fmt.Errorf("transport: request abandoned on uplink: %w", err)
	}
	resp, err := c.do(ctx, req)
	if err != nil {
		return nil, 0, err
	}
	if err := parallel.Sleep(ctx, c.oneWay); err != nil {
		return nil, 0, fmt.Errorf("transport: response abandoned on downlink: %w", err)
	}
	wall := float64(time.Since(start)) / float64(time.Millisecond)
	netMs := wall - resp.ProcMs
	if netMs < 0 {
		netMs = 0
	}
	return resp, netMs, nil
}

// remoteError converts a server-side error response into a client error:
// generic failures wrap ErrRemote; shed-on-deadline responses
// (CodeExpired) additionally satisfy errors.Is(err,
// context.DeadlineExceeded) so deadline handling is uniform whether the
// deadline tripped locally or at the server; admission refusals
// (CodeBusy) additionally satisfy errors.Is(err, ErrBusy) so routing
// layers reroute without health churn.
func remoteError(op string, resp *DetectResponse) error {
	if resp.Code == CodeExpired {
		return fmt.Errorf("transport: %s: %s: %w (%w)", op, resp.Err, context.DeadlineExceeded, ErrRemote)
	}
	if resp.Code == CodeBusy {
		return fmt.Errorf("transport: %s: %s: %w (%w)", op, resp.Err, ErrBusy, ErrRemote)
	}
	return fmt.Errorf("transport: %s: %s (%w)", op, resp.Err, ErrRemote)
}

// Detect sends one window for remote detection. The injected one-way delay
// is slept before the request is sent and again after the response arrives,
// emulating link propagation per call — concurrent callers overlap their
// delays instead of queueing behind each other.
//
// Detect is DetectContext with context.Background(): it cannot be cancelled
// and propagates no deadline.
func (c *Client) Detect(frames [][]float64) (DetectResult, error) {
	return c.DetectContext(context.Background(), frames)
}

// DetectContext is Detect with cancellation and deadline propagation: a
// done ctx aborts the injected delays and the response wait with ctx.Err(),
// and a ctx deadline rides the wire header so the server sheds the request
// if it arrives already expired.
func (c *Client) DetectContext(ctx context.Context, frames [][]float64) (DetectResult, error) {
	resp, netMs, err := c.timedDo(ctx, &DetectRequest{Op: OpDetect, Frames: frames})
	if err != nil {
		return DetectResult{}, err
	}
	if resp.Err != "" {
		return DetectResult{}, remoteError("remote detection", resp)
	}
	return DetectResult{
		Verdict: resp.Verdict,
		ExecMs:  resp.ExecMs,
		NetMs:   netMs,
		E2EMs:   netMs + resp.ExecMs,
	}, nil
}

// BatchResult is one remote batch detection as seen by the client. Network
// time is measured once for the whole request (that is the point of
// batching: one round trip for N windows); execution times come back per
// window from the server's calibrated compute model.
type BatchResult struct {
	// Verdicts holds one verdict per requested window, in request order.
	Verdicts []anomaly.Verdict
	// ExecMsEach is the server-reported (simulated) execution time per
	// window.
	ExecMsEach []float64
	// NetMs is the measured wall-clock time of the whole request minus the
	// server's processing time: transport plus injected link delay, shared
	// by every window in the batch.
	NetMs float64
}

// DetectBatch ships a batch of windows in one request and returns all
// verdicts — the wire form of the batched tensor engine. The injected
// one-way delay is slept once per request, not per window. It is
// DetectBatchContext with context.Background().
func (c *Client) DetectBatch(windows [][][]float64) (BatchResult, error) {
	return c.DetectBatchContext(context.Background(), windows)
}

// DetectBatchContext is DetectBatch with cancellation and deadline
// propagation (see DetectContext). The deadline covers the whole batch: a
// server that picks the request up past it sheds all N windows at once.
func (c *Client) DetectBatchContext(ctx context.Context, windows [][][]float64) (BatchResult, error) {
	resp, netMs, err := c.timedDo(ctx, &DetectRequest{Op: OpDetectBatch, Windows: windows})
	if err != nil {
		return BatchResult{}, err
	}
	if resp.Err != "" {
		return BatchResult{}, remoteError("remote batch detection", resp)
	}
	if len(resp.Verdicts) != len(windows) || len(resp.ExecMsEach) != len(windows) {
		return BatchResult{}, fmt.Errorf("transport: batch response carries %d verdicts / %d exec times for %d windows (%w)",
			len(resp.Verdicts), len(resp.ExecMsEach), len(windows), ErrRemote)
	}
	return BatchResult{Verdicts: resp.Verdicts, ExecMsEach: resp.ExecMsEach, NetMs: netMs}, nil
}

// FetchModel retrieves the server's detector snapshot (the model-shipping
// RPC): a node that trained once serves its weights, and peers rebuild the
// detector locally instead of retraining. It is FetchModelContext with
// context.Background().
func (c *Client) FetchModel() (*ModelSnapshot, error) {
	return c.FetchModelContext(context.Background())
}

// FetchModelContext is FetchModel with cancellation: RefreshModelContext
// with no base snapshot. The canonical tensor payload arrives in bounded
// chunks — CRC-checked, hash-verified against its content address, and
// interleaved with any detection traffic pipelined on the same
// connection. The wire deadline is not used for shedding here because
// provisioning work is still useful to a retrying caller.
func (c *Client) FetchModelContext(ctx context.Context) (*ModelSnapshot, error) {
	snap, _, err := c.RefreshModelContext(ctx, nil)
	return snap, err
}

// ErrModelChanged reports that the server's model version changed while a
// chunked transfer was assembling — the server hot-swapped a refreshed
// model mid-fetch. The partial assembly is useless (chunks of two versions
// don't mix); callers restart from a fresh version probe. It does not wrap
// ErrConn: the replica is healthy, the model is just newer.
var ErrModelChanged = errors.New("transport: model version changed during transfer")

// ModelChunk is one verified slice of a canonical model payload.
type ModelChunk struct {
	// Version is the content address the bytes belong to.
	Version string
	// Offset/Total locate the slice within the payload.
	Offset, Total int
	// Data is the slice itself (CRC already verified).
	Data []byte
}

// ModelManifestContext asks the peer for its model's content address and
// per-tensor digest manifest (OpModelVersion).
func (c *Client) ModelManifestContext(ctx context.Context) (*ModelManifest, error) {
	resp, err := c.do(ctx, &DetectRequest{Op: OpModelVersion})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, remoteError("probing model version", resp)
	}
	if resp.Manifest == nil || resp.ModelVersion == "" {
		return nil, fmt.Errorf("transport: peer returned an empty model manifest (%w)", ErrRemote)
	}
	return resp.Manifest, nil
}

// ModelChunkContext fetches one slice of the canonical model payload at
// offset (size 0 = server default; want/wantDelta select a delta payload).
// The chunk's CRC is verified here: a mismatch means the byte stream can no
// longer be trusted, so it classifies as a connection failure and routing
// layers resume the transfer on another replica.
func (c *Client) ModelChunkContext(ctx context.Context, offset, size int, want []string, wantDelta bool) (ModelChunk, error) {
	resp, err := c.do(ctx, &DetectRequest{
		Op: OpModelChunk, ChunkOffset: offset, ChunkSize: size,
		WantDelta: wantDelta, WantTensors: want,
	})
	if err != nil {
		return ModelChunk{}, err
	}
	if resp.Err != "" {
		return ModelChunk{}, remoteError("fetching model chunk", resp)
	}
	if crc32.ChecksumIEEE(resp.Chunk) != resp.ChunkCRC {
		return ModelChunk{}, fmt.Errorf("transport: model chunk at offset %d failed its CRC %w", offset, connError())
	}
	return ModelChunk{Version: resp.ModelVersion, Offset: resp.ChunkOffset, Total: resp.ChunkTotal, Data: resp.Chunk}, nil
}

// AssembleModel drives a chunked transfer to completion: fetch is called
// with the next byte offset until the assembled payload reaches the total,
// resuming wherever the previous chunk left off — across calls, and (when
// fetch routes through a failover layer) across replicas, since the server
// keeps no per-transfer state. A chunk carrying a different version than
// the assembly started with fails with ErrModelChanged; the caller
// re-probes and restarts.
func AssembleModel(ctx context.Context, fetch func(ctx context.Context, offset int) (ModelChunk, error)) ([]byte, string, error) {
	var buf []byte
	version := ""
	total := -1
	for {
		ch, err := fetch(ctx, len(buf))
		if err != nil {
			return nil, "", err
		}
		if version == "" {
			version, total = ch.Version, ch.Total
		}
		if ch.Version != version {
			return nil, "", fmt.Errorf("assembling %.8s, got a chunk of %.8s: %w", version, ch.Version, ErrModelChanged)
		}
		if ch.Offset != len(buf) || ch.Total != total || len(buf)+len(ch.Data) > total {
			return nil, "", fmt.Errorf("transport: model chunk stream inconsistent (offset %d/%d, total %d/%d) (%w)",
				ch.Offset, len(buf), ch.Total, total, ErrRemote)
		}
		if len(ch.Data) == 0 && len(buf) < total {
			return nil, "", fmt.Errorf("transport: empty model chunk at offset %d of %d (%w)", len(buf), total, ErrRemote)
		}
		buf = append(buf, ch.Data...)
		if len(buf) >= total {
			return buf, version, nil
		}
	}
}

// RefreshModel is the version-aware model fetch every client of the
// distribution ops shares — Client, Pool and routing.ReplicaSet differ only
// in how a probe or a chunk reaches a server. Given the snapshot the
// caller currently runs (nil for none), it probes the content address and
// either skips the download entirely (versions match — upToDate true, nil
// snapshot), ships a delta of only the changed tensors merged over base,
// or fetches the full payload. Chunks are assembled with AssembleModel, so
// a chunk func that fails over resumes the transfer on another replica. A
// version swap mid-transfer re-probes; a delta that does not reproduce the
// advertised version (base and server disagree structurally) is retried as
// a full fetch; both within a budget of three attempts. The returned
// snapshot is always hash-verified against the advertised version.
func RefreshModel(ctx context.Context, base *ModelSnapshot,
	probe func(ctx context.Context) (*ModelManifest, error),
	chunk func(ctx context.Context, offset, size int, want []string, wantDelta bool) (ModelChunk, error),
) (*ModelSnapshot, bool, error) {
	var baseMan *ModelManifest
	if base != nil {
		if m, err := ManifestOf(base); err == nil {
			baseMan = m
		}
	}
	for attempt := 0; attempt < 3; attempt++ {
		man, err := probe(ctx)
		if err != nil {
			return nil, false, err
		}
		if baseMan != nil && man.Version == baseMan.Version {
			return nil, true, nil
		}
		want := man.Diff(baseMan)
		wantDelta := baseMan != nil
		payload, version, err := AssembleModel(ctx, func(ctx context.Context, off int) (ModelChunk, error) {
			return chunk(ctx, off, 0, want, wantDelta)
		})
		if errors.Is(err, ErrModelChanged) || (err == nil && version != man.Version) {
			continue // the server swapped models mid-fetch; re-probe
		}
		if err != nil {
			return nil, false, err
		}
		if !wantDelta {
			if got := hexDigest(payload); got != man.Version {
				return nil, false, fmt.Errorf("transport: fetched model hashes to %.8s, peer advertised %.8s (%w)",
					got, man.Version, ErrRemote)
			}
			snap, err := DecodeModel(payload)
			return snap, false, err
		}
		delta, err := DecodeModel(payload)
		if err != nil {
			return nil, false, err
		}
		if merged, err := MergeModel(base, delta); err == nil {
			if m, err := ManifestOf(merged); err == nil && m.Version == man.Version {
				return merged, false, nil
			}
		}
		// The delta doesn't reconstruct the advertised version (the
		// architecture changed under the same tensor names, or base and
		// server disagree structurally): a full fetch is always sound.
		baseMan = nil
	}
	return nil, false, fmt.Errorf("transport: model version kept changing during refresh: %w", ErrModelChanged)
}

// RefreshModelContext is the version-aware fetch (see RefreshModel) over
// this connection.
func (c *Client) RefreshModelContext(ctx context.Context, base *ModelSnapshot) (*ModelSnapshot, bool, error) {
	return RefreshModel(ctx, base, c.ModelManifestContext, c.ModelChunkContext)
}

// Ping verifies the peer is alive and answering: it sends an OpHello, so
// the probe proves the peer's read and write loops both work without
// costing the tier real detector compute. Health checkers use it instead
// of a detection RPC.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.PingStatus(ctx)
	return err
}

// PeerStatus is what a liveness probe learns about a peer beyond "it
// answers": whether it runs a server-side scheduler, and the scheduler's
// backlog if so. Peers without a scheduler report the zero value.
type PeerStatus struct {
	// Scheduled reports that the peer runs a server-side scheduler and the
	// remaining fields are meaningful.
	Scheduled bool
	// QueueDepth is the peer's admission-queue occupancy at probe time;
	// Busy/Expired/Canceled are its cumulative scheduler counters (see
	// SchedInfo).
	QueueDepth int
	Busy       uint64
	Expired    uint64
	Canceled   uint64
	// ModelVersion is the content address of the model the peer currently
	// distributes, piggybacked on the hello ("" from peers without a
	// model) — so a liveness probe doubles as a staleness probe.
	ModelVersion string
}

// PingStatus is Ping returning the peer's scheduling backlog as
// piggybacked on the hello response, so one probe answers both "alive?"
// and "how loaded?".
func (c *Client) PingStatus(ctx context.Context) (PeerStatus, error) {
	resp, err := c.hello(ctx)
	if err != nil {
		return PeerStatus{}, err
	}
	st := PeerStatus{ModelVersion: resp.ModelVersion}
	if resp.Sched != nil {
		st.Scheduled = true
		st.QueueDepth = resp.Sched.QueueDepth
		st.Busy = resp.Sched.Busy
		st.Expired = resp.Sched.Expired
		st.Canceled = resp.Sched.Canceled
	}
	return st, nil
}

// Close closes the connection; pending calls fail and Broken reports true.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(errors.New("transport: client closed"))
	return err
}
