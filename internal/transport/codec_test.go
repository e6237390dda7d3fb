package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/anomaly"
)

// randFrames builds an irregular window: ragged rows, and values drawn
// from a pool that deliberately includes the shapes float64 encoding is
// touchiest about — exact zeros, negative zero, infinities, NaN (including
// a non-canonical payload), denormals and ordinary irregular values.
func randFrames(rng *rand.Rand, maxRows, maxCols int) [][]float64 {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8_0000_dead_beef),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, 1e-300, -1e-300,
	}
	rows := rng.Intn(maxRows + 1) // may be empty
	frames := make([][]float64, rows)
	for i := range frames {
		cols := rng.Intn(maxCols + 1) // rows may be ragged and empty
		row := make([]float64, cols)
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = special[rng.Intn(len(special))]
			} else {
				row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
		frames[i] = row
	}
	return frames
}

func randVerdict(rng *rand.Rand) anomaly.Verdict {
	return anomaly.Verdict{
		Anomaly:           rng.Intn(2) == 0,
		Confident:         rng.Intn(2) == 0,
		MinLogPD:          rng.NormFloat64() * 100,
		AnomalousFraction: rng.Float64(),
	}
}

// allOps lists every op with a request layout; responseOps every op that
// is answered (OpCancel is one-way).
var (
	allOps      = []Op{OpDetect, OpDetectBatch, OpHello, OpCancel, OpModelVersion, OpModelChunk}
	responseOps = []Op{OpDetect, OpDetectBatch, OpHello, OpModelVersion, OpModelChunk}
)

// randString returns up to 12 arbitrary bytes (not necessarily UTF-8).
func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(13))
	rng.Read(b)
	return string(b)
}

// randInt spans negative and positive values on every platform.
func randInt(rng *rand.Rand) int { return int(rng.Int31()) - int(rng.Int31()) }

// randRequest fills every field op's layout carries.
func randRequest(rng *rand.Rand, op Op) *DetectRequest {
	req := &DetectRequest{Version: ProtocolVersion, ID: rng.Uint64(), Op: op, DeadlineUnixMicro: rng.Int63() - rng.Int63()}
	switch op {
	case OpDetect:
		req.Frames = randFrames(rng, 6, 8)
	case OpDetectBatch:
		for i := rng.Intn(5); i > 0; i-- {
			req.Windows = append(req.Windows, randFrames(rng, 6, 8))
		}
	case OpCancel:
		req.TargetID = rng.Uint64()
	case OpModelChunk:
		req.ChunkOffset, req.ChunkSize = randInt(rng), randInt(rng)
		req.WantDelta = rng.Intn(2) == 0
		for i := rng.Intn(4); i > 0; i-- {
			req.WantTensors = append(req.WantTensors, randString(rng))
		}
	}
	return req
}

// randResponse fills every field the layout for op carries, including an
// error half the time.
func randResponse(rng *rand.Rand, op Op) *DetectResponse {
	resp := &DetectResponse{Version: ProtocolVersion, ID: rng.Uint64()}
	if rng.Intn(2) == 0 {
		resp.Err, resp.Code = randString(rng), randString(rng)
	}
	switch op {
	case OpDetect, OpDetectBatch:
		resp.Verdict = randVerdict(rng)
		f := randFrames(rng, 1, 2)
		if len(f) > 0 && len(f[0]) == 2 {
			resp.ExecMs, resp.ProcMs = f[0][0], f[0][1]
		}
		for i := rng.Intn(8); i > 0; i-- {
			resp.Verdicts = append(resp.Verdicts, randVerdict(rng))
		}
		if w := randFrames(rng, 1, 8); len(w) > 0 {
			resp.ExecMsEach = w[0]
		}
	case OpHello:
		resp.ModelVersion = randString(rng)
		if rng.Intn(2) == 0 {
			resp.Sched = &SchedInfo{QueueDepth: rng.Intn(1000), Busy: rng.Uint64(), Expired: rng.Uint64(), Canceled: rng.Uint64()}
		}
	case OpModelVersion:
		resp.ModelVersion = randString(rng)
		if rng.Intn(2) == 0 {
			resp.Manifest = &ModelManifest{Version: randString(rng)}
			for i := rng.Intn(4); i > 0; i-- {
				resp.Manifest.Tensors = append(resp.Manifest.Tensors,
					TensorDigest{Name: randString(rng), Digest: randString(rng), Bytes: randInt(rng)})
			}
		}
	case OpModelChunk:
		resp.ModelVersion = randString(rng)
		resp.ChunkOffset, resp.ChunkTotal, resp.ChunkCRC = randInt(rng), randInt(rng), rng.Uint32()
		resp.Chunk = []byte(randString(rng))
	}
	return resp
}

// sameF64 compares float64s bitwise so NaN == NaN and 0 != -0: the wire
// must preserve the exact bits, not just the value.
func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFrames(t *testing.T, what string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s row %d: %d cols vs %d cols", what, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !sameF64(a[i][j], b[i][j]) {
				t.Fatalf("%s[%d][%d]: %x vs %x", what, i, j,
					math.Float64bits(a[i][j]), math.Float64bits(b[i][j]))
			}
		}
	}
}

func sameVerdict(t *testing.T, what string, a, b anomaly.Verdict) {
	t.Helper()
	if a.Anomaly != b.Anomaly || a.Confident != b.Confident ||
		!sameF64(a.MinLogPD, b.MinLogPD) || !sameF64(a.AnomalousFraction, b.AnomalousFraction) {
		t.Fatalf("%s: %+v vs %+v", what, a, b)
	}
}

// sameRequest compares every field bit for bit. Empty and nil slices are
// the same on the wire.
func sameRequest(t *testing.T, a, b *DetectRequest) {
	t.Helper()
	if a.Version != b.Version || a.ID != b.ID || a.Op != b.Op || a.DeadlineUnixMicro != b.DeadlineUnixMicro ||
		a.TargetID != b.TargetID || a.ChunkOffset != b.ChunkOffset || a.ChunkSize != b.ChunkSize ||
		a.WantDelta != b.WantDelta || !slices.Equal(a.WantTensors, b.WantTensors) {
		t.Fatalf("request fields differ:\n%+v\n%+v", a, b)
	}
	sameFrames(t, "Frames", a.Frames, b.Frames)
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("%d windows vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		sameFrames(t, "Windows", a.Windows[i], b.Windows[i])
	}
}

// sameResponse is sameRequest for responses.
func sameResponse(t *testing.T, a, b *DetectResponse) {
	t.Helper()
	if a.Version != b.Version || a.ID != b.ID || a.Err != b.Err || a.Code != b.Code ||
		a.ModelVersion != b.ModelVersion || a.ChunkOffset != b.ChunkOffset || a.ChunkTotal != b.ChunkTotal ||
		a.ChunkCRC != b.ChunkCRC || !bytes.Equal(a.Chunk, b.Chunk) ||
		!sameF64(a.ExecMs, b.ExecMs) || !sameF64(a.ProcMs, b.ProcMs) {
		t.Fatalf("response fields differ:\n%+v\n%+v", a, b)
	}
	sameVerdict(t, "Verdict", a.Verdict, b.Verdict)
	if len(a.Verdicts) != len(b.Verdicts) || len(a.ExecMsEach) != len(b.ExecMsEach) {
		t.Fatalf("batch lengths differ: %d/%d vs %d/%d", len(a.Verdicts), len(a.ExecMsEach), len(b.Verdicts), len(b.ExecMsEach))
	}
	for i := range a.Verdicts {
		sameVerdict(t, "Verdicts", a.Verdicts[i], b.Verdicts[i])
	}
	sameFrames(t, "ExecMsEach", [][]float64{a.ExecMsEach}, [][]float64{b.ExecMsEach})
	if (a.Sched == nil) != (b.Sched == nil) || (a.Sched != nil && *a.Sched != *b.Sched) {
		t.Fatalf("Sched differs: %+v vs %+v", a.Sched, b.Sched)
	}
	if (a.Manifest == nil) != (b.Manifest == nil) ||
		(a.Manifest != nil && (a.Manifest.Version != b.Manifest.Version || !slices.Equal(a.Manifest.Tensors, b.Manifest.Tensors))) {
		t.Fatalf("Manifest differs: %+v vs %+v", a.Manifest, b.Manifest)
	}
}

// TestCodecEquivalenceRequests is the round-trip property for requests:
// for randomized payloads of every op — NaN payloads, ±0, denormals,
// ragged and empty frames — decode(encode(x)) equals x bit for bit, and
// re-encoding the decode reproduces the same bytes.
func TestCodecEquivalenceRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		for _, op := range allOps {
			req := randRequest(rng, op)
			payload, err := AppendRequest(nil, req)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			got := new(DetectRequest)
			if err := DecodeRequest(payload, got); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			sameRequest(t, req, got)
			if again, _ := AppendRequest(nil, got); !bytes.Equal(again, payload) {
				t.Fatalf("op %d: re-encoding the decode changed the bytes", op)
			}
		}
	}
}

// TestCodecEquivalenceResponses is the same property for the response
// layout of every answered op, including the all-zero detection response.
func TestCodecEquivalenceResponses(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		for _, op := range responseOps {
			resp := randResponse(rng, op)
			if trial == 0 && op.detection() {
				resp = &DetectResponse{Version: ProtocolVersion, Verdicts: make([]anomaly.Verdict, 3), ExecMsEach: make([]float64, 3)}
			}
			payload, err := AppendResponse(nil, op, resp)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			got := new(DetectResponse)
			if err := DecodeResponse(payload, op, got); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			sameResponse(t, resp, got)
			if again, _ := AppendResponse(nil, op, got); !bytes.Equal(again, payload) {
				t.Fatalf("op %d: re-encoding the decode changed the bytes", op)
			}
		}
	}
}

// TestHotFrameSizes pins the payload sizes of the hot detection frames, so
// no change to the other ops' layouts can grow what every window pays.
func TestHotFrameSizes(t *testing.T) {
	batchReq, batchResp := BenchBatch(16)
	detectReq := &DetectRequest{ID: 9, Op: OpDetect, Frames: batchReq.Windows[0], DeadlineUnixMicro: 1}
	detectResp := &DetectResponse{ID: 9, Verdict: batchResp.Verdicts[1], ExecMs: 3.25, ProcMs: 1.5}
	for _, tc := range []struct {
		name string
		op   Op
		req  *DetectRequest
		resp *DetectResponse
		want int
	}{
		{"672x1 OpDetect request", OpDetect, detectReq, nil, 8086},
		{"OpDetect response", OpDetect, nil, detectResp, 58},
		{"BenchBatch(16) request", OpDetectBatch, batchReq, nil, 129110},
		{"BenchBatch(16) response", OpDetectBatch, nil, batchResp, 458},
	} {
		var payload []byte
		var err error
		if tc.req != nil {
			payload, err = AppendRequest(nil, tc.req)
		} else {
			payload, err = AppendResponse(nil, tc.op, tc.resp)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != tc.want {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(payload), tc.want)
		}
	}
}

// TestBinaryCodecRejectsCorruptPayloads fuzzes truncations and bit flips
// of every op's request and response layout: decode must error, never
// panic or over-allocate, and trailing garbage is an error.
func TestBinaryCodecRejectsCorruptPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	type input struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}
	var inputs []input
	for _, op := range allOps {
		req := randRequest(rng, op)
		if op == OpDetectBatch {
			req.Windows = [][][]float64{randFrames(rng, 4, 4), randFrames(rng, 4, 4)}
		}
		payload, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("request op %d", op), payload,
			func(b []byte) error { return DecodeRequest(b, new(DetectRequest)) }})
	}
	for _, op := range responseOps {
		payload, err := AppendResponse(nil, op, randResponse(rng, op))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("response op %d", op), payload,
			func(b []byte) error { return DecodeResponse(b, op, new(DetectResponse)) }})
	}
	for _, in := range inputs {
		for cut := 0; cut < len(in.payload); cut++ {
			if err := in.decode(in.payload[:cut]); err == nil {
				t.Fatalf("%s truncated to %d of %d bytes decoded cleanly", in.name, cut, len(in.payload))
			}
		}
		for trial := 0; trial < 200; trial++ {
			mutated := append([]byte(nil), in.payload...)
			mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
			_ = in.decode(mutated) // must not panic
		}
		if err := in.decode(append(in.payload, 0xFF)); err == nil {
			t.Fatalf("%s: trailing bytes must be rejected", in.name)
		}
	}
}

// TestVersionMismatchRefused pins the hard version check at hello: a peer
// on another protocol version is refused with an error naming both
// versions, in either direction, and a peer speaking something else
// entirely (a gob frame) is hung up on without leaking a goroutine.
func TestVersionMismatchRefused(t *testing.T) {
	const other = ProtocolVersion + 5
	t.Run("server speaks another version", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var hello DetectRequest
			if readRequest(conn, &hello) != nil {
				return
			}
			payload, _ := AppendResponse(nil, OpHello, &DetectResponse{ID: hello.ID})
			payload[0] = other
			_ = writeFrame(conn, payload)
			_, _ = io.Copy(io.Discard, conn) // hold the line until the client hangs up
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err = DialContext(ctx, lis.Addr().String(), DialOptions{})
		if err == nil {
			t.Fatal("dial succeeded against a server on another protocol version")
		}
		for _, v := range []string{fmt.Sprintf("speaks %d", other), fmt.Sprintf("speaks %d", ProtocolVersion)} {
			if !strings.Contains(err.Error(), v) {
				t.Fatalf("err = %v, want it to name %q", err, v)
			}
		}
		if !errors.Is(err, ErrConn) {
			t.Fatalf("err = %v, want ErrConn so routing fails over", err)
		}
	})
	t.Run("client speaks another version", func(t *testing.T) {
		srv := startServer(t)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		payload, _ := AppendRequest(nil, &DetectRequest{ID: 3, Op: OpHello})
		payload[0] = other
		if err := writeFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		var resp DetectResponse
		if err := readResponse(conn, OpHello, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != 3 || resp.Version != ProtocolVersion ||
			!strings.Contains(resp.Err, fmt.Sprintf("client speaks %d", other)) ||
			!strings.Contains(resp.Err, fmt.Sprintf("server speaks %d", ProtocolVersion)) {
			t.Fatalf("refusal = %+v, want one naming both versions", resp)
		}
		if _, err := readFrame(conn, nil); err != io.EOF {
			t.Fatalf("after the refusal: %v, want the server to hang up", err)
		}
	})
	t.Run("gob peer is hung up on", func(t *testing.T) {
		srv := startServer(t)
		baseline := runtime.NumGoroutine()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var gobFrame bytes.Buffer
		if err := gob.NewEncoder(&gobFrame).Encode(struct {
			ID     uint64
			Op     uint8
			Frames [][]float64
		}{ID: 1, Op: uint8(OpHello), Frames: [][]float64{{2}}}); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, gobFrame.Bytes()); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			if _, err := readFrame(conn, nil); err != nil {
				if err != io.EOF {
					t.Fatalf("read after a gob frame: %v, want the server to hang up", err)
				}
				break
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("%d goroutines after the hang-up, %d before the peer connected", n, baseline)
		}
		srv.mu.Lock()
		open := len(srv.conns)
		srv.mu.Unlock()
		if open != 0 {
			t.Fatalf("server still tracks %d connection(s)", open)
		}
	})
}

// TestBinaryConnectionStillShipsModels checks that one live connection
// carries both traffic classes: detections and the chunked model fetch.
func TestBinaryConnectionStillShipsModels(t *testing.T) {
	snap := distSnapshot()
	srv := startServerWith(t, ServerOptions{Model: snap})
	cli := dialT(t, srv.Addr(), 0)
	if _, err := cli.Detect([][]float64{{2}}); err != nil {
		t.Fatal(err)
	}
	got, err := cli.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, got, snap)
	if _, err := cli.Detect([][]float64{{2}}); err != nil {
		t.Fatalf("connection unusable after the model fetch: %v", err)
	}
}

// silentListener accepts TCP connections and never answers — the
// black-holed peer whose hello can only time out.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return lis
}

// TestNegotiationFailureTaxonomy pins how a hello that never comes back
// (peer accepts TCP, then silence) classifies, for both halves of the
// contract: the caller's own deadline is preserved as DeadlineExceeded,
// while the handshake's internal budget — a transport implementation
// detail — surfaces as a connection failure so routing layers expel the
// replica and fail over instead of misreading it as the caller's deadline.
func TestNegotiationFailureTaxonomy(t *testing.T) {
	t.Run("caller deadline preserved", func(t *testing.T) {
		lis := silentListener(t)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := DialContext(ctx, lis.Addr().String(), DialOptions{})
		if err == nil {
			t.Fatal("dialing a silent peer must fail the handshake")
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("handshake failure took %v despite a 200ms ctx", elapsed)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the caller's DeadlineExceeded preserved", err)
		}
	})
	t.Run("internal budget is a conn failure", func(t *testing.T) {
		if testing.Short() {
			t.Skip("waits out the 5s handshake budget")
		}
		lis := silentListener(t)
		start := time.Now()
		_, err := DialWith(lis.Addr().String(), DialOptions{})
		if err == nil {
			t.Fatal("dialing a silent peer must fail the handshake")
		}
		if elapsed := time.Since(start); elapsed > 8*time.Second {
			t.Fatalf("handshake failure took %v despite the 5s budget", elapsed)
		}
		if !errors.Is(err, ErrConn) || !errors.Is(err, ErrRemote) {
			t.Fatalf("err = %v, want ErrConn within ErrRemote", err)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("handshake budget leaked as the caller's deadline: %v", err)
		}
	})
}

// decodeAllocBound is the most a decode may allocate for a payload of n
// bytes: every wire element expands to at most a few times its size in
// memory (a 4-byte frame header becomes a 24-byte slice header), plus the
// decoded structs themselves.
func decodeAllocBound(n int) uint64 { return 16*uint64(n) + 4096 }

// allocated reports the bytes fn allocates: the least of three runs, since
// the counter is process-wide and the fuzz engine's own goroutines may
// allocate during any one of them.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeRequest feeds arbitrary payloads to the request decoder. It
// must never panic or allocate beyond decodeAllocBound, and a payload it
// accepts must re-encode to one that decodes to the same request. The
// seed corpus (testdata/fuzz/FuzzDecodeRequest) holds one small frame per
// op and is replayed by plain go test.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req DetectRequest
		var err error
		if n := allocated(func() { err = DecodeRequest(payload, &req) }); n > decodeAllocBound(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		if err != nil || req.Version != ProtocolVersion {
			return
		}
		again, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("re-encoding an accepted request: %v", err)
		}
		var back DetectRequest
		if err := DecodeRequest(again, &back); err != nil {
			t.Fatalf("decoding a re-encoded request: %v", err)
		}
		sameRequest(t, &req, &back)
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the response layouts; op
// picks which answered op the payload is decoded as.
func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, op uint8, payload []byte) {
		o := responseOps[int(op)%len(responseOps)]
		var resp DetectResponse
		var err error
		if n := allocated(func() { err = DecodeResponse(payload, o, &resp) }); n > decodeAllocBound(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		if err != nil || resp.Version != ProtocolVersion {
			return
		}
		again, err := AppendResponse(nil, o, &resp)
		if err != nil {
			t.Fatalf("re-encoding an accepted response: %v", err)
		}
		var back DetectResponse
		if err := DecodeResponse(again, o, &back); err != nil {
			t.Fatalf("decoding a re-encoded response: %v", err)
		}
		sameResponse(t, &resp, &back)
	})
}
