package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/anomaly"
)

// The wire codec: one hand-rolled little-endian layout per operation, with
// zero reflection. Encoding appends into a caller-supplied buffer (zero
// steady-state allocations); decoding reads float64s straight out of the
// wire buffer into one backing array per window. Every frame payload opens
// with the same envelope — the protocol version byte and the request ID,
// plus, on requests, the op and the propagated deadline — and the body
// layout is selected by the op. Responses do not repeat the op: the client
// records each pending request's op and decodes the response body by it,
// which keeps the hot detection frames as small as they can be.
//
// The layouts are documented byte-for-byte in docs/PROTOCOL.md; property
// tests pin decode(encode(x)) == x bit for bit for every op, and native
// fuzz targets pin that hostile payloads fail cleanly.

// ProtocolVersion is the wire protocol this build speaks. It leads every
// frame, and the OpHello handshake refuses a peer that speaks any other
// version. The hello envelope (version byte, request ID, op byte) is the
// one layout every version must keep, so a mismatched peer is told which
// version it met instead of tripping over an undecodable frame. Versions
// 1–3 are not reused: they named earlier wire generations.
const ProtocolVersion = 4

// verdictWireBytes is the encoded size of one anomaly.Verdict: a flag byte
// plus two float64s.
const verdictWireBytes = 1 + 8 + 8

// AppendRequest appends req's frame payload to dst and returns the extended
// slice. The version byte is always ProtocolVersion (req.Version is a
// decode-side field).
func AppendRequest(dst []byte, req *DetectRequest) ([]byte, error) {
	dst = append(dst, ProtocolVersion)
	dst = appendU64(dst, req.ID)
	dst = append(dst, byte(req.Op))
	dst = appendU64(dst, uint64(req.DeadlineUnixMicro))
	switch req.Op {
	case OpDetect:
		dst = appendFrames(dst, req.Frames)
	case OpDetectBatch:
		dst = appendU32(dst, uint32(len(req.Windows)))
		for _, w := range req.Windows {
			dst = appendFrames(dst, w)
		}
	case OpHello, OpModelVersion:
	case OpCancel:
		dst = appendU64(dst, req.TargetID)
	case OpModelChunk:
		dst = appendU64(dst, uint64(req.ChunkOffset))
		dst = appendU64(dst, uint64(req.ChunkSize))
		dst = appendBool(dst, req.WantDelta)
		dst = appendU32(dst, uint32(len(req.WantTensors)))
		for _, name := range req.WantTensors {
			dst = appendStr(dst, name)
		}
	default:
		return dst, fmt.Errorf("transport: cannot encode op %d", req.Op)
	}
	return dst, nil
}

// DecodeRequest decodes a payload produced by AppendRequest into req. A
// hello from a peer on another protocol version decodes to its envelope
// alone (req.Version tells the server whom it met); any other frame of a
// foreign version is an error.
func DecodeRequest(payload []byte, req *DetectRequest) error {
	cur := cursor{b: payload}
	*req = DetectRequest{Version: cur.u8(), ID: cur.u64(), Op: Op(cur.u8()), DeadlineUnixMicro: int64(cur.u64())}
	if cur.err == nil && req.Version != ProtocolVersion {
		if req.Op == OpHello {
			return nil
		}
		return fmt.Errorf("transport: request has protocol version %d, want %d", req.Version, ProtocolVersion)
	}
	switch req.Op {
	case OpDetect:
		req.Frames = cur.frames()
	case OpDetectBatch:
		if n := cur.count(4, "window"); n > 0 {
			req.Windows = make([][][]float64, n)
			for i := range req.Windows {
				req.Windows[i] = cur.frames()
			}
		}
	case OpHello, OpModelVersion:
	case OpCancel:
		req.TargetID = cur.u64()
	case OpModelChunk:
		req.ChunkOffset = int(int64(cur.u64()))
		req.ChunkSize = int(int64(cur.u64()))
		req.WantDelta = cur.u8() != 0
		if n := cur.count(4, "tensor"); n > 0 {
			req.WantTensors = make([]string, n)
			for i := range req.WantTensors {
				req.WantTensors[i] = cur.str()
			}
		}
	default:
		cur.fail("unknown op %d", req.Op)
	}
	return cur.finish("request")
}

// AppendResponse appends resp's frame payload, in the layout of the request
// op it answers, to dst and returns the extended slice.
func AppendResponse(dst []byte, op Op, resp *DetectResponse) ([]byte, error) {
	dst = append(dst, ProtocolVersion)
	dst = appendU64(dst, resp.ID)
	switch op {
	case OpDetect, OpDetectBatch:
		dst = appendVerdict(dst, resp.Verdict)
		dst = appendF64(dst, resp.ExecMs)
		dst = appendF64(dst, resp.ProcMs)
		dst = appendStr(dst, resp.Err)
		dst = appendStr(dst, resp.Code)
		dst = appendU32(dst, uint32(len(resp.Verdicts)))
		for _, v := range resp.Verdicts {
			dst = appendVerdict(dst, v)
		}
		dst = appendU32(dst, uint32(len(resp.ExecMsEach)))
		for _, e := range resp.ExecMsEach {
			dst = appendF64(dst, e)
		}
		return dst, nil
	case OpHello, OpModelVersion, OpModelChunk:
	default:
		return dst, fmt.Errorf("transport: cannot encode a response to op %d", op)
	}
	dst = appendStr(dst, resp.Err)
	dst = appendStr(dst, resp.Code)
	dst = appendStr(dst, resp.ModelVersion)
	switch op {
	case OpHello:
		dst = appendBool(dst, resp.Sched != nil)
		if s := resp.Sched; s != nil {
			dst = appendU64(dst, uint64(s.QueueDepth))
			dst = appendU64(dst, s.Busy)
			dst = appendU64(dst, s.Expired)
			dst = appendU64(dst, s.Canceled)
		}
	case OpModelVersion:
		dst = appendBool(dst, resp.Manifest != nil)
		if m := resp.Manifest; m != nil {
			dst = appendStr(dst, m.Version)
			dst = appendU32(dst, uint32(len(m.Tensors)))
			for _, t := range m.Tensors {
				dst = appendStr(dst, t.Name)
				dst = appendStr(dst, t.Digest)
				dst = appendU64(dst, uint64(t.Bytes))
			}
		}
	case OpModelChunk:
		dst = appendU64(dst, uint64(resp.ChunkOffset))
		dst = appendU64(dst, uint64(resp.ChunkTotal))
		dst = appendU32(dst, uint32(len(resp.Chunk)))
		dst = append(dst, resp.Chunk...)
		dst = appendU32(dst, resp.ChunkCRC)
	}
	return dst, nil
}

// DecodeResponse decodes a payload produced by AppendResponse for a request
// of the given op into resp. A hello answer from a peer on another protocol
// version decodes to its envelope alone, so the caller can refuse the peer
// by name; any other frame of a foreign version is an error. Decoded slices
// never alias payload.
func DecodeResponse(payload []byte, op Op, resp *DetectResponse) error {
	cur := cursor{b: payload}
	*resp = DetectResponse{Version: cur.u8(), ID: cur.u64()}
	if cur.err == nil && resp.Version != ProtocolVersion {
		if op == OpHello {
			return nil
		}
		return fmt.Errorf("transport: response has protocol version %d, want %d", resp.Version, ProtocolVersion)
	}
	switch op {
	case OpDetect, OpDetectBatch:
		resp.Verdict = cur.verdict()
		resp.ExecMs = cur.f64()
		resp.ProcMs = cur.f64()
		resp.Err = cur.str()
		resp.Code = cur.str()
		if n := cur.count(verdictWireBytes, "verdict"); n > 0 {
			resp.Verdicts = make([]anomaly.Verdict, n)
			for i := range resp.Verdicts {
				resp.Verdicts[i] = cur.verdict()
			}
		}
		if n := cur.count(8, "exec-time"); n > 0 {
			resp.ExecMsEach = make([]float64, n)
			for i := range resp.ExecMsEach {
				resp.ExecMsEach[i] = cur.f64()
			}
		}
		return cur.finish("response")
	case OpHello, OpModelVersion, OpModelChunk:
	default:
		return fmt.Errorf("transport: cannot decode a response to op %d", op)
	}
	resp.Err = cur.str()
	resp.Code = cur.str()
	resp.ModelVersion = cur.str()
	switch op {
	case OpHello:
		if cur.u8() != 0 {
			resp.Sched = &SchedInfo{QueueDepth: int(int64(cur.u64())), Busy: cur.u64(), Expired: cur.u64(), Canceled: cur.u64()}
		}
	case OpModelVersion:
		if cur.u8() != 0 {
			m := &ModelManifest{Version: cur.str()}
			// A tensor record is at least two empty strings and a u64.
			if n := cur.count(16, "tensor"); n > 0 {
				m.Tensors = make([]TensorDigest, n)
				for i := range m.Tensors {
					m.Tensors[i] = TensorDigest{Name: cur.str(), Digest: cur.str(), Bytes: int(int64(cur.u64()))}
				}
			}
			resp.Manifest = m
		}
	case OpModelChunk:
		resp.ChunkOffset = int(int64(cur.u64()))
		resp.ChunkTotal = int(int64(cur.u64()))
		resp.Chunk = cur.bytes()
		resp.ChunkCRC = cur.u32()
	}
	return cur.finish("response")
}

// Append helpers (little-endian).

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendVerdict(b []byte, v anomaly.Verdict) []byte {
	var flags byte
	if v.Anomaly {
		flags |= 1
	}
	if v.Confident {
		flags |= 2
	}
	b = append(b, flags)
	b = appendF64(b, v.MinLogPD)
	return appendF64(b, v.AnomalousFraction)
}

// appendFrames encodes one T×D window: frame count, then per frame a length
// and the raw float64 bit patterns (frames may be ragged on the wire even
// though real windows are rectangular).
func appendFrames(b []byte, frames [][]float64) []byte {
	b = appendU32(b, uint32(len(frames)))
	for _, f := range frames {
		b = appendU32(b, uint32(len(f)))
		for _, x := range f {
			b = appendF64(b, x)
		}
	}
	return b
}

// cursor walks a payload, latching the first decode error so call sites
// stay linear instead of checking every read.
type cursor struct {
	b   []byte
	i   int
	err error
}

func (c *cursor) remaining() int { return len(c.b) - c.i }

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.remaining() < n {
		c.fail("payload truncated at byte %d (need %d more)", c.i, n)
		return false
	}
	return true
}

func (c *cursor) u8() byte {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.i]
	c.i++
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.i:])
	c.i += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.i:])
	c.i += 8
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// cnt reads a u32 count/length field as an int. Any count beyond the
// frame-size cap is invalid (a payload never exceeds 16 MiB), and since
// the cap is far below 2³¹ the int conversion stays non-negative on
// 32-bit platforms — a crafted high count fails cleanly instead of
// sidestepping the bounds checks via sign wraparound.
func (c *cursor) cnt() int {
	v := c.u32()
	if v > maxMessageBytes {
		c.fail("count %d exceeds the frame cap", v)
		return 0
	}
	return int(v)
}

// count reads a u32 element count and checks that that many elements of
// at least minBytes each fit in the rest of the payload, so a crafted count
// cannot make the decoder allocate beyond the frame. It returns 0 once the
// cursor has failed.
func (c *cursor) count(minBytes int, what string) int {
	n := c.cnt()
	if c.err == nil && n > c.remaining()/minBytes {
		c.fail("%s count %d exceeds payload", what, n)
	}
	if c.err != nil {
		return 0
	}
	return n
}

func (c *cursor) str() string {
	n := c.cnt()
	if n == 0 || !c.need(n) {
		return ""
	}
	s := string(c.b[c.i : c.i+n])
	c.i += n
	return s
}

// bytes reads a length-prefixed byte string into a fresh slice (nil when
// empty), so the result never aliases the recycled read buffer.
func (c *cursor) bytes() []byte {
	n := c.cnt()
	if n == 0 || !c.need(n) {
		return nil
	}
	b := append([]byte(nil), c.b[c.i:c.i+n]...)
	c.i += n
	return b
}

func (c *cursor) verdict() anomaly.Verdict {
	flags := c.u8()
	return anomaly.Verdict{
		Anomaly:           flags&1 != 0,
		Confident:         flags&2 != 0,
		MinLogPD:          c.f64(),
		AnomalousFraction: c.f64(),
	}
}

// frames decodes one window. It pre-scans the frame lengths so every
// float64 in the window lands in a single backing array — one allocation
// for the values plus one for the frame headers, however many frames the
// window has.
func (c *cursor) frames() [][]float64 {
	n := c.count(4, "frame")
	if n == 0 {
		return nil
	}
	// First pass: walk the lengths to size the backing array. Lengths are
	// compared in uint64 so a crafted 2³¹-plus value cannot wrap negative
	// on 32-bit platforms.
	total, j := 0, c.i
	for f := 0; f < n; f++ {
		if len(c.b)-j < 4 {
			c.fail("payload truncated in frame %d header", f)
			return nil
		}
		fl := binary.LittleEndian.Uint32(c.b[j:])
		j += 4
		if uint64(fl)*8 > uint64(len(c.b)-j) {
			c.fail("frame %d claims %d values beyond payload", f, fl)
			return nil
		}
		total += int(fl)
		j += int(fl) * 8
	}
	backing := make([]float64, total)
	frames := make([][]float64, n)
	at := 0
	for f := range frames {
		fl := int(c.u32()) // pre-scanned above; fits the payload
		row := backing[at : at+fl : at+fl]
		for k := range row {
			row[k] = c.f64()
		}
		frames[f] = row
		at += fl
	}
	return frames
}

// BenchBatch builds the canonical hot-RPC benchmark workload: a
// DetectBatch request of `batch` univariate weekly windows (672×1) and its
// response. The package's Go benchmarks, the frame-size test and
// hecbench's BENCH_N.json snapshot all use it, so the CI codec gate and
// BenchmarkCodecRoundTrip always measure the same bytes.
func BenchBatch(batch int) (*DetectRequest, *DetectResponse) {
	windows := make([][][]float64, batch)
	for w := range windows {
		win := make([][]float64, 672)
		for i := range win {
			win[i] = []float64{float64(i%7)*0.13 + float64(w)*1e-3}
		}
		windows[w] = win
	}
	req := &DetectRequest{ID: 9, Op: OpDetectBatch, Windows: windows, DeadlineUnixMicro: 1}
	resp := &DetectResponse{
		ID: 9, ProcMs: 1.5,
		Verdicts:   make([]anomaly.Verdict, batch),
		ExecMsEach: make([]float64, batch),
	}
	for i := range resp.Verdicts {
		resp.Verdicts[i] = anomaly.Verdict{Anomaly: i%3 == 0, MinLogPD: -float64(i) * 0.7, AnomalousFraction: 0.01 * float64(i)}
		resp.ExecMsEach[i] = 3.25
	}
	return req, resp
}

// finish reports the latched error, if any, plus trailing garbage.
func (c *cursor) finish(what string) error {
	if c.err != nil {
		return fmt.Errorf("transport: decoding %s: %w", what, c.err)
	}
	if c.remaining() != 0 {
		return fmt.Errorf("transport: %s carries %d trailing bytes", what, c.remaining())
	}
	return nil
}
