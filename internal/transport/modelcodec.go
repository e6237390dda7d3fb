// Canonical binary model payloads: the tensor-level codec behind the
// fleet-scale distribution path (chunked fetch, content-addressed versions,
// delta updates). A ModelSnapshot is flattened into one deterministic,
// length-delimited byte layout — per-tensor header (name, dims, dtype) plus
// a raw little-endian value payload, zero reflection — and everything else
// is derived from those bytes:
//
//   - the snapshot's *version* is the hex SHA-256 of the full canonical
//     payload, so two nodes holding bit-identical models compute the same
//     version independently and an up-to-date node can skip a download
//     entirely;
//   - the *manifest* carries one SHA-256 per tensor record, so a delta
//     update ships only the tensors whose digests changed;
//   - chunked transfer (OpModelChunk) slices the same payload at arbitrary
//     offsets, so a resumed or failed-over fetch continues byte-exact on
//     any replica serving the same version.
//
// Determinism is what makes content addressing sound, so the encoder never
// consults anything but the snapshot values: the per-tensor dtype is chosen
// by exact representability (does every value bit-survive the fp16 or int8
// round trip?), which in turn is guaranteed by the quantizers themselves —
// nn.QuantizeParams writes values that ARE the rounded product, so a
// quantized tier's weight matrices always take the narrow encoding and the
// choice is a pure function of the bytes being hashed.
package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/anomaly"
	"repro/internal/mat"
	"repro/internal/nn"
)

// The canonical model payload starts with this magic plus a layout version
// byte, so a truncated or foreign blob fails loudly before any allocation.
const (
	modelMagic         = "HECM"
	modelLayoutVersion = 1
)

// Tensor value encodings. The encoder picks, per tensor, the smallest
// encoding that reproduces every value bit-exactly; the dtype therefore
// also documents how the tensor was quantized.
const (
	// dtypeF64: raw little-endian float64 values.
	dtypeF64 = 0
	// dtypeFP16: IEEE-754 binary16 codes (2 bytes/value); exact for
	// fp16-quantized parameters (see nn.QuantFP16).
	dtypeFP16 = 1
	// dtypeI8: per-row power-of-two scale (float64) followed by one int8
	// code per value; exact for int8-quantized weight rows (see
	// mat.I8RowScale — scales are powers of two, so code·scale is exact).
	dtypeI8 = 2
)

// Chunked-transfer bounds: the server slices the canonical payload into
// frames of ChunkSize bytes (capped below), small enough that a model
// transfer interleaves with detection traffic on a pipelined connection
// instead of monopolizing it for a multi-megabyte frame.
const (
	// DefaultModelChunkBytes is the chunk size used when the request
	// doesn't specify one.
	DefaultModelChunkBytes = 256 << 10
	// maxModelChunkBytes caps a single chunk regardless of what the
	// request asks for.
	maxModelChunkBytes = 1 << 20
)

// TensorDigest identifies one tensor's content within a model version.
type TensorDigest struct {
	// Name is the parameter name from the nn.Snapshot.
	Name string
	// Digest is the hex SHA-256 of the tensor's canonical record (header
	// and values both — a reshaped tensor with equal values still differs).
	Digest string
	// Bytes is the length of the canonical record.
	Bytes int
}

// ModelManifest is the content address of a model snapshot: the version
// (hex SHA-256 over the full canonical payload) plus one digest per tensor,
// in snapshot order. Two manifests with equal Version hold bit-identical
// models; the per-tensor digests drive delta updates (ship only tensors
// whose digest changed). It travels on OpModelVersion responses.
type ModelManifest struct {
	Version string
	Tensors []TensorDigest
}

// Tensor returns the digest record for name.
func (m *ModelManifest) Tensor(name string) (TensorDigest, bool) {
	for _, t := range m.Tensors {
		if t.Name == name {
			return t, true
		}
	}
	return TensorDigest{}, false
}

// Diff returns the names of the tensors in m that local is missing or holds
// with a different digest — the want-list a delta fetch ships. A nil local
// returns every tensor (a full fetch). Order follows m.Tensors, which is
// snapshot order on both ends.
func (m *ModelManifest) Diff(local *ModelManifest) []string {
	if local == nil {
		names := make([]string, len(m.Tensors))
		for i, t := range m.Tensors {
			names[i] = t.Name
		}
		return names
	}
	var names []string
	for _, t := range m.Tensors {
		if lt, ok := local.Tensor(t.Name); !ok || lt.Digest != t.Digest {
			names = append(names, t.Name)
		}
	}
	return names
}

// EncodeModel flattens snap into the canonical binary payload. want
// restricts the payload to the named tensors (a delta update); nil means
// every tensor (the full payload whose SHA-256 is the snapshot's version).
// The header — kind, tier, input dim, quantization flag, scorer state and
// confidence rule — is always included, so a delta also refreshes the
// detection threshold that a retraining step refits.
func EncodeModel(snap *ModelSnapshot, want []string) ([]byte, error) {
	b, _, err := encodeModel(snap, want)
	return b, err
}

// ManifestOf computes snap's content address: the full canonical payload is
// encoded and hashed, never stored — callers that also ship the payload use
// the server's cached copy.
func ManifestOf(snap *ModelSnapshot) (*ModelManifest, error) {
	_, m, err := encodeModel(snap, nil)
	return m, err
}

// encodeModel builds the canonical payload for the selected tensors and,
// when encoding the full snapshot, its manifest.
func encodeModel(snap *ModelSnapshot, want []string) ([]byte, *ModelManifest, error) {
	if snap == nil {
		return nil, nil, fmt.Errorf("transport: encoding nil model snapshot")
	}
	w := snap.Weights
	if w == nil {
		return nil, nil, fmt.Errorf("transport: model snapshot for %s/%s has no weights", snap.Kind, snap.Tier)
	}
	if len(w.Names) != len(w.Shapes) || len(w.Names) != len(w.Values) {
		return nil, nil, fmt.Errorf("transport: model snapshot weights are inconsistent (%d names, %d shapes, %d value sets)",
			len(w.Names), len(w.Shapes), len(w.Values))
	}
	names := canonicalTensorNames(w.Names)
	include := make(map[string]bool, len(names))
	for i, name := range names {
		for _, prev := range names[:i] {
			if prev == name {
				return nil, nil, fmt.Errorf("transport: duplicate tensor name %q; delta updates need unique names", name)
			}
		}
		if want == nil {
			include[name] = true
		}
	}
	for _, name := range want {
		found := false
		for _, n := range names {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("transport: unknown tensor %q requested", name)
		}
		include[name] = true
	}

	b := append([]byte(nil), modelMagic...)
	b = append(b, modelLayoutVersion)
	b = appendStr(b, snap.Kind)
	b = appendStr(b, snap.Tier)
	b = appendU32(b, uint32(snap.InputDim))
	if snap.Quantized {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if snap.Scorer != nil {
		b = append(b, 1)
		b = appendU32(b, uint32(len(snap.Scorer.Mean)))
		for _, v := range snap.Scorer.Mean {
			b = appendF64(b, v)
		}
		b = appendU32(b, uint32(len(snap.Scorer.Cov)))
		for _, v := range snap.Scorer.Cov {
			b = appendF64(b, v)
		}
		b = appendF64(b, snap.Scorer.Threshold)
	} else {
		b = append(b, 0)
	}
	b = appendF64(b, snap.Conf.Factor)
	b = appendF64(b, snap.Conf.Fraction)

	count := 0
	for _, name := range names {
		if include[name] {
			count++
		}
	}
	b = appendU32(b, uint32(count))
	var digests []TensorDigest
	for i, name := range names {
		if !include[name] {
			continue
		}
		rows, cols := w.Shapes[i][0], w.Shapes[i][1]
		vals := w.Values[i]
		if rows < 0 || cols < 0 || rows*cols != len(vals) {
			return nil, nil, fmt.Errorf("transport: tensor %q is %dx%d but carries %d values", name, rows, cols, len(vals))
		}
		if len(vals) > maxMessageBytes {
			return nil, nil, fmt.Errorf("transport: tensor %q has %d values, beyond the codec's element cap", name, len(vals))
		}
		start := len(b)
		b = appendStr(b, name)
		b = appendU32(b, uint32(rows))
		b = appendU32(b, uint32(cols))
		b = appendTensorValues(b, rows, cols, vals)
		digests = append(digests, TensorDigest{
			Name:   name,
			Digest: hexDigest(b[start:]),
			Bytes:  len(b) - start,
		})
	}
	var manifest *ModelManifest
	if want == nil {
		manifest = &ModelManifest{Version: hexDigest(b), Tensors: digests}
	}
	return b, manifest, nil
}

func hexDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// canonicalTensorNames assigns each tensor the identity it carries in the
// canonical payload: the parameter name when unique, name@index otherwise.
// nn networks name parameters per layer ("W", "b", "W", "b", ...) and
// restore by position, so the positional qualifier is what makes names
// usable as content-addressing keys — and being a pure function of the
// snapshot's name list, every node derives the same identities
// independently. Names already unique (including those of a decoded
// payload, which arrive pre-qualified) pass through unchanged, so
// encode→decode→encode is a fixed point and version hashes agree across
// the round trip.
func canonicalTensorNames(raw []string) []string {
	seen := make(map[string]int, len(raw))
	for _, n := range raw {
		seen[n]++
	}
	names := make([]string, len(raw))
	for i, n := range raw {
		if seen[n] > 1 {
			names[i] = fmt.Sprintf("%s@%d", n, i)
		} else {
			names[i] = n
		}
	}
	return names
}

// appendTensorValues writes the dtype byte and the values under the
// smallest encoding that reproduces every value bit-exactly. The choice is
// a pure function of the values, keeping the payload — and therefore the
// content address — deterministic across nodes.
func appendTensorValues(b []byte, rows, cols int, vals []float64) []byte {
	switch pickDtype(rows, cols, vals) {
	case dtypeI8:
		b = append(b, dtypeI8)
		for r := 0; r < rows; r++ {
			row := vals[r*cols : (r+1)*cols]
			scale := mat.I8RowScale(row)
			b = appendF64(b, scale)
			for _, v := range row {
				b = append(b, byte(mat.I8Quantize(v, scale)))
			}
		}
	case dtypeFP16:
		b = append(b, dtypeFP16)
		for _, v := range vals {
			code := mat.Float16Bits(v)
			b = append(b, byte(code), byte(code>>8))
		}
	default:
		b = append(b, dtypeF64)
		for _, v := range vals {
			b = appendF64(b, v)
		}
	}
	return b
}

// pickDtype selects the smallest exact encoding. int8 rows cost
// 8+cols bytes each, fp16 costs 2 bytes per value — so wide quantized
// matrices go int8 while short rows (biases) may prefer fp16 even when
// int8-representable.
func pickDtype(rows, cols int, vals []float64) int {
	i8OK := true
	for r := 0; r < rows && i8OK; r++ {
		row := vals[r*cols : (r+1)*cols]
		scale := mat.I8RowScale(row)
		for _, v := range row {
			if math.Float64bits(mat.QuantizeI8(v, scale)) != math.Float64bits(v) {
				i8OK = false
				break
			}
		}
	}
	fp16OK := true
	for _, v := range vals {
		if math.Float64bits(mat.Float16From(mat.Float16Bits(v))) != math.Float64bits(v) {
			fp16OK = false
			break
		}
	}
	i8Bytes := rows * (8 + cols)
	fp16Bytes := 2 * rows * cols
	switch {
	case i8OK && (!fp16OK || i8Bytes <= fp16Bytes):
		return dtypeI8
	case fp16OK:
		return dtypeFP16
	default:
		return dtypeF64
	}
}

// DecodeModel parses a canonical payload back into a snapshot. A delta
// payload decodes into a snapshot holding only the shipped tensors — merge
// it over the previous version with MergeModel. Corrupt, truncated or
// trailing bytes fail without panicking; the returned snapshot shares no
// storage with the payload.
func DecodeModel(payload []byte) (*ModelSnapshot, error) {
	cur := &cursor{b: payload}
	if !cur.need(len(modelMagic) + 1) {
		return nil, cur.finish("model payload")
	}
	if string(payload[:len(modelMagic)]) != modelMagic {
		return nil, fmt.Errorf("transport: not a canonical model payload (bad magic)")
	}
	cur.i = len(modelMagic)
	if v := cur.u8(); v != modelLayoutVersion {
		return nil, fmt.Errorf("transport: model payload layout version %d, want %d", v, modelLayoutVersion)
	}
	snap := &ModelSnapshot{}
	snap.Kind = cur.str()
	snap.Tier = cur.str()
	snap.InputDim = int(cur.u32())
	snap.Quantized = cur.u8() != 0
	if cur.u8() != 0 {
		st := &anomaly.ScorerState{}
		st.Mean = readF64s(cur, cur.cnt())
		st.Cov = readF64s(cur, cur.cnt())
		st.Threshold = cur.f64()
		if cur.err == nil {
			snap.Scorer = st
		}
	}
	snap.Conf.Factor = cur.f64()
	snap.Conf.Fraction = cur.f64()

	count := cur.cnt()
	w := &nn.Snapshot{}
	for t := 0; t < count && cur.err == nil; t++ {
		name := cur.str()
		rows := int(cur.u32())
		cols := int(cur.u32())
		if rows < 0 || cols < 0 || (cols > 0 && rows > maxMessageBytes/cols) {
			cur.fail("tensor %q dimensions %dx%d out of range", name, rows, cols)
			break
		}
		n := rows * cols
		var vals []float64
		switch dt := cur.u8(); dt {
		case dtypeF64:
			vals = readF64s(cur, n)
		case dtypeFP16:
			if cur.need(2 * n) {
				vals = make([]float64, n)
				for i := range vals {
					code := uint16(cur.b[cur.i]) | uint16(cur.b[cur.i+1])<<8
					cur.i += 2
					vals[i] = mat.Float16From(code)
				}
			}
		case dtypeI8:
			if cur.need(rows * (8 + cols)) {
				vals = make([]float64, 0, n)
				for r := 0; r < rows; r++ {
					scale := cur.f64()
					for k := 0; k < cols; k++ {
						code := int8(cur.b[cur.i])
						cur.i++
						vals = append(vals, float64(code)*scale)
					}
				}
			}
		default:
			cur.fail("tensor %q has unknown dtype %d", name, dt)
		}
		if cur.err == nil {
			w.Names = append(w.Names, name)
			w.Shapes = append(w.Shapes, [2]int{rows, cols})
			w.Values = append(w.Values, vals)
		}
	}
	if err := cur.finish("model payload"); err != nil {
		return nil, err
	}
	snap.Weights = w
	return snap, nil
}

// MergeModel overlays a delta payload's snapshot onto the previously held
// version: the result keeps base's tensor set and order, takes the delta's
// values for every tensor it shipped, and takes the delta's header (scorer,
// threshold, confidence, metadata) wholesale — a retraining step that only
// recalibrated the detection threshold ships zero tensors and still lands.
// A delta naming a tensor base doesn't hold means the architecture changed;
// the caller must fall back to a full fetch. The result shares no value
// storage with either input, so it can be restored into a live detector
// while base keeps serving.
func MergeModel(base, delta *ModelSnapshot) (*ModelSnapshot, error) {
	if base == nil || base.Weights == nil {
		return nil, fmt.Errorf("transport: delta merge needs a base snapshot with weights")
	}
	if delta == nil || delta.Weights == nil {
		return nil, fmt.Errorf("transport: delta merge needs a delta snapshot")
	}
	bw, dw := base.Weights, delta.Weights
	// Match on canonical identities: a base snapshot fresh off a detector
	// still carries per-layer duplicate names, while payload-decoded deltas
	// arrive pre-qualified; canonicalizing both sides makes them the same
	// key space.
	bNames := canonicalTensorNames(bw.Names)
	dNames := canonicalTensorNames(dw.Names)
	for _, name := range dNames {
		found := false
		for _, n := range bNames {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("transport: delta ships tensor %q the base snapshot lacks; full fetch required", name)
		}
	}
	out := *delta // header (kind/tier/dim/quantized/scorer/conf) from the delta
	w := &nn.Snapshot{
		Names:  make([]string, len(bNames)),
		Shapes: make([][2]int, len(bNames)),
		Values: make([][]float64, len(bNames)),
	}
	for i, name := range bNames {
		shape, vals := bw.Shapes[i], bw.Values[i]
		for j, dn := range dNames {
			if dn == name {
				shape, vals = dw.Shapes[j], dw.Values[j]
				break
			}
		}
		w.Names[i] = name
		w.Shapes[i] = shape
		w.Values[i] = append([]float64(nil), vals...)
	}
	out.Weights = w
	return &out, nil
}

func readF64s(cur *cursor, n int) []float64 {
	if n < 0 || !cur.need(8*n) {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = cur.f64()
	}
	return out
}
