package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/hec"
	"repro/internal/transport"
)

func windowsN(n int) [][][]float64 {
	out := make([][][]float64, n)
	for i := range out {
		out[i] = window
	}
	return out
}

// TestRunBatchFixedSharesNetworkTime pins the batch delay rule: one request,
// its network time split evenly across the windows.
func TestRunBatchFixedSharesNetworkTime(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 12}
	dev := testDevice(confident(false), nil, nil)
	dev.Remotes[hec.LayerEdge] = edge
	outs, err := dev.RunBatch(context.Background(), SchemeEdge, windowsN(4))
	if err != nil {
		t.Fatal(err)
	}
	if edge.batchCalls.Load() != 1 {
		t.Fatalf("%d batch requests, want 1", edge.batchCalls.Load())
	}
	for i, out := range outs {
		if out.Layer != hec.LayerEdge || !out.Verdict.Anomaly {
			t.Fatalf("window %d routed wrong: %+v", i, out)
		}
		if out.ExecMs != 5 || math.Abs(out.NetMs-3) > 1e-12 || math.Abs(out.DelayMs-8) > 1e-12 {
			t.Fatalf("window %d delay accounting: %+v (want exec 5, net 3, delay 8)", i, out)
		}
	}
	if outs, err := dev.RunBatch(context.Background(), SchemeEdge, nil); err != nil || outs != nil {
		t.Fatalf("empty batch: (%v, %v)", outs, err)
	}
}

// TestRunBatchSuccessiveEscalatesOnlyUnconfident checks staged escalation:
// the whole batch is judged locally, only the unconfident windows ride to
// the edge, and a confident edge verdict stops the escalation.
func TestRunBatchSuccessiveEscalatesOnlyUnconfident(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 6}
	cloud := &stubRemote{verdict: confident(true), execMs: 1, netMs: 40}
	dev := testDevice(unconfident(), nil, nil)
	dev.Remotes[hec.LayerEdge] = edge
	dev.Remotes[hec.LayerCloud] = cloud
	outs, err := dev.RunBatch(context.Background(), SchemeSuccessive, windowsN(3))
	if err != nil {
		t.Fatal(err)
	}
	if edge.batchCalls.Load() != 1 || cloud.batchCalls.Load() != 0 {
		t.Fatalf("edge %d / cloud %d batch calls, want 1 / 0", edge.batchCalls.Load(), cloud.batchCalls.Load())
	}
	for i, out := range outs {
		if out.Layer != hec.LayerEdge {
			t.Fatalf("window %d stopped at %v, want edge", i, out.Layer)
		}
		// Local exec (3) + edge exec (5), edge net 6 shared across 3 windows.
		if math.Abs(out.ExecMs-8) > 1e-12 || math.Abs(out.NetMs-2) > 1e-12 {
			t.Fatalf("window %d accounting: %+v", i, out)
		}
	}

	// A confident local verdict must never leave the device.
	devLocal := testDevice(confident(false), nil, nil)
	devLocal.Remotes[hec.LayerEdge] = edge
	outs, err = devLocal.RunBatch(context.Background(), SchemeSuccessive, windowsN(2))
	if err != nil {
		t.Fatal(err)
	}
	if edge.batchCalls.Load() != 1 {
		t.Fatal("confident local batch still escalated")
	}
	for _, out := range outs {
		if out.Layer != hec.LayerIoT || out.NetMs != 0 {
			t.Fatalf("local outcome %+v", out)
		}
	}
}

// TestRunBatchAdaptiveGroupsByPolicyLayer checks policy grouping: with a
// policy preferring the edge, all windows go as one edge batch, each paying
// the policy overhead.
func TestRunBatchAdaptiveGroupsByPolicyLayer(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 8}
	cloud := &stubRemote{verdict: confident(true), execMs: 1, netMs: 40}
	dev := testDevice(confident(false), nil, nil)
	dev.Remotes[hec.LayerEdge] = edge
	dev.Remotes[hec.LayerCloud] = cloud
	outs, err := dev.RunBatch(context.Background(), SchemeAdaptive, windowsN(4))
	if err != nil {
		t.Fatal(err)
	}
	if edge.batchCalls.Load() != 1 || cloud.batchCalls.Load() != 0 {
		t.Fatalf("edge %d / cloud %d calls", edge.batchCalls.Load(), cloud.batchCalls.Load())
	}
	for i, out := range outs {
		if out.Layer != hec.LayerEdge {
			t.Fatalf("window %d at %v", i, out.Layer)
		}
		// exec 5 + net 8/4 + policy overhead 0.5.
		if math.Abs(out.DelayMs-7.5) > 1e-12 {
			t.Fatalf("window %d delay %g, want 7.5", i, out.DelayMs)
		}
	}

	// Pathological routes to the least preferred layer (IoT at prob 0.1).
	outs, err = dev.RunBatch(context.Background(), SchemePathological, windowsN(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Layer != hec.LayerIoT {
			t.Fatalf("pathological window %d at %v, want IoT", i, out.Layer)
		}
	}
}

// TestLoadGeneratorBatchMode runs the load generator in batch mode against
// stub remotes and cross-checks the aggregate verdict counts against
// per-window mode (delay stats differ by design: batches share net time).
func TestLoadGeneratorBatchMode(t *testing.T) {
	mkDev := func() *Device {
		edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 8}
		dev := testDevice(confident(false), nil, nil)
		dev.Remotes[hec.LayerEdge] = edge
		return dev
	}
	samples := make([]hec.Sample, 30)
	for i := range samples {
		samples[i] = hec.Sample{Frames: window, Label: i%2 == 0}
	}
	batched, err := Run(context.Background(), mkDev(), samples, Config{Scheme: SchemeEdge, Devices: 3, Alpha: 5e-4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	perWindow, err := Run(context.Background(), mkDev(), samples, Config{Scheme: SchemeEdge, Devices: 3, Alpha: 5e-4})
	if err != nil {
		t.Fatal(err)
	}
	if batched.Windows != perWindow.Windows || batched.Windows != 90 {
		t.Fatalf("windows: batched %d vs per-window %d, want 90", batched.Windows, perWindow.Windows)
	}
	if batched.Confusion != perWindow.Confusion {
		t.Fatalf("confusion diverges: %+v vs %+v", batched.Confusion, perWindow.Confusion)
	}
	if batched.LayerCounts != perWindow.LayerCounts {
		t.Fatalf("layer mix diverges: %v vs %v", batched.LayerCounts, perWindow.LayerCounts)
	}
	// Batching must not inflate delay: shared net time can only shrink it.
	if batched.Delays.Mean() > perWindow.Delays.Mean()+1e-9 {
		t.Fatalf("batched mean delay %g exceeds per-window %g", batched.Delays.Mean(), perWindow.Delays.Mean())
	}
}

// TestDeviceBatchOverLiveTransport runs RunBatch against a real detection
// server over loopback TCP, checking the live wire path end to end and the
// verdict equivalence with per-window dispatch.
func TestDeviceBatchOverLiveTransport(t *testing.T) {
	det := stubDetector{verdict: anomaly.Verdict{Anomaly: true, Confident: true, MinLogPD: -9}}
	srv, err := transport.Serve("127.0.0.1:0", det, func(frames int) float64 { return float64(frames) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := transport.Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	dev := testDevice(unconfident(), nil, nil)
	dev.Remotes[hec.LayerEdge] = cli
	outs, err := dev.RunBatch(context.Background(), SchemeEdge, windowsN(5))
	if err != nil {
		t.Fatal(err)
	}
	single, err := dev.Run(context.Background(), SchemeEdge, window)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Verdict != single.Verdict {
			t.Fatalf("window %d verdict %+v vs per-window %+v", i, out.Verdict, single.Verdict)
		}
		if out.ExecMs != float64(len(window)) {
			t.Fatalf("window %d exec %g, want %d", i, out.ExecMs, len(window))
		}
	}
}

// TestRunBatchShortReplyIsRemoteError: a batch reply with fewer verdicts or
// execution times than windows must fail the dispatch as a remote error,
// not yield zero-valued outcomes or index past the reply.
func TestRunBatchShortReplyIsRemoteError(t *testing.T) {
	for _, s := range []Scheme{SchemeEdge, SchemeSuccessive, SchemeAdaptive} {
		edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 6, short: 1}
		dev := testDevice(unconfident(), edge, nil)
		outs, err := dev.RunBatch(context.Background(), s, windowsN(3))
		if !errors.Is(err, transport.ErrRemote) {
			t.Fatalf("%v: short reply gave (%v, %v), want an error wrapping transport.ErrRemote", s, outs, err)
		}
	}
}

// marked is a window whose first reading m scripts the ladder verdicts and
// the marker policy below.
func marked(m float64) [][]float64 { return [][]float64{{m}, {2}} }

// ladder scripts layer l's verdict on a marked window: confident iff m <= l,
// with a MinLogPD unique to (layer, window) so a test can tell which layer
// answered.
func ladder(l hec.Layer) func(frames [][]float64) anomaly.Verdict {
	return func(frames [][]float64) anomaly.Verdict {
		m := frames[0][0]
		return anomaly.Verdict{Anomaly: m >= 1, Confident: m <= float64(l), MinLogPD: -10*float64(l) - m}
	}
}

// markerExtractor passes a marked window's marker on as its context.
type markerExtractor struct{}

func (markerExtractor) Context(frames [][]float64) ([]float64, error) {
	return []float64{frames[0][0]}, nil
}
func (markerExtractor) Dim() int { return 1 }

// markerPolicy prefers layer m and least prefers layer (m+1) mod 3.
type markerPolicy struct{}

func (markerPolicy) Probs(z []float64) ([]float64, error) {
	m := int(z[0])
	probs := make([]float64, hec.NumLayers)
	probs[m], probs[(m+1)%hec.NumLayers], probs[(m+2)%hec.NumLayers] = 0.7, 0.1, 0.2
	return probs, nil
}

// markedDevice answers by ladder at every layer and routes by marker.
func markedDevice() (*Device, *stubRemote, *stubRemote) {
	edge := &stubRemote{verdictOf: ladder(hec.LayerEdge), execMs: 5, netMs: 6}
	cloud := &stubRemote{verdictOf: ladder(hec.LayerCloud), execMs: 1, netMs: 40}
	dev := testDevice(anomaly.Verdict{}, edge, cloud)
	dev.Local = stubDetector{verdictOf: ladder(hec.LayerIoT)}
	dev.Policy, dev.Extractor = markerPolicy{}, markerExtractor{}
	return dev, edge, cloud
}

// sameBits reports whether two outcomes are bit-identical.
func sameBits(a, b Outcome) bool {
	return a.Verdict.Anomaly == b.Verdict.Anomaly && a.Verdict.Confident == b.Verdict.Confident &&
		math.Float64bits(a.Verdict.MinLogPD) == math.Float64bits(b.Verdict.MinLogPD) && a.Layer == b.Layer &&
		math.Float64bits(a.DelayMs) == math.Float64bits(b.DelayMs) &&
		math.Float64bits(a.ExecMs) == math.Float64bits(b.ExecMs) &&
		math.Float64bits(a.NetMs) == math.Float64bits(b.NetMs)
}

// TestDispatchShape pins how every scheme reaches the tiers. Run sends
// per-window requests only; RunBatch of one window is Run bit for bit; a
// batch with mixed confidence or mixed policy layers makes exactly one
// batch request per tier stage, with Run's verdicts, layers and execution
// times; and a tier group of one window inside a batch rides a per-window
// request.
func TestDispatchShape(t *testing.T) {
	ctx := context.Background()
	markers := []float64{0, 1, 2, 1, 2, 0, 2}
	batch := make([][][]float64, len(markers))
	for i, m := range markers {
		batch[i] = marked(m)
	}
	// Windows each tier stage carries for the markers above.
	stages := map[Scheme][2]int64{
		SchemeIoT:          {0, 0},
		SchemeEdge:         {7, 0},
		SchemeCloud:        {0, 7},
		SchemeSuccessive:   {5, 3}, // m=0 stays local, m=1 stops at the edge
		SchemeAdaptive:     {2, 3}, // to layer m
		SchemePathological: {2, 2}, // to layer (m+1) mod 3
	}
	for _, s := range AllSchemes() {
		dev, edge, cloud := markedDevice()
		want := make([]Outcome, len(batch))
		for i, w := range batch {
			out, err := dev.Run(ctx, s, w)
			if err != nil {
				t.Fatalf("%v: Run: %v", s, err)
			}
			one, err := dev.RunBatch(ctx, s, [][][]float64{w})
			if err != nil {
				t.Fatalf("%v: RunBatch(1): %v", s, err)
			}
			if !sameBits(one[0], out) {
				t.Fatalf("%v window %d: RunBatch(1) %+v, Run %+v", s, i, one[0], out)
			}
			want[i] = out
		}
		if n := edge.batchCalls.Load() + cloud.batchCalls.Load(); n != 0 {
			t.Fatalf("%v: per-window dispatch made %d batch requests", s, n)
		}

		dev, edge, cloud = markedDevice()
		outs, err := dev.RunBatch(ctx, s, batch)
		if err != nil {
			t.Fatalf("%v: RunBatch: %v", s, err)
		}
		for k, r := range []*stubRemote{edge, cloud} {
			wantCalls := int64(0)
			if stages[s][k] > 0 {
				wantCalls = 1
			}
			if r.calls.Load() != 0 || r.batchCalls.Load() != wantCalls || r.batchWindows.Load() != stages[s][k] {
				t.Fatalf("%v tier %d: %d per-window + %d batch requests carrying %d windows, want 0 + %d carrying %d",
					s, k+1, r.calls.Load(), r.batchCalls.Load(), r.batchWindows.Load(), wantCalls, stages[s][k])
			}
		}
		for i, out := range outs {
			if out.Verdict != want[i].Verdict || out.Layer != want[i].Layer || out.ExecMs != want[i].ExecMs {
				t.Fatalf("%v window %d: batch %+v, per-window %+v", s, i, out, want[i])
			}
		}
	}

	// One unconfident window among confident ones escalates alone, as a
	// per-window request.
	dev, edge, _ := markedDevice()
	if _, err := dev.RunBatch(ctx, SchemeSuccessive, [][][]float64{marked(0), marked(1), marked(0)}); err != nil {
		t.Fatal(err)
	}
	if edge.calls.Load() != 1 || edge.batchCalls.Load() != 0 {
		t.Fatalf("lone escalation: %d per-window + %d batch requests, want 1 + 0", edge.calls.Load(), edge.batchCalls.Load())
	}
}

// TestRunAllocs holds per-window dispatch to its allocation budget on stub
// tiers: none for the fixed and successive schemes, and only the stub
// extractor's context vector for the policy-driven ones.
func TestRunAllocs(t *testing.T) {
	edge := &stubRemote{verdict: unconfident(), execMs: 5, netMs: 7}
	cloud := &stubRemote{verdict: confident(true), execMs: 2, netMs: 11}
	dev := testDevice(unconfident(), edge, cloud)
	ctx := context.Background()
	budget := map[Scheme]float64{SchemeAdaptive: 1, SchemePathological: 1}
	for _, s := range AllSchemes() {
		got := testing.AllocsPerRun(100, func() {
			if _, err := dev.Run(ctx, s, window); err != nil {
				t.Fatal(err)
			}
		})
		if got != budget[s] {
			t.Errorf("%v: Run makes %v allocations, want %v", s, got, budget[s])
		}
	}
}
