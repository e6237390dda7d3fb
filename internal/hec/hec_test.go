package hec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/features"
	"repro/internal/policy"
)

// fakeDetector is a deterministic stand-in whose verdicts are controlled by
// a threshold on the first value of the first frame: it flags a window
// anomalous when |frames[0][0]| exceeds Sensitivity⁻¹. Larger Skill means
// the detector sees subtler anomalies.
type fakeDetector struct {
	name   string
	skill  float64 // flags |v| > 1/skill
	conf   float64 // confident when |v| > 2/skill
	params int
	flops  int64
}

func (f *fakeDetector) Name() string { return f.name }

func (f *fakeDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if len(frames) == 0 || len(frames[0]) == 0 {
		return anomaly.Verdict{}, fmt.Errorf("empty window")
	}
	v := math.Abs(frames[0][0])
	verdict := anomaly.Verdict{MinLogPD: -v}
	if v > 1/f.skill {
		verdict.Anomaly = true
		verdict.AnomalousFraction = 1
	}
	if v > 2/f.skill || v < 0.01 {
		// Extreme anomalies and clearly-normal windows are both confident.
		verdict.Confident = true
	}
	return verdict, nil
}

func (f *fakeDetector) NumParams() int             { return f.params }
func (f *fakeDetector) FlopsPerWindow(T int) int64 { return f.flops * int64(T) }

// testDeployment builds a deployment whose three fake detectors increase in
// skill and flops from IoT to cloud.
func testDeployment(t *testing.T) *Deployment {
	t.Helper()
	dep, err := NewDeployment(DefaultTopology(), [NumLayers]anomaly.Detector{
		&fakeDetector{name: "fake-iot", skill: 1, params: 100, flops: 10},
		&fakeDetector{name: "fake-edge", skill: 2, params: 1000, flops: 100},
		&fakeDetector{name: "fake-cloud", skill: 10, params: 10000, flops: 1000},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// constExtractor exposes frames[0][0] as a 1-dim context.
type constExtractor struct{}

func (constExtractor) Context(frames [][]float64) ([]float64, error) {
	return []float64{frames[0][0]}, nil
}
func (constExtractor) Dim() int { return 1 }

func sampleWith(v float64, label bool) Sample {
	return Sample{Frames: [][]float64{{v}, {0}}, Label: label}
}

func TestLayerString(t *testing.T) {
	if LayerIoT.String() != "IoT" || LayerEdge.String() != "Edge" || LayerCloud.String() != "Cloud" {
		t.Fatal("layer names wrong")
	}
	if Layer(9).String() != "Layer(9)" {
		t.Fatal("out-of-range layer name wrong")
	}
}

func TestTopologyRTT(t *testing.T) {
	top := DefaultTopology()
	r0, err := top.RTTMs(LayerIoT, 0)
	if err != nil || r0 != 0 {
		t.Fatalf("RTT(IoT) = %g, %v", r0, err)
	}
	r1, _ := top.RTTMs(LayerEdge, 0)
	r2, _ := top.RTTMs(LayerCloud, 0)
	if r1 != 250 || r2 != 500 {
		t.Fatalf("RTTs = %g/%g, want 250/500 (Table II deltas)", r1, r2)
	}
	if _, err := top.RTTMs(Layer(5), 0); err == nil {
		t.Fatal("out-of-range layer must error")
	}
}

func TestTopologyBandwidthTerm(t *testing.T) {
	top := DefaultTopology()
	top.Links[0].KBPerMs = 10 // 10 KB/ms
	r, err := top.RTTMs(LayerEdge, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r != 250+5 {
		t.Fatalf("RTT with payload = %g, want 255", r)
	}
}

func TestTopologyExecTime(t *testing.T) {
	top := DefaultTopology()
	d := &fakeDetector{flops: 1000}
	// Dense path.
	e, err := top.ExecTimeMs(LayerIoT, d, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	want := 10000 / top.Devices[LayerIoT].DenseFlopsPerMs
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("exec = %g, want %g", e, want)
	}
	// Recurrent throughput trails dense throughput on the accelerated
	// tiers (the sequential dependency starves the GPU); the Pi's dense
	// throughput is itself low, so the relation is only asserted upward.
	for l := LayerEdge; l < NumLayers; l++ {
		de, _ := top.ExecTimeMs(l, d, 10, false)
		re, _ := top.ExecTimeMs(l, d, 10, true)
		if re <= de {
			t.Fatalf("layer %v: recurrent exec %g not slower than dense %g", l, re, de)
		}
	}
	// Faster devices upward.
	for l := Layer(0); l < NumLayers-1; l++ {
		lo, _ := top.ExecTimeMs(l, d, 10, true)
		hi, _ := top.ExecTimeMs(l+1, d, 10, true)
		if hi >= lo {
			t.Fatalf("exec not decreasing up the hierarchy: %v %g vs %v %g", l, lo, l+1, hi)
		}
	}
	if _, err := top.ExecTimeMs(Layer(7), d, 10, false); err == nil {
		t.Fatal("out-of-range layer must error")
	}
}

func TestNewDeploymentValidation(t *testing.T) {
	if _, err := NewDeployment(DefaultTopology(), [NumLayers]anomaly.Detector{}, false); err == nil {
		t.Fatal("nil detectors must be rejected")
	}
}

// TestDeploymentDelays pins the deployment's delay accessors: a cloud
// window pays the two-hop RTT plus a positive execution time, and an
// out-of-range layer is an error rather than a zero delay.
func TestDeploymentDelays(t *testing.T) {
	dep := testDeployment(t)
	rtt, err := dep.RTTMs(LayerCloud)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 500 {
		t.Fatalf("cloud RTT = %g, want 500", rtt)
	}
	exec, err := dep.ExecMs(LayerCloud, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exec <= 0 {
		t.Fatalf("cloud exec %g should be positive", exec)
	}
	if _, err := dep.RTTMs(Layer(9)); err == nil {
		t.Fatal("bad layer must error")
	}
}

func TestPrecomputeShapes(t *testing.T) {
	dep := testDeployment(t)
	samples := []Sample{sampleWith(0, false), sampleWith(3, true)}
	pc, err := Precompute(context.Background(), dep, constExtractor{}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Outcomes) != 2 || len(pc.Contexts) != 2 {
		t.Fatalf("precompute sizes %d/%d", len(pc.Outcomes), len(pc.Contexts))
	}
	if pc.RTTs != [NumLayers]float64{0, 250, 500} {
		t.Fatalf("RTTs = %v", pc.RTTs)
	}
	// E2E = RTT + exec for every layer.
	for l := Layer(0); l < NumLayers; l++ {
		o := pc.Outcomes[0][l]
		if math.Abs(o.E2EMs-(pc.RTTs[l]+o.ExecMs)) > 1e-9 {
			t.Fatalf("layer %v E2E inconsistent", l)
		}
	}
	// Without an extractor, contexts stay nil.
	pc2, err := Precompute(context.Background(), dep, nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	if pc2.Contexts != nil {
		t.Fatal("contexts should be nil without an extractor")
	}
}

func TestFixedSchemes(t *testing.T) {
	dep := testDeployment(t)
	samples := []Sample{sampleWith(0, false), sampleWith(0.7, true), sampleWith(3, true)}
	pc, err := Precompute(context.Background(), dep, nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	// IoT (skill 1) misses 0.7; cloud (skill 10) catches it.
	iot, err := Fixed{Layer: LayerIoT}.Decide(pc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if iot.Verdict.Anomaly {
		t.Fatal("weak IoT detector should miss the subtle anomaly")
	}
	cloud, err := Fixed{Layer: LayerCloud}.Decide(pc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cloud.Verdict.Anomaly {
		t.Fatal("cloud detector should catch the subtle anomaly")
	}
	if cloud.DelayMs <= iot.DelayMs {
		t.Fatal("cloud delay must exceed IoT delay")
	}
	if (Fixed{Layer: LayerIoT}).Name() != "IoT Device" || (Fixed{Layer: LayerEdge}).Name() != "Edge" {
		t.Fatal("scheme names must match Table II labels")
	}
}

func TestSuccessiveStopsWhenConfident(t *testing.T) {
	dep := testDeployment(t)
	// 3.0 is extreme for the IoT fake (>2/skill=2): confident at layer 0.
	// 0.7 is invisible to IoT and edge isn't confident (0.7 < 2/2): escalates.
	samples := []Sample{sampleWith(3, true), sampleWith(0.7, true)}
	pc, err := Precompute(context.Background(), dep, nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := Successive{}.Decide(pc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Final != LayerIoT {
		t.Fatalf("extreme sample resolved at %v, want IoT", d0.Final)
	}
	if d0.DelayMs != pc.Outcomes[0][LayerIoT].ExecMs {
		t.Fatalf("IoT-resolved successive delay %g should be exec only", d0.DelayMs)
	}
	d1, err := Successive{}.Decide(pc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Final == LayerIoT {
		t.Fatal("subtle sample should escalate past IoT")
	}
	// Delay accumulates exec of all tried layers + RTT of the final.
	var wantExec float64
	for l := Layer(0); l <= d1.Final; l++ {
		wantExec += pc.Outcomes[1][l].ExecMs
	}
	if math.Abs(d1.DelayMs-(wantExec+pc.RTTs[d1.Final])) > 1e-9 {
		t.Fatalf("successive delay %g inconsistent with accumulation %g", d1.DelayMs, wantExec+pc.RTTs[d1.Final])
	}
}

func TestAdaptiveRequiresPolicyAndContexts(t *testing.T) {
	dep := testDeployment(t)
	pc, err := Precompute(context.Background(), dep, nil, []Sample{sampleWith(0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Adaptive{}).Decide(pc, 0); err == nil {
		t.Fatal("adaptive without a policy must error")
	}
	rng := rand.New(rand.NewSource(1))
	net, err := policy.NewNetwork(1, 8, NumLayers, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Adaptive{Policy: net}).Decide(pc, 0); err == nil {
		t.Fatal("adaptive without contexts must error")
	}
}

func TestEvaluateAggregates(t *testing.T) {
	dep := testDeployment(t)
	samples := []Sample{
		sampleWith(0, false), sampleWith(0.5, false), sampleWith(3, true), sampleWith(0.7, true),
	}
	pc, err := Precompute(context.Background(), dep, nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(context.Background(), Fixed{Layer: LayerCloud}, pc, 5e-4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.Total() != 4 {
		t.Fatalf("total = %d", res.Confusion.Total())
	}
	// Cloud fake flags |v| > 0.1: sample 0.5 becomes a false positive.
	if res.Confusion.FP != 1 || res.Confusion.TP != 2 || res.Confusion.TN != 1 {
		t.Fatalf("confusion = %+v", res.Confusion)
	}
	if res.Delays.Count() != 4 || len(res.AccSeries) != 4 {
		t.Fatal("per-sample series incomplete")
	}
	// Reward sum: each sample contributes acc − C(delay) with acc ∈ {0,1}.
	perfect := 3.0 // 3 correct of 4
	if res.Reward.Sum() >= perfect {
		t.Fatalf("reward sum %g must be below %g (delay cost)", res.Reward.Sum(), perfect)
	}
	shares := res.LayerShares()
	if shares[LayerCloud] != 1 {
		t.Fatalf("layer shares = %v, want all cloud", shares)
	}
	if _, err := Evaluate(context.Background(), Fixed{Layer: LayerIoT}, &Precomputed{}, 5e-4); err == nil {
		t.Fatal("empty sample set must error")
	}
}

// TestTrainPolicyLearnsHardnessRouting is the integration test of the
// adaptive scheme: with fake detectors whose skill increases up the
// hierarchy and samples whose context reveals their subtlety, the trained
// policy should send obvious anomalies (and normals) to cheap layers and
// subtle anomalies to the cloud, beating every fixed scheme on summed
// reward.
func TestTrainPolicyLearnsHardnessRouting(t *testing.T) {
	dep := testDeployment(t)
	rng := rand.New(rand.NewSource(11))
	var samples []Sample
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0: // normal
			samples = append(samples, sampleWith(rng.Float64()*0.05, false))
		case 1: // obvious anomaly — any layer catches it
			samples = append(samples, sampleWith(2.5+rng.Float64(), true))
		default: // subtle anomaly — only the cloud catches it
			samples = append(samples, sampleWith(0.3+rng.Float64()*0.2, true))
		}
	}
	pc, err := Precompute(context.Background(), dep, constExtractor{}, samples)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPolicyConfig(5e-4)
	cfg.Epochs = 20
	pol, err := TrainPolicy(pc, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}

	adaptive, err := Evaluate(context.Background(), Adaptive{Policy: pol}, pc, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	fixedSchemes := []Scheme{Fixed{LayerIoT}, Fixed{LayerEdge}, Fixed{LayerCloud}}
	for _, s := range fixedSchemes {
		fixed, err := Evaluate(context.Background(), s, pc, cfg.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.Reward.Sum() <= fixed.Reward.Sum() {
			t.Fatalf("adaptive reward %g not above %s reward %g",
				adaptive.Reward.Sum(), s.Name(), fixed.Reward.Sum())
		}
	}
	// The policy should use more than one layer.
	shares := adaptive.LayerShares()
	used := 0
	for _, sh := range shares {
		if sh > 0.05 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("policy collapsed to one layer: shares %v", shares)
	}
	// And its delay should be far below always-cloud.
	cloud, _ := Evaluate(context.Background(), Fixed{LayerCloud}, pc, cfg.Alpha)
	if adaptive.Delays.Mean() >= cloud.Delays.Mean() {
		t.Fatalf("adaptive mean delay %g not below cloud %g",
			adaptive.Delays.Mean(), cloud.Delays.Mean())
	}
}

func TestTrainPolicyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := TrainPolicy(&Precomputed{}, DefaultPolicyConfig(5e-4), rng); err == nil {
		t.Fatal("missing contexts must be rejected")
	}
	dep := testDeployment(t)
	pc, err := Precompute(context.Background(), dep, constExtractor{}, []Sample{sampleWith(0, false)})
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultPolicyConfig(5e-4)
	bad.Epochs = 0
	if _, err := TrainPolicy(pc, bad, rng); err == nil {
		t.Fatal("zero epochs must be rejected")
	}
}

func TestAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, _ := policy.NewNetwork(1, 4, NumLayers, rng)
	schemes := AllSchemes(net)
	if len(schemes) != 5 {
		t.Fatalf("%d schemes, want 5", len(schemes))
	}
	names := []string{"IoT Device", "Edge", "Cloud", "Successive", "Our Method"}
	for i, s := range schemes {
		if s.Name() != names[i] {
			t.Fatalf("scheme %d = %q, want %q", i, s.Name(), names[i])
		}
	}
}

// Assert the features.Extractor interface is satisfied by the test helper
// (compile-time check mirroring the production extractors).
var _ features.Extractor = constExtractor{}
