package autoencoder

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/nn"
)

// trainWeeks synthesises n smooth "normal" weeks of width dim.
func trainWeeks(n, dim int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for w := range out {
		week := make([]float64, dim)
		phase := rng.Float64() * 2 * math.Pi
		for i := range week {
			week[i] = math.Sin(2*math.Pi*float64(i)/float64(dim)+phase) + 0.05*rng.NormFloat64()
		}
		out[w] = week
	}
	return out
}

func toFrames(week []float64) [][]float64 {
	frames := make([][]float64, len(week))
	for i, v := range week {
		frames[i] = []float64{v}
	}
	return frames
}

func fittedModel(t testing.TB, bs int) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	m, err := New(TierEdge, 84, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	cfg.BatchSize = bs
	if _, err := m.Fit(trainWeeks(24, 84, rng), cfg, rng); err != nil {
		t.Fatal(err)
	}
	return m
}

// referenceDetect is the per-sample detection path, kept here as the oracle
// the batch kernels are pinned against: one Net.Forward over the window,
// one Scorer.Score per point error, then Scorer.Judge.
func referenceDetect(t testing.TB, m *Model, frames [][]float64) anomaly.Verdict {
	t.Helper()
	x := make([]float64, len(frames))
	for i, f := range frames {
		x[i] = f[0]
	}
	rec, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(x))
	for i := range x {
		if scores[i], err = m.Scorer.Score([]float64{rec[i] - x[i]}); err != nil {
			t.Fatal(err)
		}
	}
	return m.Scorer.Judge(scores, m.Conf)
}

// quantModes are the precision tiers every equivalence pin runs at.
var quantModes = []struct {
	name string
	mode nn.QuantMode
}{
	{"f64", nn.QuantNone},
	{"fp16", nn.QuantFP16},
	{"int8", nn.QuantInt8},
}

// fittedModelAt is fittedModel quantized to mode.
func fittedModelAt(t testing.TB, mode nn.QuantMode) *Model {
	t.Helper()
	m := fittedModel(t, 1)
	if mode != nn.QuantNone {
		m.QuantizeMode(mode)
	}
	return m
}

// TestDetectBatchMatchesDetect pins both inference entry points — the
// vectorised DetectBatch and the batch-of-1 Detect — to the per-sample
// reference: identical verdicts, bit for bit, at every precision tier.
func TestDetectBatchMatchesDetect(t *testing.T) {
	for _, q := range quantModes {
		t.Run(q.name, func(t *testing.T) {
			m := fittedModelAt(t, q.mode)
			rng := rand.New(rand.NewSource(7))
			weeks := trainWeeks(9, 84, rng)
			// Make some windows anomalous so both verdict polarities are covered.
			for i := 0; i < len(weeks); i += 3 {
				weeks[i][10] += 4
				weeks[i][11] += 4
			}
			windows := make([][][]float64, len(weeks))
			for i, w := range weeks {
				windows[i] = toFrames(w)
			}
			got, err := m.DetectBatch(windows)
			if err != nil {
				t.Fatal(err)
			}
			sawAnomaly, sawNormal := false, false
			for i, w := range windows {
				want := referenceDetect(t, m, w)
				if got[i] != want {
					t.Fatalf("window %d: batch verdict %+v vs per-sample reference %+v", i, got[i], want)
				}
				single, err := m.Detect(w)
				if err != nil {
					t.Fatal(err)
				}
				if single != want {
					t.Fatalf("window %d: Detect verdict %+v vs per-sample reference %+v", i, single, want)
				}
				if want.Anomaly {
					sawAnomaly = true
				} else {
					sawNormal = true
				}
			}
			if !sawAnomaly || !sawNormal {
				t.Fatalf("test windows did not cover both verdicts (anomaly=%v normal=%v)", sawAnomaly, sawNormal)
			}
		})
	}
}

// TestFitMinibatchTrains checks that minibatch SGD still learns: a batch-8
// model must reconstruct normal data well enough to flag a gross anomaly.
func TestFitMinibatchTrains(t *testing.T) {
	m := fittedModel(t, 8)
	rng := rand.New(rand.NewSource(11))
	normal := trainWeeks(1, 84, rng)[0]
	v, err := m.Detect(toFrames(normal))
	if err != nil {
		t.Fatal(err)
	}
	if v.Anomaly {
		t.Fatal("minibatch-trained model flags normal data")
	}
	spiked := append([]float64(nil), normal...)
	for i := 20; i < 30; i++ {
		spiked[i] += 6
	}
	v, err = m.Detect(toFrames(spiked))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Anomaly {
		t.Fatal("minibatch-trained model misses a gross anomaly")
	}
}

// TestDetectAllUsesBatchPath checks the anomaly.DetectAll seam dispatches to
// the autoencoder's DetectBatch and returns verdicts identical to the
// per-sample reference at every precision tier.
func TestDetectAllUsesBatchPath(t *testing.T) {
	for _, q := range quantModes {
		t.Run(q.name, func(t *testing.T) {
			m := fittedModelAt(t, q.mode)
			if _, ok := interface{}(m).(anomaly.BatchDetector); !ok {
				t.Fatal("autoencoder.Model must implement anomaly.BatchDetector")
			}
			rng := rand.New(rand.NewSource(13))
			weeks := trainWeeks(5, 84, rng)
			windows := make([][][]float64, len(weeks))
			for i, w := range weeks {
				windows[i] = toFrames(w)
			}
			got, err := anomaly.DetectAll(m, windows)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range windows {
				if want := referenceDetect(t, m, w); got[i] != want {
					t.Fatalf("window %d diverges through DetectAll: %+v vs per-sample reference %+v", i, got[i], want)
				}
			}
		})
	}
}

// TestDetectConcurrent shares one model across goroutines calling Detect at
// once, as the serving plane's handlers do: every goroutine leases its own
// pooled scratch, so all verdicts match the per-sample reference.
func TestDetectConcurrent(t *testing.T) {
	m := fittedModel(t, 1)
	weeks := trainWeeks(6, 84, rand.New(rand.NewSource(23)))
	windows := make([][][]float64, len(weeks))
	want := make([]anomaly.Verdict, len(weeks))
	for i, w := range weeks {
		windows[i] = toFrames(w)
		want[i] = referenceDetect(t, m, windows[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, w := range windows {
					got, err := m.Detect(w)
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("window %d: concurrent verdict %+v vs per-sample reference %+v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestDetectBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m, err := New(TierEdge, 84, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DetectBatch(make([][][]float64, 1)); err == nil {
		t.Fatal("DetectBatch on an unfitted model must error")
	}
	fitted := fittedModel(t, 1)
	if out, err := fitted.DetectBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", out, err)
	}
	if _, err := fitted.DetectBatch([][][]float64{make([][]float64, 3)}); err == nil {
		t.Fatal("wrong window length must error")
	}
	bad := toFrames(trainWeeks(1, 84, rng)[0])
	bad[5] = []float64{1, 2}
	if _, err := fitted.DetectBatch([][][]float64{bad}); err == nil {
		t.Fatal("multivariate frame must error")
	}
}

// benchWeeks and the Fit benchmarks below measure the training-throughput
// claim of the batched engine: one epoch of minibatch-32 training vs one
// epoch of per-sample training on identical data and model shape.
func benchFit(b *testing.B, bs int) {
	rng := rand.New(rand.NewSource(1))
	weeks := trainWeeks(128, 672, rng)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = bs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := New(TierCloud, 672, rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Fit(weeks, cfg, rand.New(rand.NewSource(3))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitPerSample is the legacy trajectory: one optimiser step per
// sample, batch-of-1 matrices.
func BenchmarkFitPerSample(b *testing.B) { benchFit(b, 1) }

// BenchmarkFitBatch32 is minibatch SGD at the paper-scale batch: one
// batch-averaged step per 32 samples through the blocked kernels.
func BenchmarkFitBatch32(b *testing.B) { benchFit(b, 32) }
