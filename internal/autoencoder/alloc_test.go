package autoencoder

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// TestDetectAllocs pins the steady-state allocation count of the per-window
// Detect on a paper-width (672-reading) model at every precision tier. Once
// one warm-up call has filled the pooled scratch and packed the weight
// panels, a window costs a few fixed allocations (today two: the verdict
// slice and the score slice), not one slice per reading.
func TestDetectAllocs(t *testing.T) {
	const maxAllocs = 3
	for _, q := range quantModes {
		t.Run(q.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			m, err := New(TierIoT, dataset.ReadingsPerWeek, rng)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 2
			if _, err := m.Fit(trainWeeks(8, dataset.ReadingsPerWeek, rng), cfg, rng); err != nil {
				t.Fatal(err)
			}
			if q.mode != nn.QuantNone {
				m.QuantizeMode(q.mode)
			}
			frames := toFrames(trainWeeks(1, dataset.ReadingsPerWeek, rng)[0])
			if _, err := m.Detect(frames); err != nil {
				t.Fatalf("warm-up Detect: %v", err)
			}

			allocs := testing.AllocsPerRun(50, func() {
				if _, err := m.Detect(frames); err != nil {
					t.Fatalf("Detect: %v", err)
				}
			})
			if allocs > maxAllocs {
				t.Fatalf("Detect allocates %.1f objects/window in steady state, want ≤ %d", allocs, maxAllocs)
			}
		})
	}
}
