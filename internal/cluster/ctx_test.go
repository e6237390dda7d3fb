package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/hec"
	"repro/internal/transport"
)

// slowRemote blocks each detection until its delay elapses or ctx is done,
// like the real transport under an injected link delay.
type slowRemote struct {
	delay time.Duration
}

func (r *slowRemote) DetectContext(ctx context.Context, frames [][]float64) (transport.DetectResult, error) {
	if err := r.wait(ctx); err != nil {
		return transport.DetectResult{}, err
	}
	return transport.DetectResult{Verdict: confident(false), ExecMs: 1, NetMs: 1, E2EMs: 2}, nil
}

func (r *slowRemote) DetectBatchContext(ctx context.Context, windows [][][]float64) (transport.BatchResult, error) {
	if err := r.wait(ctx); err != nil {
		return transport.BatchResult{}, err
	}
	res := transport.BatchResult{NetMs: 1}
	for range windows {
		res.Verdicts = append(res.Verdicts, confident(false))
		res.ExecMsEach = append(res.ExecMsEach, 1)
	}
	return res, nil
}

func (r *slowRemote) wait(ctx context.Context) error {
	t := time.NewTimer(r.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestRunCancelledDrainsFleet cancels a live load-generation run midway:
// Run must return ctx's error promptly even though every device is stuck
// in a slow remote wait.
func TestRunCancelledDrainsFleet(t *testing.T) {
	dev := testDevice(confident(true), nil, nil)
	dev.Remotes[hec.LayerEdge] = &slowRemote{delay: 5 * time.Second}
	samples := make([]hec.Sample, 50)
	for i := range samples {
		samples[i] = hec.Sample{Frames: window, Label: i%2 == 0}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, dev, samples, Config{Scheme: SchemeEdge, Devices: 4, Rounds: 4})
	elapsed := time.Since(start)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled run drained after %v", elapsed)
	}
}

// TestDeviceRunPreCancelled refuses local work on a done context.
func TestDeviceRunPreCancelled(t *testing.T) {
	dev := testDevice(confident(true), nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dev.Run(ctx, SchemeIoT, window); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if _, err := dev.RunBatch(ctx, SchemeIoT, [][][]float64{window}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch err = %v, want context.Canceled", err)
	}
}
