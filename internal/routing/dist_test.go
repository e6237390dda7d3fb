package routing

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/nn"
	"repro/internal/transport"
)

// fleetSnapshot builds a snapshot big enough to span many 256 KiB chunks,
// with values only the f64 dtype reproduces — so a transfer takes several
// round trips and a mid-stream replica death lands between chunks.
func fleetSnapshot(values int) *transport.ModelSnapshot {
	vals := make([]float64, values)
	for i := range vals {
		vals[i] = 0.001*float64(i) + 1.0/3.0
	}
	return &transport.ModelSnapshot{
		Kind: "autoencoder", Tier: "Edge", InputDim: 8,
		Weights: &nn.Snapshot{
			Names:  []string{"big"},
			Shapes: [][2]int{{1, values}},
			Values: [][]float64{vals},
		},
		Scorer: &anomaly.ScorerState{Mean: []float64{0}, Cov: []float64{1}, Threshold: -4},
		Conf:   anomaly.DefaultConfidence(),
	}
}

func startModelReplica(t *testing.T, snap *transport.ModelSnapshot) *transport.Server {
	t.Helper()
	srv, err := transport.ServeWith("127.0.0.1:0", stubDetector{}, transport.ServerOptions{Model: snap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestModelFetchFailsOverMidTransfer kills one of two replicas while a
// multi-chunk model transfer is streaming: because every replica serves the
// same content-addressed payload and the server keeps no per-transfer
// state, the set resumes the transfer byte-exact on the survivor and the
// assembled snapshot still hashes to the advertised version. Run under
// -race with a goroutine-leak bracket, this is the distribution path's
// failover smoke test.
func TestModelFetchFailsOverMidTransfer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	snap := fleetSnapshot(200_000) // ~1.6 MB canonical payload → 7 chunks
	srvA := startModelReplica(t, snap)
	srvB := startModelReplica(t, snap)
	if srvA.ModelVersion() == "" || srvA.ModelVersion() != srvB.ModelVersion() {
		t.Fatalf("replicas disagree on version: %q vs %q", srvA.ModelVersion(), srvB.ModelVersion())
	}
	set, err := New(Config{
		Addrs:    []string{srvA.Addr(), srvB.Addr()},
		PoolSize: 2,
		Policy:   RoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every chunk request sleeps, so the transfer is still in flight when
	// the victim dies ~2 chunks in.
	srvA.SetFaultDelay(25 * time.Millisecond)
	srvB.SetFaultDelay(25 * time.Millisecond)

	type result struct {
		snap *transport.ModelSnapshot
		err  error
	}
	done := make(chan result, 1)
	ctx := context.Background()
	go func() {
		got, _, err := set.RefreshModelContext(ctx, nil)
		done <- result{got, err}
	}()
	time.Sleep(60 * time.Millisecond)
	srvA.Close() // victim dies mid-transfer

	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("model transfer hung after replica death")
	}
	if res.err != nil {
		t.Fatalf("transfer did not fail over: %v", res.err)
	}
	man, err := transport.ManifestOf(res.snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != srvB.ModelVersion() {
		t.Fatalf("assembled snapshot hashes to %.8s, survivor serves %.8s", man.Version, srvB.ModelVersion())
	}
	for i, v := range snap.Weights.Values[0] {
		if math.Float64bits(res.snap.Weights.Values[0][i]) != math.Float64bits(v) {
			t.Fatalf("value %d corrupted across the failover: %v != %v", i, res.snap.Weights.Values[0][i], v)
		}
	}

	// The survivor answers a steady-state refresh with a version match.
	srvB.SetFaultDelay(0)
	if _, upToDate, err := set.RefreshModelContext(ctx, res.snap); err != nil || !upToDate {
		t.Fatalf("steady-state refresh after failover: upToDate=%v err=%v", upToDate, err)
	}

	set.Close()
	srvB.Close()
	waitForGoroutines(t, baseline)
}

// TestModelRefreshDeltaAcrossReplicas rolls both replicas to a new version
// and checks the set's refresh ships a delta that reconstructs it.
func TestModelRefreshDeltaAcrossReplicas(t *testing.T) {
	base := fleetSnapshot(4_000)
	next := fleetSnapshot(4_000)
	next.Weights.Values[0][123] = 7.25
	srvA := startModelReplica(t, base)
	srvB := startModelReplica(t, base)
	set, err := New(Config{Addrs: []string{srvA.Addr(), srvB.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ctx := context.Background()

	got, upToDate, err := set.RefreshModelContext(ctx, nil)
	if err != nil || upToDate {
		t.Fatalf("first fetch: upToDate=%v err=%v", upToDate, err)
	}
	for _, srv := range []*transport.Server{srvA, srvB} {
		if err := srv.UpdateModel(stubDetector{}, nil, next); err != nil {
			t.Fatal(err)
		}
	}
	refreshed, upToDate, err := set.RefreshModelContext(ctx, got)
	if err != nil || upToDate {
		t.Fatalf("delta refresh: upToDate=%v err=%v", upToDate, err)
	}
	if refreshed.Weights.Values[0][123] != 7.25 {
		t.Fatalf("delta refresh lost the update: %v", refreshed.Weights.Values[0][123])
	}
	man, err := transport.ManifestOf(refreshed)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != srvA.ModelVersion() {
		t.Fatalf("refreshed snapshot hashes to %.8s, fleet serves %.8s", man.Version, srvA.ModelVersion())
	}
}
