// Command hecnode runs one HEC layer's detection service over TCP, the
// building block of a live distributed deployment: start an edge node and a
// cloud node, then point examples/cluster (or your own client) at them.
//
// A node obtains its detector one of three ways:
//
//   - train it locally at startup (the default; use the same -seed across
//     nodes so every node trains on identical data),
//   - load a previously saved artifact with -load, or
//   - fetch the weights from a running peer with -fetch (the model-shipping
//     RPC) — so a fleet trains exactly once.
//
// Every node serves its own model snapshot to peers, and -save writes the
// content-addressed artifact (canonical payload plus its SHA-256) to disk
// for later -load runs, which verify the digest before serving. A -fetch node can additionally
// -watch the peer: it polls the peer's model version (a cheap
// content-address probe) and, whenever the peer rolls to a new model,
// pulls the changed tensors as a delta update and hot-swaps its serving
// detector with zero restarts and zero dropped requests.
//
// Usage:
//
//	hecnode -layer edge -data univariate -addr 127.0.0.1:7101 -save edge.model
//	hecnode -layer edge -addr 127.0.0.1:7201 -load edge.model
//	hecnode -layer edge -addr 127.0.0.1:7301 -fetch 127.0.0.1:7101
//	hecnode -layer edge -addr 127.0.0.1:7401 -fetch 127.0.0.1:7101 -watch 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/hec"
	"repro/internal/sched"
	"repro/internal/seq2seq"
	"repro/internal/transport"
)

func main() {
	var (
		layer  = flag.String("layer", "edge", "layer this node plays: iot | edge | cloud")
		data   = flag.String("data", "univariate", "dataset: univariate | multivariate")
		addr   = flag.String("addr", "127.0.0.1:0", "listen address")
		seed   = flag.Int64("seed", 1, "training seed (use the same across nodes)")
		save   = flag.String("save", "", "write the trained model artifact to this file")
		load   = flag.String("load", "", "load the model artifact from this file instead of training")
		fetch  = flag.String("fetch", "", "fetch the model from a running peer node instead of training")
		watch  = flag.Duration("watch", 0, "with -fetch: poll the peer at this interval and hot-swap refreshed models (delta updates, zero restarts); 0 disables")
		drain  = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget: finish in-flight requests for up to this long on SIGTERM")
		orphan = flag.Bool("exit-with-parent", false, "drain and exit when the spawning process dies (for autoscaler-spawned replicas)")

		schedPolicy = flag.String("sched", "", "enable the server-side request scheduler with this queue policy: fifo | edf | slo | reverse-edf (empty = no scheduler, requests run as they arrive)")
		schedLimit  = flag.Int("sched-limit", 0, "scheduler concurrency limit (0 = GOMAXPROCS); only with -sched")
		schedQueue  = flag.Int("sched-queue", 64, "scheduler queue capacity beyond the concurrency limit; excess requests get a busy response; only with -sched")
	)
	flag.Parse()
	if err := run(*layer, *data, *addr, *seed, *save, *load, *fetch, *watch, *drain, *orphan, *schedPolicy, *schedLimit, *schedQueue); err != nil {
		fmt.Fprintln(os.Stderr, "hecnode:", err)
		os.Exit(1)
	}
}

func run(layerName, data, addr string, seed int64, save, load, fetch string, watch, drain time.Duration, orphan bool, schedPolicy string, schedLimit, schedQueue int) error {
	l, err := parseLayer(layerName)
	if err != nil {
		return err
	}
	if load != "" && fetch != "" {
		return fmt.Errorf("-load and -fetch are mutually exclusive")
	}
	if watch < 0 {
		return fmt.Errorf("-watch must be ≥ 0")
	}
	if watch > 0 && fetch == "" {
		return fmt.Errorf("-watch needs -fetch: there is no peer to watch")
	}
	var schedCfg *sched.Config
	if schedPolicy != "" {
		pol, err := sched.ParsePolicy(schedPolicy)
		if err != nil {
			return err
		}
		if schedLimit <= 0 {
			schedLimit = runtime.GOMAXPROCS(0)
		}
		schedCfg = &sched.Config{MaxConcurrent: schedLimit, MaxQueue: schedQueue, Policy: pol}
	}

	var (
		det       anomaly.Detector
		recurrent bool
		snap      *transport.ModelSnapshot
	)
	switch {
	case load != "":
		snap, err = cluster.LoadModel(load)
		if err != nil {
			return err
		}
		det, recurrent, err = cluster.RestoreDetector(snap)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %s/%s model %s from %s (digest verified, no training)\n", snap.Kind, snap.Tier, contentAddress(snap), load)
	case fetch != "":
		cli, err := transport.Dial(fetch, 0)
		if err != nil {
			return err
		}
		// Bound the fetch so a wedged peer cannot hang node startup; the
		// multi-megabyte cloud snapshot transfers on loopback or LAN well
		// inside this budget.
		fetchCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		snap, err = cli.FetchModelContext(fetchCtx)
		cancel()
		cli.Close()
		if err != nil {
			return fmt.Errorf("fetching model from %s: %w", fetch, err)
		}
		det, recurrent, err = cluster.RestoreDetector(snap)
		if err != nil {
			return err
		}
		fmt.Printf("fetched %s/%s model from peer %s (no training)\n", snap.Kind, snap.Tier, fetch)
	default:
		fmt.Printf("training %s model for layer %v...\n", data, l)
		det, recurrent, err = trainDetector(l, data, seed)
		if err != nil {
			return err
		}
		snap, err = cluster.SnapshotDetector(det, l.String(), l != hec.LayerCloud)
		if err != nil {
			return err
		}
	}
	if snap.Tier != l.String() {
		fmt.Printf("note: serving a %s-tier model at layer %v\n", snap.Tier, l)
	}
	if save != "" {
		if err := cluster.SaveModel(save, snap); err != nil {
			return err
		}
		fmt.Printf("saved model artifact %s to %s\n", contentAddress(snap), save)
	}

	execMs, err := hec.DefaultTopology().ExecTimeFunc(l, det, recurrent)
	if err != nil {
		return err
	}

	srv, err := serveDetector(addr, det, transport.ServerOptions{ExecMs: execMs, Model: snap, Sched: schedCfg})
	if err != nil {
		return err
	}
	defer srv.Close()
	if schedCfg != nil {
		fmt.Printf("hecnode: %s (%s) serving on %s [sched %s, limit %d, queue %d]\n",
			det.Name(), l, srv.Addr(), schedCfg.Policy.Name(), schedCfg.MaxConcurrent, schedCfg.MaxQueue)
	} else {
		fmt.Printf("hecnode: %s (%s) serving on %s\n", det.Name(), l, srv.Addr())
	}

	if watch > 0 {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go watchPeer(watchDone, fetch, l, srv, snap, watch)
		fmt.Printf("hecnode: watching %s every %v for model updates\n", fetch, watch)
	}

	// Graceful drain, so rolling this replica does not surface spurious
	// remote errors to clients: the first signal stops accepting and lets
	// in-flight requests finish (their responses still reach the wire, and
	// clients' routing layers fail the *next* request over to a healthy
	// replica); a second signal — or the -drain budget expiring — forces an
	// immediate close.
	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if orphan {
		// Autoscaler-spawned replicas must not outlive their control plane:
		// when the spawning process dies (our PPID changes — the node is
		// reparented to init/subreaper), enter the same graceful drain a
		// SIGTERM would trigger.
		ppid := os.Getppid()
		go func() {
			for os.Getppid() == ppid {
				time.Sleep(500 * time.Millisecond)
			}
			stop <- syscall.SIGTERM
		}()
	}
	<-stop
	fmt.Printf("hecnode: draining (finishing in-flight requests, budget %v; signal again to force)\n", drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	go func() {
		<-stop
		cancel()
	}()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Printf("hecnode: drain cut short (%v); closing\n", err)
		return nil
	}
	fmt.Println("hecnode: drained cleanly")
	return nil
}

// watchPeer is the poll-and-swap loop behind -watch: every interval it
// probes the peer's model version, and only when the version changed does
// it pull the update — a delta of the changed tensors when possible — and
// hot-swap the serving detector through Server.UpdateModel. In-flight
// requests finish on the old model; nothing restarts. A dead peer or a
// failed refresh costs one log line and the next tick retries (the client
// redials if its connection broke).
func watchPeer(done <-chan struct{}, peer string, l hec.Layer, srv *transport.Server, base *transport.ModelSnapshot, every time.Duration) {
	var cli *transport.Client
	defer func() {
		if cli != nil {
			cli.Close()
		}
	}()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		if cli != nil && cli.Broken() {
			cli.Close()
			cli = nil
		}
		if cli == nil {
			c, err := transport.Dial(peer, 0)
			if err != nil {
				fmt.Printf("hecnode: watch: peer %s unreachable (%v); will retry\n", peer, err)
				continue
			}
			cli = c
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		snap, upToDate, err := cli.RefreshModelContext(ctx, base)
		cancel()
		if err != nil {
			fmt.Printf("hecnode: watch: refresh from %s: %v\n", peer, err)
			continue
		}
		if upToDate {
			continue
		}
		det, recurrent, err := cluster.RestoreDetector(snap)
		if err != nil {
			fmt.Printf("hecnode: watch: refreshed model unusable: %v\n", err)
			continue
		}
		execMs, err := hec.DefaultTopology().ExecTimeFunc(l, det, recurrent)
		if err != nil {
			fmt.Printf("hecnode: watch: no exec-time model for refreshed detector: %v\n", err)
			continue
		}
		if err := srv.UpdateModel(det, execMs, snap); err != nil {
			fmt.Printf("hecnode: watch: hot-swap refused: %v\n", err)
			continue
		}
		base = snap
		fmt.Printf("hecnode: watch: hot-swapped to model version %.8s from %s (zero restarts)\n",
			srv.ModelVersion(), peer)
	}
}

// contentAddress is the snapshot's model version: the hex SHA-256 of its
// canonical payload, the same address peers probe on the wire.
func contentAddress(snap *transport.ModelSnapshot) string {
	man, err := transport.ManifestOf(snap)
	if err != nil {
		return "(unaddressable: " + err.Error() + ")"
	}
	return man.Version
}

func parseLayer(s string) (hec.Layer, error) {
	switch strings.ToLower(s) {
	case "iot":
		return hec.LayerIoT, nil
	case "edge":
		return hec.LayerEdge, nil
	case "cloud":
		return hec.LayerCloud, nil
	default:
		return 0, fmt.Errorf("unknown -layer %q", s)
	}
}

// trainDetector builds and fits the model that belongs at layer l for the
// chosen dataset, using the shared seed so every node trains on identical
// data.
func trainDetector(l hec.Layer, data string, seed int64) (anomaly.Detector, bool, error) {
	tier := [hec.NumLayers]autoencoder.Tier{
		autoencoder.TierIoT, autoencoder.TierEdge, autoencoder.TierCloud,
	}[l]
	switch strings.ToLower(data) {
	case "univariate", "uni":
		cfg := dataset.DefaultPowerConfig()
		cfg.TrainWeeks = 40
		cfg.Seed = seed
		ds, err := dataset.GeneratePower(cfg)
		if err != nil {
			return nil, false, err
		}
		train := make([][]float64, len(ds.Train))
		for i, s := range ds.Train {
			train[i] = s.Values
		}
		rng := rand.New(rand.NewSource(seed + int64(l)))
		m, err := autoencoder.New(tier, dataset.ReadingsPerWeek, rng)
		if err != nil {
			return nil, false, err
		}
		tc := autoencoder.DefaultTrainConfig()
		tc.Epochs = 25
		if _, err := m.Fit(train, tc, rng); err != nil {
			return nil, false, err
		}
		if l != hec.LayerCloud {
			m.Quantize()
		}
		return m, false, nil
	case "multivariate", "multi":
		cfg := dataset.DefaultMHealthConfig()
		cfg.Subjects = 3
		cfg.WalkSeconds = 40
		cfg.Seed = seed
		ds, err := dataset.GenerateMHealth(cfg)
		if err != nil {
			return nil, false, err
		}
		train := make([][][]float64, 0, 60)
		for i, s := range ds.Train {
			if i >= 60 {
				break
			}
			train = append(train, s.Frames)
		}
		rng := rand.New(rand.NewSource(seed + int64(l)))
		m, err := seq2seq.New(tier, seq2seq.DefaultSizing(), rng)
		if err != nil {
			return nil, false, err
		}
		tc := seq2seq.DefaultTrainConfig()
		tc.Epochs = 3
		if _, err := m.Fit(train, tc, rng); err != nil {
			return nil, false, err
		}
		if l != hec.LayerCloud {
			m.Quantize()
		}
		return m, true, nil
	default:
		return nil, false, fmt.Errorf("unknown -data %q", data)
	}
}
