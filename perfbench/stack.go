package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/anomaly"
	"repro/internal/dataset"
	"repro/internal/hec"
	"repro/internal/sched"
	"repro/internal/transport"
)

// buildSeed is the fixed training seed of every benchmarked system; the
// workload seed only changes the windows the system is asked to judge.
const buildSeed = 1

// dataSeedOffset moves the workload seed's data away from the build's: the
// generators seeded with buildSeed made the data the system was trained
// on, so workload seed 1 would otherwise judge the training windows.
const dataSeedOffset = 1 << 40

// uniPoolWindows is how many power-demand weeks a univariate pool holds.
// It is large enough that the share of windows the Successive scheme
// escalates varies little from one workload seed to the next.
const uniPoolWindows = 1024

// pool is the fixed set of labelled windows a run cycles through.
type pool struct {
	windows [][][]float64
	labels  []bool
}

// makePool generates the windows of one run from the workload seed with
// the same generators (and fast-profile sizes) the system was trained from.
func makePool(kind repro.Kind, seed int64) (*pool, error) {
	seed += dataSeedOffset
	p := &pool{}
	switch kind {
	case repro.Univariate:
		cfg := dataset.DefaultPowerConfig()
		cfg.TrainWeeks = 30
		cfg.TestWeeks = uniPoolWindows
		cfg.PolicyWeeks = 0
		cfg.Seed = seed
		ds, err := dataset.GeneratePower(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating power windows: %w", err)
		}
		for _, s := range ds.Test {
			p.windows = append(p.windows, repro.UniSampleFrames(s))
			p.labels = append(p.labels, s.Label)
		}
	case repro.Multivariate:
		cfg := dataset.DefaultMHealthConfig()
		cfg.Subjects = 4
		cfg.WalkSeconds = 40
		cfg.OtherSeconds = 10
		cfg.Seed = seed
		ds, err := dataset.GenerateMHealth(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating mhealth windows: %w", err)
		}
		for _, s := range ds.Full {
			// Sliding windows share their frame arrays; a private outer
			// slice gives every window its own identity for the tracer.
			p.windows = append(p.windows, append([][]float64(nil), s.Frames...))
			p.labels = append(p.labels, s.Label)
		}
	default:
		return nil, fmt.Errorf("unknown data kind %v", kind)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.windows), func(i, j int) {
		p.windows[i], p.windows[j] = p.windows[j], p.windows[i]
		p.labels[i], p.labels[j] = p.labels[j], p.labels[i]
	})
	return p, nil
}

// item is one public-API call's input: a single window for Detect, or a
// minibatch for DetectBatch. idx holds the windows' pool indices.
type item struct {
	idx     []int
	windows [][][]float64
}

// partition deals the pool out to callers (window i goes to caller
// i mod callers, so no two callers ever judge the same window) and groups
// each caller's windows into calls of batch windows; batch 0 means one
// Detect per window.
func partition(p *pool, callers, batch int) [][]item {
	per := batch
	if per == 0 {
		per = 1
	}
	out := make([][]item, callers)
	for c := range out {
		var it item
		for i := c; i < len(p.windows); i += callers {
			it.idx = append(it.idx, i)
			it.windows = append(it.windows, p.windows[i])
			if len(it.idx) == per {
				out[c] = append(out[c], it)
				it = item{}
			}
		}
		if len(it.idx) > 0 {
			out[c] = append(out[c], it)
		}
	}
	return out
}

// verdict is the part of a Detection that must match the reference.
type verdict struct {
	anomaly, confident bool
	layer              repro.Layer
}

func verdictOf(d repro.Detection) verdict {
	return verdict{anomaly: d.Anomaly, confident: d.Confident, layer: d.Layer}
}

// reference judges every pool window once through an in-process session
// with no remotes: the verdicts and resolved layers every timed call must
// reproduce.
func reference(ctx context.Context, sys *repro.System, scheme repro.Scheme, p *pool) ([]verdict, error) {
	sess, err := sys.Open(scheme)
	if err != nil {
		return nil, fmt.Errorf("opening reference session: %w", err)
	}
	defer sess.Close()
	ref := make([]verdict, len(p.windows))
	for i, w := range p.windows {
		d, err := sess.Detect(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("reference detection of window %d: %w", i, err)
		}
		ref[i] = verdictOf(d)
	}
	return ref, nil
}

// remoteTiers are the tiers served over the wire.
var remoteTiers = [...]hec.Layer{hec.LayerEdge, hec.LayerCloud}

// startServer serves one tier's detector the way `hecnode -sched edf`
// does: the tier's compute model and an EDF scheduler with GOMAXPROCS
// slots and a 64-deep queue.
func startServer(dep *hec.Deployment, l hec.Layer, det anomaly.Detector) (*transport.Server, error) {
	exec, err := dep.Topology.ExecTimeFunc(l, det, dep.Recurrent)
	if err != nil {
		return nil, fmt.Errorf("compute model for %v: %w", l, err)
	}
	srv, err := transport.ServeWith("127.0.0.1:0", det, transport.ServerOptions{
		ExecMs: exec,
		Sched:  &sched.Config{MaxConcurrent: runtime.GOMAXPROCS(0), MaxQueue: 64, Policy: sched.EDF{}},
	})
	if err != nil {
		return nil, fmt.Errorf("serving %v: %w", l, err)
	}
	return srv, nil
}

// stack is one benchmarked deployment: a built system, one server per
// remote tier, and a session reaching them through routing replica sets.
type stack struct {
	sys     *repro.System
	servers [hec.NumLayers]*transport.Server
	sess    *repro.Session
}

// setUp builds the system, starts its servers and opens the session; the
// returned duration is the benchmark's set-up time.
func setUp(kind repro.Kind, scheme repro.Scheme) (*stack, time.Duration, error) {
	start := time.Now()
	sys, err := repro.Build(kind, repro.WithFast(), repro.WithSeed(buildSeed))
	if err != nil {
		return nil, 0, fmt.Errorf("building system: %w", err)
	}
	st := &stack{sys: sys}
	var opts []repro.SessionOption
	for _, l := range remoteTiers {
		srv, err := startServer(sys.Deployment, l, sys.Deployment.Detectors[l])
		if err != nil {
			st.Close()
			return nil, 0, err
		}
		st.servers[l] = srv
		opts = append(opts, repro.WithRemoteAddrs(l, srv.Addr()))
	}
	opts = append(opts, repro.WithPoolSize(1))
	if st.sess, err = sys.Open(scheme, opts...); err != nil {
		st.Close()
		return nil, 0, fmt.Errorf("opening session: %w", err)
	}
	return st, time.Since(start), nil
}

// Close ends the session and stops the servers.
func (s *stack) Close() {
	if s.sess != nil {
		s.sess.Close()
	}
	for _, srv := range s.servers {
		if srv != nil {
			srv.Close()
		}
	}
}

// schedStats sums the scheduler counters of the stack's servers.
func schedStats(servers [hec.NumLayers]*transport.Server) sched.Stats {
	var sum sched.Stats
	for _, srv := range servers {
		if srv == nil {
			continue
		}
		st, ok := srv.SchedStats()
		if !ok {
			continue
		}
		sum.Queued += st.Queued
		sum.Admitted += st.Admitted
		sum.Busy += st.Busy
		sum.Expired += st.Expired
	}
	return sum
}
