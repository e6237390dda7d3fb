// Command perfbench is the repository's serving-path benchmark. It builds
// a fast-profile system, serves the edge and cloud tiers from in-process
// transport servers on loopback TCP, drives the public repro.Session API
// from simulated devices in a closed loop, checks every verdict against an
// in-process reference, and prints one JSON result as its last line.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload uni-window --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (wrappers around every layer boundary, a
// byte-counting relay in front of each server) and prints the per-layer
// metrics. See README.md for what each metric means.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/hec"
	"repro/internal/mat"
	"repro/internal/routing"
	"repro/internal/transport"
)

// workload is one traffic mix. why is the one-line rationale also listed
// in BENCHMARK.json.
//
// BENCHMARK.json lists uni-window and multi-adaptive only: a steady figure
// on a shared two-core host needs runs of about 45 seconds, and the time
// allowed for all runs fits two workloads at that length. uni-bulk stays
// for runs by hand and keeps the batch path in the tracing test.
type workload struct {
	name    string
	kind    repro.Kind
	scheme  repro.Scheme
	callers int
	batch   int // 0 = one Session.Detect per window
	why     string
}

var workloads = []workload{
	{
		name: "uni-window", kind: repro.Univariate, scheme: repro.SchemeSuccessive, callers: 4,
		why: "Per-window Successive: every window crosses every layer, most take two RPCs, and 4 devices share 2 connections.",
	},
	{
		name: "uni-bulk", kind: repro.Univariate, scheme: repro.SchemeCloud, callers: 1, batch: 16,
		why: "Batches of 16 to the cloud: one big frame and one InferBatch per call, so per-window gains should not show here.",
	},
	{
		name: "multi-adaptive", kind: repro.Multivariate, scheme: repro.SchemeAdaptive, callers: 2,
		why: "The paper's adaptive policy on LSTM windows: nearly all local, so features, policy and rnn kernels dominate, not the wire.",
	},
}

const (
	// setupReps is how many times an untraced run sets up; setup_s is the
	// median.
	setupReps = 3
	// warmup runs before every timed phase: connections dialed, packed
	// panels cached, schedulers running, the GC paced.
	warmup = 1500 * time.Millisecond
	// watchdog ends a run that hangs instead of letting it run forever.
	watchdog = 170 * time.Second
	// spansPerSecond sizes the trace buffer; a run that records more fails.
	spansPerSecond = 80000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: uni-window | uni-bulk | multi-adaptive")
	seed := flag.Int64("seed", 1, "workload seed (generates the windows)")
	seconds := flag.Int("seconds", 10, "length of each timed phase in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (uni-window|uni-bulk|multi-adaptive), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	runtime.GOMAXPROCS(runtime.NumCPU())

	b := &bench{w: *w, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	report := map[string]any{"workload": w.name, "why": w.why, "env": environment(*seed), "samples": b.samples}
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: verdicts or layers differ from the in-process reference")
		os.Exit(1)
	}
}

// bench is one benchmark run.
type bench struct {
	w       workload
	seed    int64
	dur     time.Duration
	traced  bool
	samples map[string]int64
}

func (b *bench) run(ctx context.Context) (*result, error) {
	p, err := makePool(b.w.kind, b.seed)
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var st *stack
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if st != nil {
			st.Close()
		}
		var d time.Duration
		if st, d, err = setUp(b.w.kind, b.w.scheme); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer st.Close()
	ref, err := reference(ctx, st.sys, b.w.scheme, p)
	if err != nil {
		return nil, err
	}
	items := partition(p, b.w.callers, b.w.batch)
	ld := &load{sess: st.sess, batch: b.w.batch, items: items, pool: p, ref: ref}
	// Hand the set-ups' garbage back to the OS, so that rss_mb is the
	// serving footprint and not what the scavenger had yet to return.
	debug.FreeOSMemory()
	warm := ld.run(ctx, warmup)
	if b.traced {
		return b.tracedRun(ctx, st.sys, ld, warm.mismatched)
	}
	rss := sampleRSS(b.dur)
	ph := ld.run(ctx, b.dur)
	rssMB := rss.stop()
	if err := usable(ph); err != nil {
		return nil, err
	}
	var m map[string]metric
	m, b.samples = endToEnd(ph, median(setups), rssMB)
	return &result{
		Correct:   warm.mismatched == 0 && ph.mismatched == 0,
		Attempted: ph.calls,
		Failed:    ph.failed,
		Metrics:   m,
	}, nil
}

// usable rejects a phase with nothing to measure.
func usable(ph phase) error {
	if ph.windows == 0 || len(ph.lat) == 0 {
		return fmt.Errorf("no call completed in the timed phase (%d attempted, %d failed): %v",
			ph.calls, ph.failed, ph.firstErr)
	}
	return nil
}

// endToEnd derives the metrics a user of the system sees, and the sample
// counts behind them. Throughput and latency come from the phase's best
// slices (see bestShare); the other metrics cover the whole phase.
func endToEnd(ph phase, setupS, rssMB float64) (map[string]metric, map[string]int64) {
	w := float64(ph.windows)
	rate, lat, best := ph.best()
	samples := map[string]int64{
		"calls": ph.calls, "windows": ph.windows, "slices": int64(len(ph.slices)),
		"best_slices": int64(best), "best_latency_samples": int64(len(lat)),
	}
	return map[string]metric{
		"setup_s":                {setupS, "s"},
		"windows_per_s":          {rate, "1/s"},
		"latency_p50_ms":         {percentile(lat, 0.50), "ms"},
		"latency_p99_ms":         {percentile(lat, 0.99), "ms"},
		"served_frac":            {float64(ph.calls-ph.failed) / float64(ph.calls), "frac"},
		"accuracy":               {float64(ph.labelHits) / w, "frac"},
		"allocs_per_window":      {float64(ph.mallocs) / w, "count"},
		"alloc_bytes_per_window": {float64(ph.allocBytes) / w, "B"},
		"rss_mb":                 {rssMB, "MB"},
	}, samples
}

// tracedStack is the traced twin of a stack: the same system with its IoT
// detector, extractor and server detectors wrapped, a counting relay in
// front of each server, and replica sets wrapped at the cluster.Remote
// boundary.
type tracedStack struct {
	servers [hec.NumLayers]*transport.Server
	relays  [hec.NumLayers]*relay
	sets    [hec.NumLayers]*routing.ReplicaSet
	sess    *repro.Session
}

func openTraced(sys *repro.System, scheme repro.Scheme, tr *tracer) (*tracedStack, error) {
	dep := *sys.Deployment
	dep.Detectors[hec.LayerIoT] = traceDetector(dep.Detectors[hec.LayerIoT], tr, spanIoT, hec.LayerIoT)
	tsys := *sys
	tsys.Deployment = &dep
	tsys.Extractor = tracedExtractor{Extractor: sys.Extractor, tr: tr}
	ts := &tracedStack{}
	var opts []repro.SessionOption
	for _, l := range remoteTiers {
		srv, err := startServer(sys.Deployment, l, traceDetector(sys.Deployment.Detectors[l], tr, spanServer, l))
		if err != nil {
			ts.Close()
			return nil, err
		}
		ts.servers[l] = srv
		if ts.relays[l], err = startRelay(srv.Addr()); err != nil {
			ts.Close()
			return nil, err
		}
		// The same replica-set configuration WithRemoteAddrs and
		// WithPoolSize(1) produce, built here so it can be wrapped.
		set, err := routing.New(routing.Config{Addrs: []string{ts.relays[l].Addr()}, PoolSize: 1})
		if err != nil {
			ts.Close()
			return nil, fmt.Errorf("replica set for %v: %w", l, err)
		}
		ts.sets[l] = set
		opts = append(opts, repro.WithRemote(l, tracedSet{ReplicaSet: set, tr: tr, layer: l}))
	}
	sess, err := tsys.Open(scheme, opts...)
	if err != nil {
		ts.Close()
		return nil, fmt.Errorf("opening traced session: %w", err)
	}
	ts.sess = sess
	return ts, nil
}

func (t *tracedStack) Close() {
	if t.sess != nil {
		t.sess.Close()
	}
	for _, l := range remoteTiers {
		if t.sets[l] != nil {
			t.sets[l].Close()
		}
		if t.relays[l] != nil {
			t.relays[l].Close()
		}
		if t.servers[l] != nil {
			t.servers[l].Close()
		}
	}
}

func (t *tracedStack) wireBytes() int64 {
	var n int64
	for _, r := range t.relays {
		if r != nil {
			n += r.bytes.Load()
		}
	}
	return n
}

// tracePairs is how many untraced/traced sub-phase pairs a traced run
// alternates through. The machine's speed drifts over seconds, so
// trace.overhead_frac compares each traced sub-phase with the untraced one
// next to it.
const tracePairs = 8

// tracedRun splits the timed phase between the untraced load and its
// traced twin, alternating sub-phases, and aggregates the traced spans
// into the per-layer metrics.
func (b *bench) tracedRun(ctx context.Context, sys *repro.System, plain *load, mismatched int64) (*result, error) {
	tr, err := newTracer(plain.items, int(b.dur.Seconds()*spansPerSecond))
	if err != nil {
		return nil, err
	}
	defer tr.free()
	ts, err := openTraced(sys, b.w.scheme, tr)
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	tl := *plain
	tl.sess, tl.tracer = ts.sess, tr
	mismatched += tl.run(ctx, warmup).mismatched
	tr.reset()
	tiers0 := ts.sess.TierStatus()
	sched0 := schedStats(ts.servers)
	bytes0 := ts.wireBytes()
	var up, tp phase
	var depth meanOf
	ratios := make([]float64, tracePairs)
	sub := b.dur / tracePairs
	for i := range ratios {
		var u, t phase
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				u = plain.run(ctx, sub)
				continue
			}
			d := sampleQueueDepth(ts.servers)
			t = tl.run(ctx, sub)
			depth.merge(d.stop())
		}
		ratios[i] = t.rate() / u.rate()
		up.merge(u)
		tp.merge(t)
	}
	sched1 := schedStats(ts.servers)
	tiers1 := ts.sess.TierStatus()
	wire := ts.wireBytes() - bytes0
	if err := usable(up); err != nil {
		return nil, err
	}
	if err := usable(tp); err != nil {
		return nil, err
	}
	b.samples = map[string]int64{"calls": up.calls, "traced_calls": tp.calls}

	spans, err := tr.recorded()
	if err != nil {
		return nil, err
	}
	calls, err := breakdown(spans)
	if err != nil {
		return nil, err
	}
	if err := serversNested(spans); err != nil {
		return nil, err
	}
	var a aggregate
	a.add(spans)
	var self int64
	for _, c := range calls {
		self += c.self
	}
	w := float64(tp.windows)
	rpcs := float64(a.remoteCount[hec.LayerEdge] + a.remoteCount[hec.LayerCloud])
	remoteNs := a.remoteNs[hec.LayerEdge] + a.remoteNs[hec.LayerCloud]
	serverNs := a.serverNs[hec.LayerEdge] + a.serverNs[hec.LayerCloud]
	rt := routingDelta(tiers0, tiers1)
	m := map[string]metric{
		"repro.call_us":                   {us(a.callNs, a.callCount), "us"},
		"cluster.self_us":                 {us(self, a.callCount), "us"},
		"cluster.share_iot":               {float64(tp.layers[hec.LayerIoT]) / w, "frac"},
		"cluster.share_edge":              {float64(tp.layers[hec.LayerEdge]) / w, "frac"},
		"cluster.share_cloud":             {float64(tp.layers[hec.LayerCloud]) / w, "frac"},
		"cluster.tiers_per_window":        {float64(a.iotWindows+a.remoteWindows) / float64(a.callWindows), "count"},
		"features.context_us":             {us(a.contextNs, a.contextCount), "us"},
		"policy.probs_us":                 {probsUS(sys, tr.contexts()), "us"},
		"iot.detect_us":                   {us(a.iotNs, a.iotWindows), "us"},
		"edge.server_detect_us":           {us(a.serverNs[hec.LayerEdge], a.serverWindows[hec.LayerEdge]), "us"},
		"cloud.server_detect_us":          {us(a.serverNs[hec.LayerCloud], a.serverWindows[hec.LayerCloud]), "us"},
		"cloud.server_busy_frac":          {float64(a.serverNs[hec.LayerCloud]) / float64(tp.elapsed), "frac"},
		"edge.remote_us":                  {us(a.remoteNs[hec.LayerEdge], a.remoteCount[hec.LayerEdge]), "us"},
		"cloud.remote_us":                 {us(a.remoteNs[hec.LayerCloud], a.remoteCount[hec.LayerCloud]), "us"},
		"routing.requests":                {float64(rt.requests), "count"},
		"routing.busy":                    {float64(rt.busy), "count"},
		"routing.failures":                {float64(rt.failures), "count"},
		"routing.shed":                    {float64(rt.shed), "count"},
		"transport.overhead_us":           {ratio(float64(remoteNs-serverNs)/1e3, rpcs), "us"},
		"transport.net_ms":                {ratio(tp.netMs, rpcs), "ms"},
		"transport.wire_bytes_per_window": {float64(wire) / w, "B"},
		"transport.windows_per_rpc":       {ratio(float64(a.remoteWindows), rpcs), "count"},
		"sched.admitted":                  {float64(sched1.Admitted - sched0.Admitted), "count"},
		"sched.busy":                      {float64(sched1.Busy - sched0.Busy), "count"},
		"sched.expired":                   {float64(sched1.Expired - sched0.Expired), "count"},
		"sched.queue_depth_mean":          {depth.mean(), "count"},
		"runtime.gc_cpu_frac":             {up.gcCPU / up.totalCPU, "frac"},
		"trace.overhead_frac":             {1 - median(ratios), "frac"},
	}
	return &result{
		Correct:   mismatched+up.mismatched+tp.mismatched == 0,
		Attempted: up.calls + tp.calls,
		Failed:    up.failed + tp.failed,
		Metrics:   m,
	}, nil
}

// aggregate sums spans per layer boundary.
type aggregate struct {
	callNs, callCount, callWindows int64
	contextNs, contextCount        int64
	iotNs, iotWindows              int64
	remoteNs, remoteCount          [hec.NumLayers]int64
	remoteWindows                  int64
	serverNs, serverWindows        [hec.NumLayers]int64
}

func (a *aggregate) add(spans []span) {
	for _, s := range spans {
		switch s.kind {
		case spanCall:
			a.callNs += s.dur()
			a.callCount++
			a.callWindows += int64(s.n)
		case spanContext:
			a.contextNs += s.dur()
			a.contextCount++
		case spanIoT:
			a.iotNs += s.dur()
			a.iotWindows += int64(s.n)
		case spanRemote:
			a.remoteNs[s.layer] += s.dur()
			a.remoteCount[s.layer]++
			a.remoteWindows += int64(s.n)
		case spanServer:
			a.serverNs[s.layer] += s.dur()
			a.serverWindows[s.layer] += int64(s.n)
		}
	}
}

// us is total nanoseconds per unit, in microseconds (0 when there were
// none: the layer did no work on this workload).
func us(ns, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }

func ratio(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// probsUS times the policy forward pass on the contexts the traced
// extractor captured. *policy.Network is concrete in the session, so it
// is timed here rather than wrapped.
func probsUS(sys *repro.System, zs [][]float64) float64 {
	if sys.Policy == nil || len(zs) == 0 {
		return 0
	}
	const passes = 4
	start := time.Now()
	for i := 0; i < passes; i++ {
		for _, z := range zs {
			if _, err := sys.Policy.Probs(z); err != nil {
				return 0
			}
		}
	}
	return us(int64(time.Since(start)), int64(passes*len(zs)))
}

// routingTotals sums the routing counters of every tier.
type routingTotals struct{ requests, busy, failures, shed uint64 }

func routingDelta(before, after []repro.TierStatus) routingTotals {
	sum := func(ts []repro.TierStatus) routingTotals {
		var t routingTotals
		for _, tier := range ts {
			t.shed += tier.Shed
			for _, r := range tier.Replicas {
				t.requests += r.Requests
				t.busy += r.Busy
				t.failures += r.Failures
			}
		}
		return t
	}
	b, a := sum(before), sum(after)
	return routingTotals{a.requests - b.requests, a.busy - b.busy, a.failures - b.failures, a.shed - b.shed}
}

// meanOf accumulates a mean across sub-phases.
type meanOf struct{ sum, n float64 }

func (m *meanOf) merge(o meanOf) { m.sum, m.n = m.sum+o.sum, m.n+o.n }

func (m meanOf) mean() float64 { return ratio(m.sum, m.n) }

// depthSampler polls the servers' scheduler queue depth during a phase.
type depthSampler struct {
	stopc chan struct{}
	done  chan meanOf
}

func sampleQueueDepth(servers [hec.NumLayers]*transport.Server) *depthSampler {
	d := &depthSampler{stopc: make(chan struct{}), done: make(chan meanOf, 1)}
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var m meanOf
		for {
			select {
			case <-tick.C:
				m.merge(meanOf{float64(schedStats(servers).Queued), 1})
			case <-d.stopc:
				d.done <- m
				return
			}
		}
	}()
	return d
}

// stop ends sampling and returns the samples taken.
func (d *depthSampler) stop() meanOf {
	close(d.stopc)
	return <-d.done
}

// rssSampler reads the process's resident set size every slice of a
// timed phase of length d. The peak would include the set-ups' training
// and move with where the collector happened to run; the median while
// serving is the footprint.
type rssSampler struct {
	stopc chan struct{}
	done  chan float64
}

func sampleRSS(d time.Duration) *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(sliceDur)
		defer tick.Stop()
		mb := make([]float64, 0, int(d/sliceDur)+1)
		for {
			select {
			case <-tick.C:
				if v, ok := readRSSMB(); ok {
					mb = append(mb, v)
				}
			case <-r.stopc:
				r.done <- median(mb)
				return
			}
		}
	}()
	return r
}

// stop ends sampling and returns the median resident set size in MB.
func (r *rssSampler) stop() float64 {
	close(r.stopc)
	return <-r.done
}

// readRSSMB is the process's current resident set size in MB.
func readRSSMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}

// environment stamps a result with what it was measured on. Results taken
// under different kernels are not comparable.
func environment(seed int64) map[string]any {
	return map[string]any{
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"kernel":        mat.KernelName(),
		"build_seed":    buildSeed,
		"workload_seed": seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
