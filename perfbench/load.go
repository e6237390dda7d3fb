package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro"
	"repro/internal/hec"
)

// sliceDur is the width of the slices a timed phase is cut into.
const sliceDur = 250 * time.Millisecond

// bestShare is the share of a phase's slices, those that completed the
// most windows, that throughput and latency are taken from. On a shared
// host the machine's speed swings by a third over seconds while other
// tenants come and go (a single-threaded loop shows it too); the fastest
// tenth of the slices is the part of the run the other tenants disturbed
// least, so it is what a run measures of the program.
const bestShare = 0.1

// load is one closed-loop phase: every caller sends its next call only
// after the previous one returned.
type load struct {
	sess   *repro.Session
	batch  int // 0 = Session.Detect per window, else Session.DetectBatch
	items  [][]item
	pool   *pool
	ref    []verdict
	tracer *tracer // nil when untraced
}

// phase is what a timed phase (or one of its callers) observed.
type phase struct {
	calls, failed, mismatched int64
	windows, labelHits        int64
	layers                    [hec.NumLayers]int64
	netMs                     float64
	lat                       []latency
	slices                    []int64 // windows completed per slice
	elapsed                   time.Duration
	mallocs, allocBytes       uint64
	gcCPU, totalCPU           float64
	firstErr                  error
}

// latency is one call's wall time and the slice it completed in (past
// the last slice when it completed after the deadline).
type latency struct {
	d     time.Duration
	slice int32
}

// run drives the load for d and merges what the callers saw.
func (l *load) run(ctx context.Context, d time.Duration) phase {
	nslices := int(d / sliceDur)
	if nslices < 1 {
		nslices = 1
	}
	stats := make([]phase, len(l.items))
	for c := range stats {
		buf, release, err := offHeap[latency](latCap(d, len(l.items)))
		if err != nil {
			return phase{firstErr: fmt.Errorf("mapping latency buffer: %w", err)}
		}
		defer release()
		stats[c].lat = buf[:0]
		stats[c].slices = make([]int64, nslices)
	}
	cpu := cpuSamples()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	metrics.Read(cpu)
	gc0, total0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range l.items {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l.caller(ctx, c, start, deadline, &stats[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	metrics.Read(cpu)
	runtime.ReadMemStats(&after)
	ph := phase{
		slices:     make([]int64, nslices),
		elapsed:    elapsed,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCPU:      cpu[0].Value.Float64() - gc0,
		totalCPU:   cpu[1].Value.Float64() - total0,
	}
	for _, s := range stats {
		// Callers' slices cover the same instants, so they add up.
		for i, n := range s.slices {
			ph.slices[i] += n
		}
		s.slices = nil
		ph.merge(s)
	}
	return ph
}

// merge folds another phase of the same load into p.
func (p *phase) merge(q phase) {
	p.calls += q.calls
	p.failed += q.failed
	p.mismatched += q.mismatched
	p.windows += q.windows
	p.labelHits += q.labelHits
	for i, n := range q.layers {
		p.layers[i] += n
	}
	p.netMs += q.netMs
	p.lat = append(p.lat, q.lat...)
	p.slices = append(p.slices, q.slices...)
	p.elapsed += q.elapsed
	p.mallocs += q.mallocs
	p.allocBytes += q.allocBytes
	p.gcCPU += q.gcCPU
	p.totalCPU += q.totalCPU
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// latCap sizes a caller's latency buffer so the timed phase does not grow
// it (which would add allocations to the measured phase): room for 20k
// calls per second across all callers.
func latCap(d time.Duration, callers int) int {
	return int(d.Seconds()*20000)/callers + 1024
}

// offHeap maps n zeroed values of T outside the Go heap; release unmaps
// them. A buffer there neither adds to the live heap the collector paces
// itself by nor becomes resident before it is written, so it changes
// neither how often the program collects nor rss_mb. T must hold no
// pointers: the collector does not scan the mapping.
func offHeap[T any](n int) (buf []T, release func(), err error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, max(n, 1)*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), func() { syscall.Munmap(mem) }, nil
}

// cpuSamples names the runtime/metrics counters behind runtime.gc_cpu_frac.
func cpuSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
}

// caller is one simulated device (or bulk client) in the closed loop. It
// cycles through its share of the pool until the deadline, timing each
// public-API call and checking every verdict against the reference.
func (l *load) caller(ctx context.Context, c int, start, deadline time.Time, st *phase) {
	items := l.items[c]
	var one [1]repro.Detection
	for k := 0; ; k++ {
		it := items[k%len(items)]
		if !time.Now().Before(deadline) {
			return
		}
		var call int32
		if l.tracer != nil {
			call = l.tracer.beginCall(c)
		}
		t0 := time.Now()
		var dets []repro.Detection
		var err error
		if l.batch == 0 {
			one[0], err = l.sess.Detect(ctx, it.windows[0])
			dets = one[:]
		} else {
			dets, err = l.sess.DetectBatch(ctx, it.windows)
		}
		t1 := time.Now()
		if l.tracer != nil {
			l.tracer.record(spanCall, 0, call, len(it.windows), l.tracer.at(t0), l.tracer.at(t1))
		}
		st.calls++
		if err != nil {
			// A refused or failed call counts as failed, never as fast:
			// it adds no latency sample and no completed window.
			st.failed++
			st.firstErr = err
			continue
		}
		ok := len(dets) == len(it.idx)
		for i := 0; ok && i < len(dets); i++ {
			ok = verdictOf(dets[i]) == l.ref[it.idx[i]]
		}
		if !ok {
			st.failed++
			st.mismatched++
			continue
		}
		for i, d := range dets {
			if d.Anomaly == l.pool.labels[it.idx[i]] {
				st.labelHits++
			}
			st.layers[d.Layer]++
			st.netMs += d.NetMs
		}
		s := int(t1.Sub(start) / sliceDur)
		st.lat = append(st.lat, latency{t1.Sub(t0), int32(min(s, len(st.slices)))})
		st.windows += int64(len(dets))
		if s < len(st.slices) {
			st.slices[s] += int64(len(dets))
		}
	}
}

// percentile returns the nearest-rank q-quantile of sorted durations in
// milliseconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// best picks the bestShare of the phase's slices that completed the most
// windows (at least one slice). It returns the median rate of those
// slices in windows per second, the sorted latencies of the calls that
// completed in them, and how many slices it picked.
func (p phase) best() (rate float64, lat []time.Duration, n int) {
	order := make([]int, len(p.slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.slices[order[a]] > p.slices[order[b]] })
	order = order[:max(1, int(float64(len(order))*bestShare))]
	chosen := make([]bool, len(p.slices)+1)
	rates := make([]float64, len(order))
	for k, i := range order {
		chosen[i] = true
		rates[k] = float64(p.slices[i]) / sliceDur.Seconds()
	}
	for _, l := range p.lat {
		if chosen[l.slice] {
			lat = append(lat, l.d)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return median(rates), lat, len(order)
}

// rate is the phase's completed windows per second of wall time.
func (p phase) rate() float64 { return ratio(float64(p.windows), p.elapsed.Seconds()) }
