// Package cluster is the live HEC runtime: it runs the paper's model-
// selection schemes over real TCP connections instead of the precompute-
// and-replay simulator. A Device plays the paper's IoT node — it hosts the
// smallest detector locally, runs the trained REINFORCE policy on every
// incoming window, and dispatches the window to the local detector or a
// remote layer over keep-alive pipelined connections. A load generator
// (loadgen.go) streams windows from many concurrent simulated devices and
// aggregates live accuracy, delay percentiles, routing mix and throughput.
//
// Delay accounting is uniform across schemes: execution time is always the
// calibrated simulated value (local topology model or the server's ExecMs),
// network time is always measured wall clock minus server processing (so it
// includes injected link delays), and a scheme's end-to-end delay is the sum
// of both over every layer it tried. Simulated and wall-clock milliseconds
// are never mixed within one term.
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/anomaly"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/transport"
)

// Remote is a connection to one remote layer's detection service.
// *transport.Client, *transport.Pool and *routing.ReplicaSet all satisfy
// it — the last is how a Device gets a multi-replica tier with
// health-checked failover without knowing it (see internal/routing). The
// context carries cancellation and the deadline that transport propagates
// on the wire so overloaded tiers can shed expired work.
//
// A Device sends a tier group of one window through DetectContext
// (OpDetect, the interactive scheduling class) and a larger group through
// one DetectBatchContext request (OpDetectBatch, the bulk class), whose
// reply must carry one verdict and one execution time per window; a short
// reply is an error wrapping transport.ErrRemote.
type Remote interface {
	DetectContext(ctx context.Context, frames [][]float64) (transport.DetectResult, error)
	DetectBatchContext(ctx context.Context, windows [][][]float64) (transport.BatchResult, error)
}

// BatchRemote is an alias of Remote, kept for code that names it.
type BatchRemote = Remote

// PolicySource yields the action distribution π(·|z) for a context; it is
// satisfied by *policy.Network and by test stubs.
type PolicySource interface {
	Probs(z []float64) ([]float64, error)
}

// Scheme selects how a Device routes windows.
type Scheme int

// The live schemes: the paper's five plus a deliberately bad policy used to
// validate that the runtime's metrics can tell a good policy from a bad one.
const (
	// SchemeIoT always detects locally.
	SchemeIoT Scheme = iota
	// SchemeEdge always offloads to the edge service.
	SchemeEdge
	// SchemeCloud always offloads to the cloud service.
	SchemeCloud
	// SchemeSuccessive escalates until a confident verdict.
	SchemeSuccessive
	// SchemeAdaptive follows the trained policy's most-preferred layer.
	SchemeAdaptive
	// SchemePathological follows the trained policy's LEAST-preferred layer
	// (always-cloud when no policy is set) — an intentionally bad router
	// whose badness the live metrics must surface.
	SchemePathological
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeIoT:
		return "IoT Device"
	case SchemeEdge:
		return "Edge"
	case SchemeCloud:
		return "Cloud"
	case SchemeSuccessive:
		return "Successive"
	case SchemeAdaptive:
		return "Adaptive"
	case SchemePathological:
		return "Pathological"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// AllSchemes lists every live scheme in display order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeIoT, SchemeEdge, SchemeCloud, SchemeSuccessive, SchemeAdaptive, SchemePathological}
}

// ParseScheme maps a CLI name to a scheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "iot":
		return SchemeIoT, nil
	case "edge":
		return SchemeEdge, nil
	case "cloud":
		return SchemeCloud, nil
	case "successive":
		return SchemeSuccessive, nil
	case "adaptive":
		return SchemeAdaptive, nil
	case "pathological":
		return SchemePathological, nil
	default:
		return 0, fmt.Errorf("cluster: unknown scheme %q (iot|edge|cloud|successive|adaptive|pathological)", name)
	}
}

// Device is one live IoT node: a local detector plus connections to the
// higher layers and the trained routing policy. A Device is stateless per
// call and safe for concurrent use (detector and policy inference are
// read-only; remotes are concurrency-safe). The one mutable piece is the
// local detector, which SwapLocal can replace atomically while windows are
// streaming — the hot-swap half of model distribution.
type Device struct {
	// Local is the IoT-layer detector. SwapLocal supersedes it at runtime
	// without mutating the field, so construction-time configuration stays
	// data-race-free.
	Local anomaly.Detector
	// LocalExecMs simulates the local execution time (window length → ms);
	// nil charges zero, which only makes sense in unit tests.
	LocalExecMs func(frames int) float64
	// Remotes holds connections per layer; Remotes[LayerIoT] is ignored and
	// the entries for layers a scheme never touches may be nil.
	Remotes [hec.NumLayers]Remote
	// Policy drives the Adaptive and Pathological schemes.
	Policy PolicySource
	// Extractor maps a window to the policy context.
	Extractor features.Extractor
	// PolicyOverheadMs is the simulated cost of context extraction plus the
	// policy forward pass on the IoT device, charged to policy-driven
	// schemes.
	PolicyOverheadMs float64

	// hot, when set, overrides Local/LocalExecMs. Swapped atomically so a
	// refreshed model goes live between windows with no lock on the hot
	// detection path and no restart; in-flight windows finish on the
	// detector they started with.
	hot atomic.Pointer[hotLocal]
}

// hotLocal pairs a detector with its execution-time model so both swap in
// one atomic store — a refreshed detector must never be billed with the old
// detector's simulated cost.
type hotLocal struct {
	det    anomaly.Detector
	execMs func(frames int) float64
}

// SwapLocal atomically replaces the device's local detector and its
// simulated execution-time model. Windows already being judged finish on
// the old detector; every window dispatched after the swap sees the new
// one. A nil det clears the override, restoring the construction-time
// fields.
func (d *Device) SwapLocal(det anomaly.Detector, execMs func(frames int) float64) {
	if det == nil {
		d.hot.Store(nil)
		return
	}
	d.hot.Store(&hotLocal{det: det, execMs: execMs})
}

// localState returns the live local detector and execution-time model,
// preferring a SwapLocal override over the construction-time fields.
func (d *Device) localState() (anomaly.Detector, func(frames int) float64) {
	if h := d.hot.Load(); h != nil {
		return h.det, h.execMs
	}
	return d.Local, d.LocalExecMs
}

// Outcome is one live detection with its delay decomposition.
type Outcome struct {
	Verdict anomaly.Verdict
	// Layer is the layer whose verdict was used.
	Layer hec.Layer
	// DelayMs is the end-to-end delay: ExecMs + NetMs (+ policy overhead for
	// policy-driven schemes).
	DelayMs float64
	// ExecMs sums the simulated execution time of every layer tried.
	ExecMs float64
	// NetMs sums the measured network time (incl. injected link delay) of
	// every offload performed.
	NetMs float64
}

// fold records layer l's verdict as the window's answer, adding the
// layer's execution and network time to what earlier layers cost.
func (o *Outcome) fold(l hec.Layer, v anomaly.Verdict, execMs, netMs float64) {
	o.Verdict, o.Layer = v, l
	o.ExecMs += execMs
	o.NetMs += netMs
	o.DelayMs = o.ExecMs + o.NetMs
}

// localExec is the simulated local execution time of one window (zero
// without an execution-time model).
func localExec(execMs func(frames int) float64, frames [][]float64) float64 {
	if execMs == nil {
		return 0
	}
	return execMs(len(frames))
}

// judge detects windows[i] for every i in idx at layer l and folds each
// verdict into outs[i] (see Outcome.fold), so a window that tries several
// layers pays for every one. It is the one place that picks the dispatch
// shape: a group of one window goes through Detector.Detect or
// Remote.DetectContext (OpDetect, the interactive scheduling class); a
// larger group goes through anomaly.DetectAll or one
// Remote.DetectBatchContext request (OpDetectBatch), paying the wire round
// trip, codec work and injected link delay once. A batch's measured network
// time is shared evenly across its windows, because that is what each
// window actually cost the link once it rode along. ctx is checked before
// local detection and handed to remotes, whose transport honours it during
// delays and response waits.
func (d *Device) judge(ctx context.Context, l hec.Layer, windows [][][]float64, idx []int, outs []Outcome) error {
	var (
		local  anomaly.Detector
		execMs func(frames int) float64
		remote Remote
	)
	switch {
	case l == hec.LayerIoT:
		if local, execMs = d.localState(); local == nil {
			return fmt.Errorf("cluster: device has no local detector")
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cluster: local detection abandoned: %w", err)
		}
	case l < 0 || l >= hec.NumLayers:
		return fmt.Errorf("cluster: layer %d out of range", int(l))
	default:
		if remote = d.Remotes[l]; remote == nil {
			return fmt.Errorf("cluster: no connection to layer %v", l)
		}
	}
	if len(idx) == 1 {
		i := idx[0]
		if remote != nil {
			res, err := remote.DetectContext(ctx, windows[i])
			if err != nil {
				return fmt.Errorf("cluster: detection at %v: %w", l, err)
			}
			outs[i].fold(l, res.Verdict, res.ExecMs, res.NetMs)
			return nil
		}
		v, err := local.Detect(windows[i])
		if err != nil {
			return fmt.Errorf("cluster: local detection: %w", err)
		}
		outs[i].fold(l, v, localExec(execMs, windows[i]), 0)
		return nil
	}
	group := make([][][]float64, len(idx))
	for k, i := range idx {
		group[k] = windows[i]
	}
	if remote == nil {
		vs, err := anomaly.DetectAll(local, group)
		if err != nil {
			return fmt.Errorf("cluster: local batch detection: %w", err)
		}
		for k, i := range idx {
			outs[i].fold(l, vs[k], localExec(execMs, group[k]), 0)
		}
		return nil
	}
	res, err := remote.DetectBatchContext(ctx, group)
	if err != nil {
		return fmt.Errorf("cluster: batch detection at %v: %w", l, err)
	}
	if len(res.Verdicts) != len(idx) || len(res.ExecMsEach) != len(idx) {
		return fmt.Errorf("cluster: batch detection at %v: reply carries %d verdicts / %d exec times for %d windows (%w)",
			l, len(res.Verdicts), len(res.ExecMsEach), len(idx), transport.ErrRemote)
	}
	netShare := res.NetMs / float64(len(idx))
	for k, i := range idx {
		outs[i].fold(l, res.Verdicts[k], res.ExecMsEach[k], netShare)
	}
	return nil
}

// policyLayer runs the policy on the window's context and returns the
// highest-probability layer (worst=false) or the lowest (worst=true).
func (d *Device) policyLayer(frames [][]float64, worst bool) (hec.Layer, error) {
	if d.Policy == nil || d.Extractor == nil {
		return 0, fmt.Errorf("cluster: policy-driven scheme needs a policy and an extractor")
	}
	z, err := d.Extractor.Context(frames)
	if err != nil {
		return 0, fmt.Errorf("cluster: extracting context: %w", err)
	}
	probs, err := d.Policy.Probs(z)
	if err != nil {
		return 0, fmt.Errorf("cluster: policy forward: %w", err)
	}
	if len(probs) == 0 {
		return 0, fmt.Errorf("cluster: policy returned no actions")
	}
	best := 0
	for a, p := range probs {
		if (!worst && p > probs[best]) || (worst && p < probs[best]) {
			best = a
		}
	}
	if best >= hec.NumLayers {
		return 0, fmt.Errorf("cluster: policy chose action %d beyond %d layers", best, hec.NumLayers)
	}
	return hec.Layer(best), nil
}

// run dispatches windows[i] for every i in idx under scheme s and writes
// the outcome to outs[i], which must start zeroed. It may reorder idx. The
// schemes:
//
//   - IoT, Edge and Cloud (the paper's fixed baselines) judge every window
//     at one layer.
//   - Successive judges every window locally, then escalates the
//     unconfident ones to the edge and the still-unconfident remainder to
//     the cloud, one group per stage.
//   - Adaptive routes each window to the trained policy's most-preferred
//     layer; Pathological, the adversarial validation mode, to its least-
//     preferred one (always the cloud without a policy), so a healthy
//     metrics pipeline must show it losing to Adaptive. The windows are
//     grouped per layer and both pay the policy's overhead.
//
// A cancelled ctx aborts before the next dispatch.
func (d *Device) run(ctx context.Context, s Scheme, windows [][][]float64, idx []int, outs []Outcome) error {
	switch s {
	case SchemeIoT:
		return d.judge(ctx, hec.LayerIoT, windows, idx, outs)
	case SchemeEdge:
		return d.judge(ctx, hec.LayerEdge, windows, idx, outs)
	case SchemeCloud:
		return d.judge(ctx, hec.LayerCloud, windows, idx, outs)
	case SchemeSuccessive:
		for l := hec.LayerIoT; l < hec.NumLayers && len(idx) > 0; l++ {
			if err := d.judge(ctx, l, windows, idx, outs); err != nil {
				return err
			}
			unsure := idx[:0]
			for _, i := range idx {
				if !outs[i].Verdict.Confident {
					unsure = append(unsure, i)
				}
			}
			idx = unsure
		}
		return nil
	case SchemeAdaptive, SchemePathological:
		worst := s == SchemePathological
		for _, i := range idx {
			l := hec.LayerCloud
			if !worst || (d.Policy != nil && d.Extractor != nil) {
				var err error
				if l, err = d.policyLayer(windows[i], worst); err != nil {
					return err
				}
			}
			outs[i].Layer = l
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(outs[a].Layer, outs[b].Layer) })
		for rest := idx; len(rest) > 0; {
			l, n := outs[rest[0]].Layer, 1
			for n < len(rest) && outs[rest[n]].Layer == l {
				n++
			}
			if err := d.judge(ctx, l, windows, rest[:n], outs); err != nil {
				return err
			}
			rest = rest[n:]
		}
		for _, i := range idx {
			outs[i].DelayMs += d.PolicyOverheadMs
		}
		return nil
	default:
		return fmt.Errorf("cluster: unknown scheme %d", int(s))
	}
}

// Run dispatches one window under the given scheme: a batch of one, sent
// as per-window requests. Cancelling ctx aborts the dispatch (including
// remote waits and injected link delays) with an error satisfying
// errors.Is(err, ctx.Err()).
func (d *Device) Run(ctx context.Context, s Scheme, frames [][]float64) (Outcome, error) {
	windows, idx, outs := [1][][]float64{frames}, [1]int{}, [1]Outcome{}
	if err := d.run(ctx, s, windows[:], idx[:], outs[:]); err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// RunBatch dispatches a batch of windows under the given scheme, returning
// one outcome per window in input order. Verdicts and layer choices match
// Run's; each tier stage ships its group of windows as one request, with
// the network time shared across the group. ctx follows Run's contract,
// covering every staged dispatch the batch performs.
func (d *Device) RunBatch(ctx context.Context, s Scheme, windows [][][]float64) ([]Outcome, error) {
	if len(windows) == 0 {
		return nil, nil
	}
	idx := make([]int, len(windows))
	for i := range idx {
		idx[i] = i
	}
	outs := make([]Outcome, len(windows))
	if err := d.run(ctx, s, windows, idx, outs); err != nil {
		return nil, err
	}
	return outs, nil
}
