package main

import (
	"context"
	"testing"
	"time"

	"repro"
	"repro/internal/anomaly"
	"repro/internal/hec"
)

// TestTracedRunMatchesUntraced runs each workload briefly untraced and
// traced against the same system and checks that tracing changes nothing
// the program computes and that its spans add up.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three systems")
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := makePool(w.kind, 3)
			if err != nil {
				t.Fatal(err)
			}
			p.windows, p.labels = p.windows[:96], p.labels[:96]
			st, _, err := setUp(w.kind, w.scheme)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ref, err := reference(ctx, st.sys, w.scheme, p)
			if err != nil {
				t.Fatal(err)
			}
			// Two callers keep the test short while still overlapping calls.
			items := partition(p, 2, w.batch)
			plain := (&load{sess: st.sess, batch: w.batch, items: items, pool: p, ref: ref}).run(ctx, 300*time.Millisecond)
			if plain.calls == 0 || plain.failed != 0 {
				t.Fatalf("untraced: %d calls, %d failed (%v)", plain.calls, plain.failed, plain.firstErr)
			}

			tr, err := newTracer(items, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.free()
			ts, err := openTraced(st.sys, w.scheme, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()
			// The wrappers must keep the optional batch interfaces, or a
			// traced run silently takes the per-window path.
			for _, l := range []hec.Layer{hec.LayerIoT, hec.LayerEdge, hec.LayerCloud} {
				det := traceDetector(st.sys.Deployment.Detectors[l], tr, spanServer, l)
				if _, ok := det.(anomaly.BatchDetector); !ok {
					t.Errorf("traced %v detector lost anomaly.BatchDetector", l)
				}
			}
			traced := (&load{sess: ts.sess, batch: w.batch, items: items, pool: p, ref: ref, tracer: tr}).run(ctx, 300*time.Millisecond)
			// Both phases are checked window by window against the same
			// in-process reference, so no mismatch means identical verdicts
			// and layers.
			if traced.calls == 0 || traced.failed != 0 {
				t.Fatalf("traced: %d calls, %d failed, %d mismatched (%v)",
					traced.calls, traced.failed, traced.mismatched, traced.firstErr)
			}
			if len(ts.sess.TierStatus()) != len(remoteTiers) {
				t.Errorf("traced session reports %d tiers, want %d (routing introspection lost)",
					len(ts.sess.TierStatus()), len(remoteTiers))
			}
			if ts.wireBytes() == 0 {
				t.Error("relays counted no wire bytes")
			}

			spans, err := tr.recorded()
			if err != nil {
				t.Fatal(err)
			}
			calls, err := breakdown(spans) // fails on a child outside its call
			if err != nil {
				t.Fatal(err)
			}
			if err := serversNested(spans); err != nil {
				t.Fatal(err)
			}
			if int64(len(calls)) != traced.calls {
				t.Fatalf("%d root spans for %d calls", len(calls), traced.calls)
			}
			var a aggregate
			a.add(spans)
			var self, children int64
			for id, c := range calls {
				kids := c.context + c.iot + c.remote[hec.LayerEdge] + c.remote[hec.LayerCloud]
				if c.self+kids != c.total {
					t.Fatalf("call %d: self %d + children %d != total %d", id, c.self, kids, c.total)
				}
				self += c.self
				children += kids
			}
			clientKids := a.contextNs + a.iotNs + a.remoteNs[hec.LayerEdge] + a.remoteNs[hec.LayerCloud]
			if children != clientKids || self+clientKids != a.callNs {
				t.Fatalf("cluster.self %d + child spans %d != repro.call %d", self, clientKids, a.callNs)
			}

			switch w.scheme {
			case repro.SchemeCloud:
				// One RPC and one server-side batch per DetectBatch call.
				if a.remoteCount[hec.LayerCloud] != a.callCount || a.serverWindows[hec.LayerCloud] != a.callWindows {
					t.Errorf("cloud: %d RPCs carrying %d windows for %d calls of %d windows",
						a.remoteCount[hec.LayerCloud], a.serverWindows[hec.LayerCloud], a.callCount, a.callWindows)
				}
			case repro.SchemeSuccessive:
				if a.iotWindows != a.callWindows {
					t.Errorf("successive: %d local detections for %d windows", a.iotWindows, a.callWindows)
				}
			case repro.SchemeAdaptive:
				if a.contextCount != a.callWindows || len(tr.contexts()) == 0 {
					t.Errorf("adaptive: %d contexts for %d windows", a.contextCount, a.callWindows)
				}
			}
		})
	}
}
