package transport

import (
	"sync"
	"testing"
	"time"
)

// benchThroughput pushes total windows through one shared client from
// `workers` goroutines and reports windows/sec — the number the live load
// generator cares about.
func benchThroughput(b *testing.B, serial bool, oneWay time.Duration) {
	b.Helper()
	srv, err := Serve("127.0.0.1:0", thresholdDetector{}, func(frames int) float64 {
		return float64(frames) * 0.5
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialWith(srv.Addr(), DialOptions{OneWay: oneWay, Serial: serial})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	const workers = 8
	frames := [][]float64{{0.5}, {1.5}}
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := cli.Detect(frames); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(per*workers)/time.Since(start).Seconds(), "windows/s")
}

// BenchmarkSerializedClient is the legacy transport: one request at a time,
// the injected delay held under an exclusive lock. With a 2 ms one-way
// delay every window costs ≥ 4 ms of wall clock regardless of concurrency.
func BenchmarkSerializedClient(b *testing.B) {
	benchThroughput(b, true, 2*time.Millisecond)
}

// BenchmarkPipelinedClient is the multiplexed transport: 8 workers overlap
// their injected delays on the same connection.
func BenchmarkPipelinedClient(b *testing.B) {
	benchThroughput(b, false, 2*time.Millisecond)
}

// BenchmarkCodecRoundTrip measures one full hot-RPC codec cycle on the
// canonical BenchBatch workload (shared with hecbench's BENCH_N.json
// snapshot): encode the batch request, decode it server-side, encode the
// batch response, decode it client-side.
func BenchmarkCodecRoundTrip(b *testing.B) {
	req, resp := BenchBatch(16)
	var reqBuf, respBuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if reqBuf, err = AppendRequest(reqBuf[:0], req); err != nil {
			b.Fatal(err)
		}
		if err := DecodeRequest(reqBuf, new(DetectRequest)); err != nil {
			b.Fatal(err)
		}
		if respBuf, err = AppendResponse(respBuf[:0], req.Op, resp); err != nil {
			b.Fatal(err)
		}
		if err := DecodeResponse(respBuf, req.Op, new(DetectResponse)); err != nil {
			b.Fatal(err)
		}
	}
}
