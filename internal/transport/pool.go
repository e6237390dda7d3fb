package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a fixed-size, self-healing pool of pipelined clients to one
// server. Requests round-robin across connections, spreading codec work and
// TCP head-of-line blocking over several sockets while each socket still
// pipelines its own in-flight requests. A connection that dies is evicted
// the moment a call fails on it and redialed lazily on a later pick — one
// dead socket costs the requests that were riding it, not every Nth request
// forever.
type Pool struct {
	addr string
	opt  DialOptions
	next atomic.Uint64

	mu      sync.Mutex
	slots   []*Client // nil = evicted, redial on next pick
	dialing []bool    // slot has a redial in progress (outside the lock)
	closed  bool
	evicted uint64 // connections evicted since dial, for observability
}

// DialPool opens size connections to addr, each with the same injected
// one-way delay.
func DialPool(addr string, oneWay time.Duration, size int) (*Pool, error) {
	return DialPoolWith(addr, DialOptions{OneWay: oneWay}, size)
}

// DialPoolWith is DialPool with full per-connection options.
func DialPoolWith(addr string, opt DialOptions, size int) (*Pool, error) {
	return DialPoolContext(context.Background(), addr, opt, size)
}

// DialPoolContext is DialPoolWith bounded by ctx. The connections are
// dialed concurrently, so pool setup costs one dial's latency, not the
// sum — and against an unreachable server it fails after one timeout.
func DialPoolContext(ctx context.Context, addr string, opt DialOptions, size int) (*Pool, error) {
	if size < 1 {
		return nil, fmt.Errorf("transport: pool size %d < 1", size)
	}
	p := &Pool{addr: addr, opt: opt, slots: make([]*Client, size), dialing: make([]bool, size)}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i := range p.slots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialContext(ctx, addr, opt)
			if err != nil {
				errs[i] = err
				return
			}
			p.slots[i] = c
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// Size returns the number of pooled connection slots.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}

// Evicted returns how many broken connections the pool has evicted since
// it was dialed.
func (p *Pool) Evicted() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evicted
}

// pick returns a usable client, starting at the round-robin cursor and
// scanning forward: broken clients are evicted and their slots redialed in
// place. The dial itself (TCP connect + version check, seconds in the
// worst case) runs outside the pool lock — bounded by the requesting
// caller's ctx — so other callers keep flowing through the healthy slots;
// a per-slot flag keeps racing callers from stampeding the server with
// duplicate dials for the same slot. Only when every slot is broken and
// undialable (or mid-redial by someone else) does pick give up.
func (p *Pool) pick(ctx context.Context) (*Client, error) {
	p.mu.Lock()
	n := len(p.slots)
	start := int(p.next.Add(1) % uint64(n))
	var lastErr error
	for k := 0; k < n; k++ {
		if p.closed {
			p.mu.Unlock()
			return nil, fmt.Errorf("transport: pool is closed (%w)", connError())
		}
		i := (start + k) % n
		c := p.slots[i]
		if c != nil && !c.Broken() {
			p.mu.Unlock()
			return c, nil
		}
		if c != nil {
			c.Close()
			p.slots[i] = nil
			p.evicted++
		}
		if p.dialing[i] {
			continue // another caller is already healing this slot
		}
		p.dialing[i] = true
		p.mu.Unlock()
		fresh, err := DialContext(ctx, p.addr, p.opt) // no lock held across the dial
		p.mu.Lock()
		p.dialing[i] = false
		if err != nil {
			lastErr = err
			continue
		}
		if p.closed {
			p.mu.Unlock()
			fresh.Close()
			return nil, fmt.Errorf("transport: pool is closed (%w)", connError())
		}
		p.slots[i] = fresh
		p.mu.Unlock()
		return fresh, nil
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("transport: pool is closed (%w)", connError())
	}
	if lastErr == nil {
		// Every broken slot is being redialed by other callers; this
		// request has nothing to ride. Shed it as a connection failure so
		// routing layers fail over instead of queueing behind the dials.
		return nil, fmt.Errorf("transport: every connection to %s is redialing (%w)", p.addr, connError())
	}
	return nil, fmt.Errorf("transport: no usable connection to %s: %w", p.addr, lastErr)
}

// pickIdle returns the healthy pooled client with the shallowest pipeline
// (fewest calls in flight), falling back to pick when no slot is alive.
// Streaming model fetches ride it so a multi-chunk transfer never queues
// behind a connection whose pipeline is deep with detection work — the
// round-robin cursor is left untouched, so detection traffic keeps
// spreading over every socket including the one the fetch chose.
func (p *Pool) pickIdle(ctx context.Context) (*Client, error) {
	p.mu.Lock()
	var best *Client
	depth := 0
	if !p.closed {
		for _, c := range p.slots {
			if c == nil || c.Broken() {
				continue
			}
			if d := c.InFlight(); best == nil || d < depth {
				best, depth = c, d
			}
		}
	}
	p.mu.Unlock()
	if best != nil {
		return best, nil
	}
	return p.pick(ctx) // nothing healthy: heal a slot (or report why not)
}

// evictOnErr drops a client the caller just failed on when the failure was
// connection-level, so the next pick redials instead of round-robining back
// onto a dead socket. The call's own error counts even before the read
// loop notices the death — a failed write proves the connection is gone.
func (p *Pool) evictOnErr(c *Client, err error) {
	if c == nil || (!errors.Is(err, ErrConn) && !c.Broken()) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range p.slots {
		if s == c {
			c.Close()
			p.slots[i] = nil
			p.evicted++
			return
		}
	}
}

// Detect runs one detection on the next pooled connection.
func (p *Pool) Detect(frames [][]float64) (DetectResult, error) {
	return p.DetectContext(context.Background(), frames)
}

// DetectContext runs one cancellable detection on the next pooled
// connection (see Client.DetectContext).
func (p *Pool) DetectContext(ctx context.Context, frames [][]float64) (DetectResult, error) {
	c, err := p.pick(ctx)
	if err != nil {
		return DetectResult{}, err
	}
	res, err := c.DetectContext(ctx, frames)
	if err != nil {
		p.evictOnErr(c, err)
	}
	return res, err
}

// DetectBatch ships one batch on the next pooled connection.
func (p *Pool) DetectBatch(windows [][][]float64) (BatchResult, error) {
	return p.DetectBatchContext(context.Background(), windows)
}

// DetectBatchContext ships one cancellable batch on the next pooled
// connection (see Client.DetectBatchContext).
func (p *Pool) DetectBatchContext(ctx context.Context, windows [][][]float64) (BatchResult, error) {
	c, err := p.pick(ctx)
	if err != nil {
		return BatchResult{}, err
	}
	res, err := c.DetectBatchContext(ctx, windows)
	if err != nil {
		p.evictOnErr(c, err)
	}
	return res, err
}

// FetchModel fetches the server's model snapshot over one pooled connection.
func (p *Pool) FetchModel() (*ModelSnapshot, error) {
	return p.FetchModelContext(context.Background())
}

// FetchModelContext is FetchModel with cancellation: RefreshModelContext
// with no base snapshot.
func (p *Pool) FetchModelContext(ctx context.Context) (*ModelSnapshot, error) {
	snap, _, err := p.RefreshModelContext(ctx, nil)
	return snap, err
}

// RefreshModelContext is the version-aware fetch (see RefreshModel) over
// the pool: every probe and chunk rides the idlest pooled connection, so
// provisioning never queues behind a deep detection pipeline.
func (p *Pool) RefreshModelContext(ctx context.Context, base *ModelSnapshot) (*ModelSnapshot, bool, error) {
	return RefreshModel(ctx, base, p.ModelManifestContext, p.ModelChunkContext)
}

// ModelManifestContext probes the server's model content address over the
// idlest pooled connection (see Client.ModelManifestContext).
func (p *Pool) ModelManifestContext(ctx context.Context) (*ModelManifest, error) {
	c, err := p.pickIdle(ctx)
	if err != nil {
		return nil, err
	}
	m, err := c.ModelManifestContext(ctx)
	if err != nil {
		p.evictOnErr(c, err)
	}
	return m, err
}

// ModelChunkContext fetches one CRC-verified slice of the server's
// canonical model payload over the idlest pooled connection (see
// Client.ModelChunkContext). Routing layers drive their own chunk loop
// through it so a transfer can resume on another replica mid-stream.
func (p *Pool) ModelChunkContext(ctx context.Context, offset, size int, want []string, wantDelta bool) (ModelChunk, error) {
	c, err := p.pickIdle(ctx)
	if err != nil {
		return ModelChunk{}, err
	}
	ch, err := c.ModelChunkContext(ctx, offset, size, want, wantDelta)
	if err != nil {
		p.evictOnErr(c, err)
	}
	return ch, err
}

// Ping verifies the server is reachable and answering over one pooled
// connection, redialing evicted slots on the way — so a Ping after an
// outage both probes the server and heals the pool.
func (p *Pool) Ping(ctx context.Context) error {
	_, err := p.PingStatus(ctx)
	return err
}

// PingStatus is Ping returning the server's scheduling backlog (see
// Client.PingStatus): health probes double as backlog collectors for
// load-aware routing and autoscaling.
func (p *Pool) PingStatus(ctx context.Context) (PeerStatus, error) {
	c, err := p.pick(ctx)
	if err != nil {
		return PeerStatus{}, err
	}
	st, err := c.PingStatus(ctx)
	if err != nil {
		p.evictOnErr(c, err)
		return PeerStatus{}, err
	}
	return st, nil
}

// Close closes every pooled connection, returning the first error.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var first error
	for i, c := range p.slots {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		p.slots[i] = nil
	}
	return first
}
