// Package routing is the replica-aware serving plane between the cluster
// runtime and the transport: a tier is no longer one address but a
// ReplicaSet — N detection-service replicas behind one Remote-shaped
// endpoint, with health-checked membership, a pluggable routing policy,
// failover under a bounded retry budget, and an admission cap that sheds
// excess load instead of queueing it unboundedly.
//
// The failure taxonomy stays the transport's: every routing-level refusal
// (retry budget exhausted, admission cap hit, no replica reachable) wraps
// transport.ErrRemote, so callers that already branch on the
// ErrRemote/ErrDeadline taxonomy need no new cases. Connection-level
// failures (transport.ErrConn) additionally mark the replica unhealthy and
// trigger failover; application-level errors and deadline sheds do not —
// the replica answered, so it is alive. Busy refusals (transport.ErrBusy,
// a scheduling server's explicit backpressure) sit in between: the request
// fails over to a replica with room, but the busy one stays healthy — no
// expel/readmit churn and no failure count, just a busy tally.
package routing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// ErrShed marks a request refused at admission because the set already has
// MaxInFlight requests in flight. Shedding at the door keeps overload from
// turning into an unbounded queue; callers see a fast, labelled failure
// (wrapping transport.ErrRemote) instead of a slow timeout.
var ErrShed = errors.New("routing: admission cap reached; request shed")

// ErrExhausted marks a request that failed on every replica the retry
// budget allowed. It wraps transport.ErrRemote (via the last attempt's
// error) so taxonomy mapping is unchanged.
var ErrExhausted = errors.New("routing: retry budget exhausted")

// Config parameterises a ReplicaSet.
type Config struct {
	// Addrs are the replica addresses of one tier (≥ 1). At least one must
	// be dialable when New runs; the rest may join later — undialable
	// replicas start unhealthy and are re-probed by the health checker and
	// by failover attempts.
	Addrs []string
	// Dial is applied to every connection (injected one-way delay, serial
	// mode).
	Dial transport.DialOptions
	// PoolSize is the number of pipelined connections per replica (< 1
	// means 1).
	PoolSize int
	// Policy picks the replica per request; nil means RoundRobin.
	Policy Policy
	// Retries is how many additional attempts a failed request gets on
	// other replicas (< 0 means 0; default DefaultRetries when zero-valued
	// via New's Config literal — set NoRetries to force 0).
	Retries int
	// NoRetries forces a zero retry budget (distinguishing "unset" from
	// "explicitly none" in a zero-valued Config field).
	NoRetries bool
	// MaxInFlight caps the requests the whole set will carry concurrently;
	// admission beyond it fails fast with ErrShed. 0 means unbounded.
	MaxInFlight int
	// HealthInterval is the period of the background health checker; 0
	// disables it (health still updates from request outcomes).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe end to end, any redial
	// included (default 2 s). A probe that overruns it counts as down.
	// Add's synchronous dial is bounded by the same budget.
	HealthTimeout time.Duration
	// Resolver, if set, is the set's external membership source: it is
	// polled once per HealthInterval tick (so it needs HealthInterval > 0
	// to have any effect) and the membership is reconciled to exactly the
	// addresses it returns, via the same Add/Remove path a caller would
	// use. Reconciliation is best-effort per tick — an undialable new
	// address is retried on the next tick.
	Resolver func() []string
	// DrainTimeout bounds how long Remove waits for a draining replica's
	// in-flight requests before force-closing its pool (default 30 s).
	DrainTimeout time.Duration
}

// DefaultRetries is the retry budget when Config.Retries is unset: two
// failovers, so a request survives losing two replicas mid-flight.
const DefaultRetries = 2

// svcWindow is how many recent service times a replica's rolling
// latency window keeps — enough for a stable p99 without unbounded
// memory on a long-lived set.
const svcWindow = 128

// replica is one member of the set.
type replica struct {
	addr string

	mu      sync.Mutex
	pool    *transport.Pool // nil until first successful dial
	dialing bool            // a (re)dial is in flight, outside the lock
	dead    bool            // set by closePool; ensurePool refuses afterwards

	healthy  atomic.Bool
	probing  atomic.Bool // a health probe (possibly a slow redial) is running
	removed  atomic.Bool // Remove took it out of the rotation; no new work, no churn counting
	inflight atomic.Int64
	requests atomic.Uint64
	failures atomic.Uint64
	expels   atomic.Uint64
	readmits atomic.Uint64

	// busy counts requests this set routed here that the replica's
	// scheduler refused with the busy code — backpressure, not failure, so
	// it is tracked apart from failures and never touches health.
	busy atomic.Uint64
	// queueDepth and peerCanceled are the replica's server-side backlog as
	// of the last health probe (PingStatus piggyback); zero for replicas
	// without a scheduler.
	queueDepth   atomic.Int64
	peerCanceled atomic.Uint64

	// Rolling window of the last svcWindow successful request durations
	// (client-observed wall clock, ms) — the per-replica load signal an
	// autoscaler's collector scrapes alongside the in-flight count.
	svcMu sync.Mutex
	svc   [svcWindow]float64
	svcN  uint64 // total recorded; ring index is svcN % svcWindow
}

// recordService folds one successful request's duration into the rolling
// latency window.
func (r *replica) recordService(ms float64) {
	r.svcMu.Lock()
	r.svc[r.svcN%svcWindow] = ms
	r.svcN++
	r.svcMu.Unlock()
}

// servicePercentiles returns the rolling p50 and p99 service time, or
// zeros before the first completed request.
func (r *replica) servicePercentiles() (p50, p99 float64) {
	r.svcMu.Lock()
	n := int(r.svcN)
	if n > svcWindow {
		n = svcWindow
	}
	vals := make([]float64, n)
	copy(vals, r.svc[:n])
	r.svcMu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(vals)
	rank := func(p float64) float64 {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		return vals[idx]
	}
	return rank(50), rank(99)
}

// markHealthy records the replica as answering, counting the transition
// as a readmission when it was previously expelled (a late first join —
// a replica that was unreachable at New and came up afterwards — counts
// too: it entered the rotation after being down).
func (r *replica) markHealthy() {
	if r.healthy.CompareAndSwap(false, true) {
		r.readmits.Add(1)
	}
}

// markUnhealthy records the replica as unreachable, counting the
// transition as an expulsion. Repeated failures while already expelled
// count once — the counters track membership churn, not error volume
// (failures tracks that).
func (r *replica) markUnhealthy() {
	if r.healthy.CompareAndSwap(true, false) {
		r.expels.Add(1)
	}
}

// ensurePool returns the replica's connection pool, dialing it on first
// use (and after a failed startup) bounded by ctx. The pool itself
// self-heals individual connections, so once created it is kept until
// closePool. The dial runs outside r.mu with a single-flight guard:
// concurrent requests landing on an undialed replica don't serialize
// behind each other's dial attempts — the one dialer proceeds, everyone
// else gets an immediate connection-classified refusal and fails over to
// another replica. The dead flag is re-checked after the dial, so a
// request racing Close can never strand a freshly dialed pool.
func (r *replica) ensurePool(ctx context.Context, opt transport.DialOptions, size int) (*transport.Pool, error) {
	r.mu.Lock()
	if r.dead {
		r.mu.Unlock()
		return nil, fmt.Errorf("routing: replica %s: set is closed (%w)", r.addr, transport.ErrRemote)
	}
	if r.pool != nil {
		p := r.pool
		r.mu.Unlock()
		return p, nil
	}
	if r.dialing {
		r.mu.Unlock()
		return nil, fmt.Errorf("routing: replica %s is being redialed (%w (%w))",
			r.addr, transport.ErrConn, transport.ErrRemote)
	}
	r.dialing = true
	r.mu.Unlock()
	p, err := transport.DialPoolContext(ctx, r.addr, opt, size)
	r.mu.Lock()
	r.dialing = false
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	if r.dead {
		r.mu.Unlock()
		p.Close()
		return nil, fmt.Errorf("routing: replica %s: set is closed (%w)", r.addr, transport.ErrRemote)
	}
	r.pool = p
	r.mu.Unlock()
	return p, nil
}

func (r *replica) closePool() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dead = true
	if r.pool != nil {
		r.pool.Close()
		r.pool = nil
	}
}

// ReplicaSet fans one tier's traffic across N replicas. It satisfies the
// cluster runtime's Remote and BatchRemote interfaces, so a Device (or a
// Session) pointed at a ReplicaSet gets failover and load-aware routing
// without knowing either exists. Safe for concurrent use.
//
// Membership is dynamic: Add and Remove grow and shrink the set while
// requests are in flight (Remove drains — new work stops routing there,
// in-flight requests finish, then the pool closes), and Resolve reconciles
// the membership declaratively, so tiers scale without sessions reopening.
type ReplicaSet struct {
	cfg      Config
	policy   Policy
	retries  int
	poolSize int

	// memMu guards the membership slice, which is copy-on-write: Add,
	// Remove and Resolve install a fresh slice, so the snapshot members()
	// hands a request stays valid (and index-stable) for that request's
	// whole failover loop no matter how membership churns underneath.
	memMu    sync.RWMutex
	replicas []*replica

	total  atomic.Int64 // in-flight across the whole set, for admission
	shed   atomic.Uint64
	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// members snapshots the current membership. The returned slice is
// immutable — membership ops replace it rather than mutate it.
func (s *ReplicaSet) members() []*replica {
	s.memMu.RLock()
	defer s.memMu.RUnlock()
	return s.replicas
}

// New dials a replica set. At least one replica must be reachable;
// unreachable ones start unhealthy and rejoin when a health probe or a
// failover attempt reaches them.
func New(cfg Config) (*ReplicaSet, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("routing: a replica set needs at least one address")
	}
	s := &ReplicaSet{
		cfg:      cfg,
		policy:   cfg.Policy,
		retries:  cfg.Retries,
		poolSize: cfg.PoolSize,
		stop:     make(chan struct{}),
	}
	if s.policy == nil {
		s.policy = RoundRobin()
	}
	if c, ok := s.policy.(Cloner); ok {
		// Stateful policies are cloned per set, so one configured value
		// fanned out across tiers doesn't interleave cursor/RNG state.
		s.policy = c.ClonePolicy()
	}
	switch {
	case cfg.NoRetries || s.retries < 0:
		s.retries = 0
	case s.retries == 0:
		s.retries = DefaultRetries
	}
	if s.poolSize < 1 {
		s.poolSize = 1
	}
	// Dial the replicas concurrently: set construction costs the slowest
	// single dial, not the sum — one black-holed address must not stall
	// startup for the reachable fleet.
	for _, addr := range cfg.Addrs {
		s.replicas = append(s.replicas, &replica{addr: addr})
	}
	dialErrs := make([]error, len(s.replicas))
	var dialWG sync.WaitGroup
	for i, r := range s.replicas {
		dialWG.Add(1)
		go func(i int, r *replica) {
			defer dialWG.Done()
			if _, err := r.ensurePool(context.Background(), cfg.Dial, s.poolSize); err != nil {
				dialErrs[i] = err
				return
			}
			r.healthy.Store(true)
		}(i, r)
	}
	dialWG.Wait()
	var lastErr error
	reachable := 0
	for i := range s.replicas {
		if dialErrs[i] != nil {
			lastErr = dialErrs[i]
		} else {
			reachable++
		}
	}
	if reachable == 0 {
		s.Close()
		return nil, fmt.Errorf("routing: no replica reachable: %w", lastErr)
	}
	if cfg.HealthInterval > 0 {
		s.wg.Add(1)
		go s.healthLoop()
	}
	return s, nil
}

// healthLoop periodically probes every replica with the transport ping,
// reviving members that recovered and expelling ones that stopped
// answering — so routing converges on the live membership even when no
// request happens to touch a broken replica. When a Resolver is
// configured, each tick first reconciles the membership to the resolver's
// address list, then probes what remains.
func (s *ReplicaSet) healthLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if f := s.cfg.Resolver; f != nil {
				// Best-effort: a failed add or a refused remove is retried
				// on the next tick; health probing must not stall on it.
				_ = s.Resolve(f()...)
			}
			s.CheckHealth()
		}
	}
}

// CheckHealth probes every replica once, concurrently, and updates their
// health. Exposed so callers (and tests) can force a probe between ticks.
// Every probe — redial included — is bounded by HealthTimeout, so one
// black-holed replica (TCP accepts, then silence: a dial can hang for the
// transport's own timeouts) cannot stall the probe cadence for the whole
// set: the overrunning probe counts as down and keeps running off-ticker,
// and no new probe starts for that replica until it resolves.
func (s *ReplicaSet) CheckHealth() {
	timeout := s.cfg.HealthTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, r := range s.members() {
		if !r.probing.CompareAndSwap(false, true) {
			continue // the previous probe is still stuck in a slow dial
		}
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			verdict := make(chan bool, 1)
			go func() {
				defer r.probing.Store(false)
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				pool, err := r.ensurePool(ctx, s.cfg.Dial, s.poolSize)
				if err != nil {
					verdict <- false
					return
				}
				st, err := pool.PingStatus(ctx)
				if err == nil && st.Scheduled {
					// The probe doubles as a backlog scrape: queue depth
					// and cumulative server-side cancels ride the hello
					// response from scheduling replicas.
					r.queueDepth.Store(int64(st.QueueDepth))
					r.peerCanceled.Store(st.Canceled)
				}
				verdict <- err == nil
			}()
			select {
			case ok := <-verdict:
				if ok {
					r.markHealthy()
				} else {
					r.markUnhealthy()
				}
			case <-time.After(timeout):
				// The probe overran its budget; treat the replica as down.
				// Its late verdict is discarded — a later in-budget probe
				// (or a successful request) readmits the replica.
				r.markUnhealthy()
			}
		}(r)
	}
	wg.Wait()
}

// choose runs the routing policy over the usable candidates from reps
// (the request's membership snapshot): healthy replicas not yet tried
// this request, then healthy ones, then untried ones, then everyone — a
// request only gives up when the budget does. Returns the chosen
// replica's index within reps.
func (s *ReplicaSet) choose(reps []*replica, tried []bool) int {
	idx := make([]int, 0, len(reps))
	pick := func(healthyOnly, skipTried bool) []int {
		idx = idx[:0]
		for i, r := range reps {
			if r.removed.Load() {
				continue // drained out from under the snapshot
			}
			if healthyOnly && !r.healthy.Load() {
				continue
			}
			if skipTried && tried[i] {
				continue
			}
			idx = append(idx, i)
		}
		return idx
	}
	candidates := pick(true, true)
	if len(candidates) == 0 {
		candidates = pick(true, false)
	}
	if len(candidates) == 0 {
		candidates = pick(false, true)
	}
	if len(candidates) == 0 {
		candidates = pick(false, false)
	}
	if len(candidates) == 0 {
		// Every snapshot member was removed mid-request; the caller's next
		// attempt (or the error path) handles it.
		return -1
	}
	inflight := make([]int, len(candidates))
	for k, i := range candidates {
		inflight[k] = int(reps[i].inflight.Load())
	}
	k := s.policy.Pick(inflight)
	if k < 0 || k >= len(candidates) {
		k = 0
	}
	return candidates[k]
}

// retryable reports whether a failed attempt should fail over to another
// replica: connection-level failures (transport.ErrConn — the request
// never got a usable answer) and busy refusals (transport.ErrBusy — the
// replica is healthy but at capacity; another replica may have room) are.
// Application errors pass through unretried (the replica answered;
// re-running a deterministic refusal elsewhere multiplies load for the
// same answer), as do cancellation and deadline errors, local or shed by
// a server, preserving the error taxonomy.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, transport.ErrConn) || errors.Is(err, transport.ErrBusy)
}

// do runs one request through admission, policy choice, and the failover
// loop.
func (s *ReplicaSet) do(ctx context.Context, call func(*transport.Pool) error) error {
	if s.closed.Load() {
		return fmt.Errorf("routing: replica set is closed (%w)", transport.ErrRemote)
	}
	if limit := s.cfg.MaxInFlight; limit > 0 {
		if s.total.Add(1) > int64(limit) {
			s.total.Add(-1)
			s.shed.Add(1)
			return fmt.Errorf("%w (%d in flight) (%w)", ErrShed, limit, transport.ErrRemote)
		}
	} else {
		s.total.Add(1)
	}
	defer s.total.Add(-1)

	// The request works over a membership snapshot: replicas added after
	// this point serve later requests, replicas removed mid-request are
	// skipped by choose via their removed flag.
	reps := s.members()
	attempts := s.retries + 1
	tried := make([]bool, len(reps))
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			// The caller gave up between attempts: their ctx error is the
			// answer (errors.Is must see it), with the last attempt's
			// failure kept as annotation only.
			if lastErr != nil {
				return fmt.Errorf("routing: request abandoned after %d attempt(s): %w (last: %v)", a, err, lastErr)
			}
			return err
		}
		i := s.choose(reps, tried)
		if i < 0 {
			// The whole snapshot drained away mid-request; retry over the
			// current membership.
			reps = s.members()
			tried = make([]bool, len(reps))
			if i = s.choose(reps, tried); i < 0 {
				lastErr = fmt.Errorf("routing: no replica in rotation (%w)", transport.ErrRemote)
				continue
			}
		}
		tried[i] = true
		r := reps[i]
		pool, err := r.ensurePool(ctx, s.cfg.Dial, s.poolSize)
		if err != nil {
			if r.removed.Load() {
				// Lost the race with Remove: not a health event, just a
				// stale snapshot — fail over without counting churn.
				lastErr = fmt.Errorf("routing: replica %s left the set: %w", r.addr, err)
				continue
			}
			r.markUnhealthy()
			r.failures.Add(1)
			lastErr = fmt.Errorf("routing: replica %s: %w", r.addr, err)
			continue
		}
		r.requests.Add(1)
		r.inflight.Add(1)
		began := time.Now()
		err = call(pool)
		elapsed := time.Since(began)
		r.inflight.Add(-1)
		if err == nil {
			r.recordService(float64(elapsed) / float64(time.Millisecond))
			r.markHealthy()
			return nil
		}
		if errors.Is(err, transport.ErrBusy) {
			// Busy is backpressure, not failure: the replica answered
			// promptly that it has no capacity. It stays healthy (no expel
			// churn) and the refusal is tallied apart from failures — the
			// failover below routes the request to a replica with room.
			r.busy.Add(1)
		} else {
			r.failures.Add(1)
		}
		lastErr = fmt.Errorf("routing: replica %s: %w", r.addr, err)
		if errors.Is(err, transport.ErrConn) && !r.removed.Load() {
			// The connection died — this replica is gone until a probe or a
			// successful attempt proves otherwise. (A replica being drained
			// by Remove is exempt: its pool closing is membership, not
			// failure.)
			r.markUnhealthy()
		}
		if !retryable(ctx, err) {
			return lastErr
		}
	}
	return fmt.Errorf("%w after %d attempt(s): %w", ErrExhausted, attempts, lastErr)
}

// DetectContext routes one window, failing over across replicas within the
// retry budget (see package doc for the error taxonomy).
func (s *ReplicaSet) DetectContext(ctx context.Context, frames [][]float64) (transport.DetectResult, error) {
	var res transport.DetectResult
	err := s.do(ctx, func(p *transport.Pool) error {
		var err error
		res, err = p.DetectContext(ctx, frames)
		return err
	})
	return res, err
}

// Detect is DetectContext with context.Background().
func (s *ReplicaSet) Detect(frames [][]float64) (transport.DetectResult, error) {
	return s.DetectContext(context.Background(), frames)
}

// DetectBatchContext routes one batch, failing over across replicas within
// the retry budget. A batch retries as a unit: verdict order and the
// batch-shared network accounting are preserved across a failover.
func (s *ReplicaSet) DetectBatchContext(ctx context.Context, windows [][][]float64) (transport.BatchResult, error) {
	var res transport.BatchResult
	err := s.do(ctx, func(p *transport.Pool) error {
		var err error
		res, err = p.DetectBatchContext(ctx, windows)
		return err
	})
	return res, err
}

// DetectBatch is DetectBatchContext with context.Background().
func (s *ReplicaSet) DetectBatch(windows [][][]float64) (transport.BatchResult, error) {
	return s.DetectBatchContext(context.Background(), windows)
}

// FetchModelContext fetches the model snapshot from any healthy replica,
// chunk by chunk, so a replica dying mid-transfer costs one failed chunk,
// not the transfer: the next chunk resumes at the same byte offset on
// another replica serving the same content-addressed version. It is
// RefreshModelContext with no base snapshot.
func (s *ReplicaSet) FetchModelContext(ctx context.Context) (*transport.ModelSnapshot, error) {
	snap, _, err := s.RefreshModelContext(ctx, nil)
	return snap, err
}

// RefreshModelContext is the version-aware fetch (transport.RefreshModel)
// across the replica set: the version probe and every chunk ride the set's
// ordinary failover path, so the transfer resumes on another replica if
// the serving one dies mid-stream.
func (s *ReplicaSet) RefreshModelContext(ctx context.Context, base *transport.ModelSnapshot) (*transport.ModelSnapshot, bool, error) {
	probe := func(ctx context.Context) (*transport.ModelManifest, error) {
		var man *transport.ModelManifest
		err := s.do(ctx, func(p *transport.Pool) error {
			var err error
			man, err = p.ModelManifestContext(ctx)
			return err
		})
		return man, err
	}
	chunk := func(ctx context.Context, offset, size int, want []string, wantDelta bool) (transport.ModelChunk, error) {
		var ch transport.ModelChunk
		err := s.do(ctx, func(p *transport.Pool) error {
			var err error
			ch, err = p.ModelChunkContext(ctx, offset, size, want, wantDelta)
			return err
		})
		return ch, err
	}
	return transport.RefreshModel(ctx, base, probe, chunk)
}

// PolicyName returns the routing policy's name.
func (s *ReplicaSet) PolicyName() string { return s.policy.Name() }

// Shed returns how many requests admission control has refused.
func (s *ReplicaSet) Shed() uint64 { return s.shed.Load() }

// Size returns the current number of replicas in the rotation.
func (s *ReplicaSet) Size() int { return len(s.members()) }

// Addrs returns the current membership's addresses, in rotation order.
func (s *ReplicaSet) Addrs() []string {
	reps := s.members()
	out := make([]string, len(reps))
	for i, r := range reps {
		out[i] = r.addr
	}
	return out
}

// Add dials addr and admits it to the rotation. The dial is synchronous
// and bounded by HealthTimeout, so a successfully added replica starts
// receiving traffic immediately — the very next request can route to it.
// An undialable address is not added (retry once the replica is up, or
// let a Resolver tick do it). Joining is membership, not recovery: Add
// does not count a readmission, mirroring New's initial dials.
func (s *ReplicaSet) Add(addr string) error {
	if s.closed.Load() {
		return fmt.Errorf("routing: replica set is closed (%w)", transport.ErrRemote)
	}
	timeout := s.cfg.HealthTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	r := &replica{addr: addr}
	pool, err := transport.DialPoolContext(ctx, addr, s.cfg.Dial, s.poolSize)
	if err != nil {
		return fmt.Errorf("routing: add replica %s: %w", addr, err)
	}
	r.pool = pool
	r.healthy.Store(true)
	s.memMu.Lock()
	defer s.memMu.Unlock()
	if s.closed.Load() {
		pool.Close()
		return fmt.Errorf("routing: replica set is closed (%w)", transport.ErrRemote)
	}
	for _, m := range s.replicas {
		if m.addr == addr {
			pool.Close()
			return fmt.Errorf("routing: replica %s is already a member", addr)
		}
	}
	next := make([]*replica, len(s.replicas)+1)
	copy(next, s.replicas)
	next[len(s.replicas)] = r
	s.replicas = next
	return nil
}

// Remove takes addr out of the rotation with drain semantics: new work
// stops routing to it immediately, its in-flight requests are given up to
// DrainTimeout to finish, and only then is its connection pool closed.
// Returns once the drain completes (or reports a forced close when the
// budget expires). Removing the last replica is refused — a tier cannot
// scale to zero while sessions hold it. Leaving is membership, not
// failure: Remove counts no expulsion.
func (s *ReplicaSet) Remove(addr string) error {
	s.memMu.Lock()
	idx := -1
	for i, m := range s.replicas {
		if m.addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		s.memMu.Unlock()
		return fmt.Errorf("routing: replica %s is not a member", addr)
	}
	if len(s.replicas) == 1 {
		s.memMu.Unlock()
		return fmt.Errorf("routing: refusing to remove %s, the last replica", addr)
	}
	r := s.replicas[idx]
	next := make([]*replica, 0, len(s.replicas)-1)
	next = append(next, s.replicas[:idx]...)
	next = append(next, s.replicas[idx+1:]...)
	s.replicas = next
	s.memMu.Unlock()

	r.removed.Store(true)
	timeout := s.cfg.DrainTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for r.inflight.Load() > 0 {
		if time.Now().After(deadline) || s.closed.Load() {
			r.closePool()
			return fmt.Errorf("routing: replica %s force-closed with %d request(s) still in flight after %v drain budget",
				addr, r.inflight.Load(), timeout)
		}
		time.Sleep(time.Millisecond)
	}
	r.closePool()
	return nil
}

// Resolve reconciles the membership to exactly addrs: missing addresses
// are added, extra members are drained and removed, survivors keep their
// rotation order and counters. Errors (an undialable new address, a
// refused last-replica removal) are joined and returned, but
// reconciliation continues past them — the next Resolve converges
// further. This is the callback surface an external control plane (an
// autoscaler's actuator, a service-discovery watcher via Config.Resolver)
// drives membership through without sessions reopening.
func (s *ReplicaSet) Resolve(addrs ...string) error {
	want := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		want[a] = true
	}
	have := make(map[string]bool)
	var errs []error
	for _, a := range s.Addrs() {
		have[a] = true
		if !want[a] {
			if err := s.Remove(a); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, a := range addrs {
		if !have[a] {
			if err := s.Add(a); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// ReplicaStatus is one replica's observable state.
type ReplicaStatus struct {
	Addr string
	// Healthy is the routing view: false once a connection-level failure or
	// a failed probe expelled the replica, true again after it answers.
	Healthy bool
	// InFlight is the requests currently riding this replica.
	InFlight int
	// Requests and Failures count attempts routed here and how many failed.
	Requests, Failures uint64
	// Busy counts attempts the replica's server-side scheduler refused
	// with the busy code — backpressure rerouted elsewhere, kept apart
	// from Failures because the replica answered and stayed healthy.
	Busy uint64
	// QueueDepth is the replica's server-side admission-queue occupancy as
	// of the last health probe, and Canceled its cumulative count of
	// requests withdrawn by client cancel frames — both zero for replicas
	// without a server-side scheduler (or before the first probe). This is
	// the real-backlog signal autoscaling collectors read instead of
	// inferring load from in-flight counts alone.
	QueueDepth int
	Canceled   uint64
	// Expels counts healthy→unhealthy transitions (the replica was thrown
	// out of the rotation by a connection failure or a failed probe);
	// Readmits counts the reverse (it answered again and rejoined). The
	// pair is the membership-churn signature a flapping replica leaves,
	// which scenario validation asserts on.
	Expels, Readmits uint64
	// EvictedConns is how many broken connections the replica's pool has
	// replaced.
	EvictedConns uint64
	// ServiceP50Ms and ServiceP99Ms are rolling percentiles over the
	// replica's last 128 successful request durations (client-observed
	// wall clock, injected link delay included) — zero before the first
	// completed request. Together with InFlight they are the load signals
	// an autoscaler's collector scrapes.
	ServiceP50Ms, ServiceP99Ms float64
}

// Status snapshots every replica currently in the rotation, in membership
// order (initial Config.Addrs order, later Adds appended; removed
// replicas no longer appear).
func (s *ReplicaSet) Status() []ReplicaStatus {
	reps := s.members()
	out := make([]ReplicaStatus, len(reps))
	for i, r := range reps {
		st := ReplicaStatus{
			Addr:       r.addr,
			Healthy:    r.healthy.Load(),
			InFlight:   int(r.inflight.Load()),
			Requests:   r.requests.Load(),
			Failures:   r.failures.Load(),
			Expels:     r.expels.Load(),
			Readmits:   r.readmits.Load(),
			Busy:       r.busy.Load(),
			QueueDepth: int(r.queueDepth.Load()),
			Canceled:   r.peerCanceled.Load(),
		}
		st.ServiceP50Ms, st.ServiceP99Ms = r.servicePercentiles()
		r.mu.Lock()
		if r.pool != nil {
			st.EvictedConns = r.pool.Evicted()
		}
		r.mu.Unlock()
		out[i] = st
	}
	return out
}

// Close stops the health checker and closes every replica's connections.
// Close is idempotent.
func (s *ReplicaSet) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stop)
	s.wg.Wait()
	for _, r := range s.members() {
		r.closePool()
	}
	return nil
}
