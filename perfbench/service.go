package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/planir"
	"pathprof/internal/profile"
	"pathprof/internal/serve"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
	"pathprof/internal/workloads"
)

// timedStore times every durable save through the public serve.Store
// interface; the server under test sees an ordinary Store.
type timedStore struct {
	serve.Store
	mu    sync.Mutex
	saves int
	bytes int64
	busy  time.Duration
}

func (t *timedStore) Save(tenant string, data []byte) error {
	start := time.Now()
	err := t.Store.Save(tenant, data)
	d := time.Since(start)
	t.mu.Lock()
	t.saves++
	t.bytes += int64(len(data))
	t.busy += d
	t.mu.Unlock()
	return err
}

func (t *timedStore) stats() (saves int, bytes int64, busy time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.saves, t.bytes, t.busy
}

// service is one in-process profile server on a loopback listener,
// backed by a FileStore in a fresh directory (so every ack waits for a
// real fsync), plus the client-side state the phases share.
type service struct {
	dir    string
	store  *timedStore
	reg    *telemetry.Registry
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	// staged and data are the client's side of the tenant: its staged
	// program and the PP snapshot bytes every publish sends.
	staged *core.Staged
	data   []byte
}

// startService sets the service up: stage the tenant's program and
// build its snapshot, open the store, start the server, and warm the
// first plan request (which stages the program server-side).
func startService(root string) (*service, error) {
	w, ok := workloads.ByName(tenant)
	if !ok {
		return nil, fmt.Errorf("unknown tenant program %q", tenant)
	}
	staged, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		return nil, fmt.Errorf("stage %s: %w", w.Name, err)
	}
	pr, err := staged.ProfileWith("PP", instr.PP(), nil)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", w.Name, err)
	}
	s := &service{staged: staged, data: snapshot.Encode(pr.Run.Snapshot()), served: make(chan error, 1)}
	if s.dir, err = os.MkdirTemp(root, "store-"); err != nil {
		return nil, err
	}
	fs, err := serve.OpenFileStore(s.dir)
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.store = &timedStore{Store: fs}
	s.reg = telemetry.NewRegistry(1)
	s.srv, err = serve.New(serve.Config{
		Store:    s.store,
		Registry: s.reg,
		Program: func(tenant string) (string, bool) {
			w, ok := workloads.ByName(tenant)
			return w.Source, ok
		},
	})
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown(context.Background())
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	hc := newPool(1)
	defer hc.CloseIdleConnections()
	if err := s.readPlan(context.Background(), hc, "PPP"); err != nil {
		s.close()
		return nil, fmt.Errorf("warm plan request: %w", err)
	}
	return s, nil
}

// close stops the HTTP server and the committer, waits for both, and
// removes the store directory.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// newPool returns an HTTP client that uses at most conns connections.
func newPool(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// readPlan fetches the tenant's plans for one profiler and checks the
// body: it must decode as plan IR whose fingerprint matches the one
// the server declared.
func (s *service) readPlan(ctx context.Context, hc *http.Client, profiler string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/plans/"+tenant+"?profiler="+profiler, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("plans %s: status %d", profiler, resp.StatusCode)
	}
	prog, err := planir.Decode(body)
	if err != nil {
		return fmt.Errorf("plans %s: %w", profiler, err)
	}
	if got, want := fmt.Sprintf("%016x", prog.Fingerprint()), resp.Header.Get("X-PPP-Plan-Fingerprint"); got != want {
		return fmt.Errorf("plans %s: body fingerprint %s, header %s", profiler, got, want)
	}
	return nil
}

// opResult is one open-loop request as the generator saw it.
type opResult struct {
	arrival
	due, sent, done time.Time
	gotConn         time.Time // traced requests: first connection acquired
	traced          bool
	attempts        int
	err             error
}

func (r *opResult) e2e() time.Duration { return r.done.Sub(r.due) }

// openLoopResult is the fixed-rate phase's outcome.
type openLoopResult struct {
	ops []opResult
	// backlog samples the number of requests due but not finished,
	// every backlogEvery through the phase.
	backlog []int64
}

const backlogEvery = 100 * time.Millisecond

// openLoop sends the schedule's requests at their due times, whether
// or not earlier ones finished, within the workload's connection
// limit. With traceEvery > 0, every traceEvery-th publish also records
// when it got its connection, for span attribution.
func (s *service) openLoop(ctx context.Context, arrivals []arrival, seed int64, traceEvery int) openLoopResult {
	hc := newPool(conns)
	defer hc.CloseIdleConnections()
	client := &serve.Client{BaseURL: s.base, HTTP: hc, Backoff: serve.Backoff{Seed: uint64(seed)}}
	res := openLoopResult{ops: make([]opResult, len(arrivals))}
	var outstanding atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan []int64)
	go func() {
		var samples []int64
		tick := time.NewTicker(backlogEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				samples = append(samples, outstanding.Load())
			case <-stop:
				sampled <- samples
				return
			}
		}
	}()
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	pubs := 0
	for i, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		traced := false
		if a.publish {
			traced = traceEvery > 0 && pubs%traceEvery == 0
			pubs++
		}
		res.ops[i].arrival, res.ops[i].due, res.ops[i].traced = a, due, traced
		outstanding.Add(1)
		wg.Add(1)
		go func(r *opResult) {
			defer wg.Done()
			defer outstanding.Add(-1)
			r.sent = time.Now()
			rctx := ctx
			var gotConn atomic.Int64
			if r.traced {
				rctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
					GotConn: func(httptrace.GotConnInfo) { gotConn.CompareAndSwap(0, time.Now().UnixNano()) },
				})
			}
			if r.publish {
				pr, err := client.Publish(rctx, tenant, r.key, s.data)
				r.attempts, r.err = pr.Attempts, err
				var pe *serve.PublishError
				if errors.As(err, &pe) {
					r.attempts = pe.Attempts
				}
			} else {
				r.err = s.readPlan(rctx, hc, r.profiler)
			}
			r.done = time.Now()
			if ns := gotConn.Load(); ns != 0 {
				r.gotConn = time.Unix(0, ns)
			}
		}(&res.ops[i])
	}
	wg.Wait()
	close(stop)
	res.backlog = <-sampled
	return res
}

// closedLoop runs closedCallers callers for dur, each publishing its
// next snapshot as soon as the previous one is acked. It returns the
// acked keys and the ack rate: the median over consecutive windows of
// capacityWindow acks, so a burst that stalls one stretch of the phase
// moves a few windows, not the result.
func (s *service) closedLoop(ctx context.Context, dur time.Duration, seed int64) (acks, failed int, perSec float64, keys []string) {
	hc := newPool(closedCallers)
	defer hc.CloseIdleConnections()
	client := &serve.Client{BaseURL: s.base, HTTP: hc, Backoff: serve.Backoff{Seed: uint64(seed)}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var ackedAt []time.Time
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < closedCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				key := fmt.Sprintf("c%x-%d-%d", seed, c, i)
				_, err := client.Publish(ctx, tenant, key, s.data)
				mu.Lock()
				if err != nil {
					failed++
				} else {
					acks++
					keys = append(keys, key)
					ackedAt = append(ackedAt, time.Now())
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return acks, failed, windowRate(start, ackedAt, capacityWindow), keys
}

const capacityWindow = 25

// windowRate is the median rate over consecutive windows of k events
// (times in order, from start); with fewer than 3 windows it is the
// overall rate.
func windowRate(start time.Time, times []time.Time, k int) float64 {
	if len(times) == 0 {
		return 0
	}
	var rates []float64
	prev := start
	for i := k - 1; i < len(times); i += k {
		rates = append(rates, float64(k)/times[i].Sub(prev).Seconds())
		prev = times[i]
	}
	if len(rates) < 3 {
		return float64(len(times)) / times[len(times)-1].Sub(start).Seconds()
	}
	return median(rates)
}

// refold checks the service's contract the way `pppload -verify` does:
// fetch the commit log and the aggregate, refold the published
// snapshot once per committed entry, and require the server's
// fingerprint. Every acked key must appear in the log exactly once.
func (s *service) refold(ctx context.Context, acked []string) error {
	hc := newPool(1)
	defer hc.CloseIdleConnections()
	client := &serve.Client{BaseURL: s.base, HTTP: hc}
	log, err := client.FetchLog(ctx, tenant)
	if err != nil {
		return fmt.Errorf("fetch log: %w", err)
	}
	_, serverFP, err := client.Fetch(ctx, tenant)
	if err != nil {
		return fmt.Errorf("fetch aggregate: %w", err)
	}
	one, err := snapshot.Decode(s.data)
	if err != nil {
		return err
	}
	want := profile.NewSnapshot()
	seen := make(map[string]int, len(log))
	for _, e := range log {
		want.MergeSnapshot(one)
		seen[e.Key]++
	}
	if got := fmt.Sprintf("%016x", want.Fingerprint()); got != serverFP {
		return fmt.Errorf("refold of %d commits is %s, server has %s", len(log), got, serverFP)
	}
	for _, k := range acked {
		if seen[k] != 1 {
			return fmt.Errorf("acked key %s is in the commit log %d times", k, seen[k])
		}
	}
	return nil
}

// serverSpans drains the server's span ring. The ring is bounded, so
// it is drained while the phase runs; spans are keyed by trace ID.
type serverSpans struct {
	mu   sync.Mutex
	last int64
	by   map[string][]telemetry.Span
}

func (ss *serverSpans) drain(ring *telemetry.SpanRing) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.by == nil {
		ss.by = map[string][]telemetry.Span{}
	}
	for _, sp := range ring.Snapshot() {
		if sp.Seq > ss.last {
			ss.by[sp.Trace] = append(ss.by[sp.Trace], sp)
			ss.last = sp.Seq
		}
	}
}

// directTimings measures the functions behind the commit and plan
// paths by calling them on the workload's own bytes and the live
// aggregate: the median of reps calls each, in milliseconds.
func (s *service) directTimings(reps int) (map[string]float64, error) {
	agg := s.srv.Aggregate(tenant)
	if agg == nil {
		return nil, fmt.Errorf("no aggregate for %s", tenant)
	}
	aggBytes, _ := s.srv.AggregateBytes(tenant)
	one, err := snapshot.Decode(s.data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var clone *profile.Snapshot
	var plans map[string]*instr.Plan
	for _, st := range []struct {
		name      string
		prep, run func() error
	}{
		{name: "snapshot.decode_ms", run: func() (err error) { _, err = snapshot.Decode(s.data); return err }},
		{name: "snapshot.encode_ms", run: func() error { snapshot.Encode(agg); return nil }},
		// Each merge folds into a fresh clone made outside the clock, so
		// the server's aggregate is never touched.
		{
			name: "profile.merge_ms",
			prep: func() (err error) { clone, err = snapshot.Decode(aggBytes); return err },
			run:  func() error { clone.MergeSnapshot(one); return nil },
		},
		{name: "core.plans_guided_ms", run: func() (err error) {
			plans, err = s.staged.PlansGuided(tenant, instr.PPP(), instr.PlaceSpanning, agg.Edges)
			return err
		}},
		{name: "planir.encode_ms", run: func() error { planir.FromPlans(plans).Encode(); return nil }},
	} {
		ds := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			if st.prep != nil {
				if err := st.prep(); err != nil {
					return nil, fmt.Errorf("%s: %w", st.name, err)
				}
			}
			start := time.Now()
			if err := st.run(); err != nil {
				return nil, fmt.Errorf("%s: %w", st.name, err)
			}
			ds = append(ds, ms(time.Since(start)))
		}
		out[st.name] = median(ds)
	}
	return out, nil
}
