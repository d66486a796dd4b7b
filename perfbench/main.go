// Command perfbench is the repository's benchmark. One run measures
// one workload for a fixed time and prints, as its last line, a JSON
// object with the run's correctness, its operation counts and its
// metrics, each with a unit:
//
//	perfbench -workload repro|mixed-large -seed N -seconds S -trace 0|1
//
// Every workload runs reproduction passes over a program set (what
// `pppbench` runs with no flags), an open-loop phase against the
// in-process profile service at fixed rates, and a closed-loop
// capacity phase. -trace 0 reports the end-to-end metrics; -trace 1
// reports per-layer metrics from a separate traced run and writes its
// spans as Chrome trace JSON under -out. Outputs are checked against
// the golden copies under -golden and against a refold of the
// service's commit log. See README.md for the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"pathprof/internal/serve"
	"pathprof/internal/workloads"
)

// Validity bounds: a run that breaks one is reported invalid, not
// measured.
const (
	// lateBoundMS bounds the open-loop generator's p99 lateness.
	lateBoundMS = 50
	// backlogGrowth bounds how much the mean number of requests in
	// flight may grow from the first to the last third of the
	// fixed-rate phase.
	backlogGrowth = 2.0
	// setups is how many times a run sets up; setup_s is their median.
	setups = 3
)

// declaredIn, at the root of the checkout the benchmark runs from,
// declares the metrics each trace mode must report.
const declaredIn = "BENCHMARK.json"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations, failures and validity violations.
type tally struct {
	attempted, failed int
	why               []string
	invalid           []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.why) < 5 {
			t.why = append(t.why, err.Error())
		}
	}
}

func (t *tally) invalidate(format string, a ...any) {
	t.invalid = append(t.invalid, fmt.Sprintf(format, a...))
}

func main() { os.Exit(run()) }

func run() int {
	procStart := time.Now()
	workload := flag.String("workload", "", "workload to run: repro or mixed-large")
	seed := flag.Int64("seed", 1, "seed for arrival times, idempotency keys, read order and dispatch order")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	goldenDir := flag.String("golden", filepath.Join("perfbench", "golden"), "directory of golden outputs")
	outDir := flag.String("out", filepath.Join(".bench_build", "out"), "directory for the service's stores and trace output")
	rewrite := flag.Bool("write-golden", false, "run one pass over the workload's program set and write its golden copy")
	flag.Parse()

	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
		return 1
	}
	sp, err := specByName(*workload)
	if err != nil {
		return fail("%v", err)
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		return fail("-seconds must be positive and -trace 0 or 1")
	}
	set := workloads.All()
	if sp.programs != nil {
		set = nil
		for _, n := range sp.programs {
			w, _ := workloads.ByName(n)
			set = append(set, w)
		}
	}
	gpath := goldenPath(*goldenDir, set)
	if *rewrite {
		if err := writeGolden(gpath, set, suitePass(set, *seed), replayPass(set, *seed, nil)); err != nil {
			return fail("write golden: %v", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", gpath)
		return 0
	}
	g, err := loadGolden(gpath)
	if err != nil {
		return fail("golden: %v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail("%v", err)
	}
	tmp, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmp)

	var setupS []float64
	var svc *service
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		s, err := startService(tmp)
		if err != nil {
			return fail("setup: %v", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := s.close(); err != nil {
				return fail("setup teardown: %v", err)
			}
		} else {
			svc = s
		}
	}
	defer svc.close()

	b := &benchRun{sp: sp, set: set, seed: *seed, golden: g, svc: svc,
		measure: time.Duration(*seconds) * time.Second}
	var metrics map[string]metric
	if *traceMode == 0 {
		metrics = b.untraced()
		metrics["setup_s"] = metric{median(setupS), "s"}
	} else {
		tracePath := filepath.Join(*outDir, fmt.Sprintf("trace-%s-%d.json", sp.name, *seed))
		metrics = b.traced(tracePath)
	}
	want, err := declared(declaredIn, *traceMode == 1)
	if err != nil {
		return fail("%v", err)
	}
	if got := sortedKeys(metrics); !slices.Equal(got, want) {
		return fail("metrics %v differ from the %d declared in %s", got, len(want), declaredIn)
	}
	res := result{Correct: b.t.failed == 0 && len(b.t.invalid) == 0,
		Attempted: b.t.attempted, Failed: b.t.failed, Metrics: metrics}
	for _, w := range b.t.why {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", w)
	}
	code := 0
	if len(b.t.invalid) > 0 {
		for _, w := range b.t.invalid {
			fmt.Fprintf(os.Stderr, "perfbench: invalid run: %s\n", w)
		}
		res.Metrics = map[string]metric{}
		code = 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(out))
	return code
}

// declared returns the sorted metric names the benchmark file declares
// for a trace mode, so a run can neither drop nor add one unnoticed.
func declared(path string, traced bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type named struct {
		Name string `json:"name"`
	}
	var decl struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	out := make([]string, len(list))
	for i, n := range list {
		out[i] = n.Name
	}
	slices.Sort(out)
	return out, nil
}

// benchRun is one run of one workload.
type benchRun struct {
	sp      spec
	set     []workloads.Workload
	seed    int64
	golden  *golden
	svc     *service
	measure time.Duration
	t       tally
}

func (b *benchRun) share(f float64) time.Duration {
	return time.Duration(f * float64(b.measure))
}

// checkPass counts one op per program (its fingerprints must equal the
// golden copy's) and one for the rendered tables, and marks the run
// invalid when the exact counts moved.
func (b *benchRun) checkPass(p *passResult) {
	for _, w := range b.set {
		var err error
		if why, bad := p.failed[w.Name]; bad {
			err = fmt.Errorf("%s: %s", w.Name, why)
		} else if !slices.Equal(p.lines[w.Name], b.golden.lines[w.Name]) {
			err = fmt.Errorf("%s: fingerprints differ from the golden copy: %v", w.Name, p.lines[w.Name])
		}
		b.t.op(err)
	}
	if p.rendered == "" && p.renderErr == nil {
		return // a replay pass renders nothing
	}
	var err error
	if p.renderErr != nil {
		err = fmt.Errorf("render: %w", p.renderErr)
	} else if p.rendered != b.golden.rendered {
		err = fmt.Errorf("rendered tables differ from the golden copy")
	}
	b.t.op(err)
	if len(p.failed) == 0 && p.exact.String() != b.golden.exact {
		b.t.invalidate("exact counts moved: %s, golden %s", p.exact, b.golden.exact)
	}
}

// service runs the open-loop and closed-loop phases and the refold
// check, tallying every operation.
func (b *benchRun) service(traceEvery int, drain func()) (openLoopResult, float64) {
	ctx := context.Background()
	arrivals := schedule(b.seed, b.share(b.sp.openShare))
	runtime.GC()
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				drain()
			case <-stop:
				drain()
				return
			}
		}
	}()
	ol := b.svc.openLoop(ctx, arrivals, b.seed, traceEvery)
	close(stop)
	<-drained
	var acked []string
	var late []float64
	for i := range ol.ops {
		r := &ol.ops[i]
		b.t.op(r.err)
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.publish && r.err == nil {
			acked = append(acked, r.key)
		}
	}
	if p99 := quantile(late, 0.99); p99 > lateBoundMS {
		b.t.invalidate("open-loop generator ran late: p99 %.1f ms > %d ms", p99, lateBoundMS)
	}
	if n := len(ol.backlog); n >= 6 {
		first := mean(toF(ol.backlog[:n/3]))
		last := mean(toF(ol.backlog[n-n/3:]))
		if last > backlogGrowth*first+2 {
			b.t.invalidate("backlog grew during the fixed-rate phase: mean in flight %.1f → %.1f", first, last)
		}
	}
	runtime.GC()
	acks, failed, perSec, keys := b.svc.closedLoop(ctx, b.share(b.sp.closedShare), b.seed)
	for i := 0; i < acks; i++ {
		b.t.op(nil)
	}
	for i := 0; i < failed; i++ {
		b.t.op(fmt.Errorf("closed-loop publish failed"))
	}
	b.t.op(b.svc.refold(ctx, append(acked, keys...)))
	return ol, perSec
}

// passes runs untraced reproduction passes for the workload's share of
// the run, at least minPasses of them, each with its own dispatch
// order.
func (b *benchRun) passes() []*passResult {
	var out []*passResult
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < b.share(b.sp.passShare); i++ {
		runtime.GC()
		p := suitePass(b.set, b.seed+int64(i))
		b.checkPass(p)
		out = append(out, p)
	}
	return out
}

// untraced measures the end-to-end metrics.
func (b *benchRun) untraced() map[string]metric {
	var walls []float64
	ps := b.passes()
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
	}
	ol, perSec := b.service(0, func() {})
	var acks, plans []float64
	for i := range ol.ops {
		if r := &ol.ops[i]; r.publish {
			acks = append(acks, ms(r.e2e()))
		} else {
			plans = append(plans, ms(r.e2e()))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes %v s; %d publishes p50/p90/p99 %.2f/%.2f/%.2f ms; %d reads p50/p90/p99 %.2f/%.2f/%.2f ms; capacity %.1f/s\n",
		b.sp.name, len(ps), walls, len(acks), quantile(acks, .5), quantile(acks, .9), quantile(acks, .99),
		len(plans), quantile(plans, .5), quantile(plans, .9), quantile(plans, .99), perSec)
	e := ps[0].exact
	okPct := 0.0
	if b.t.attempted > 0 {
		okPct = 100 * float64(b.t.attempted-b.t.failed) / float64(b.t.attempted)
	}
	return map[string]metric{
		"pipeline_s":            {median(walls), "s"},
		"ppp_overhead_pct":      {e.OverheadPct, "%"},
		"ppp_accuracy_pct":      {e.AccuracyPct, "%"},
		"ppp_coverage_pct":      {e.CoveragePct, "%"},
		"ack_p50_ms":            {windowedQuantile(acks, .5), "ms"},
		"ingest_capacity_per_s": {perSec, "1/s"},
		"plan_p50_ms":           {windowedQuantile(plans, .5), "ms"},
		"ok_pct":                {okPct, "%"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
	}
}

func toF(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// passLayers and publishLayers are the span names whose self times are
// reported as per-layer metrics, <name>_ms (eval as eval.ms, and
// serve.ack, the commit's residual, as serve.commit_other_ms).
var passLayers = []string{
	"lower.compile", "opt.unroll", "opt.inline", "vm.engine_build",
	"vm.stage_run", "vm.instr_run", "instr.plan", "verify.check", "eval",
}

var publishLayers = []string{
	"loadgen.late", "client.conn_wait", "client.http", "serve.admit",
	"serve.queue_wait", "serve.commit_merge", "serve.store_save", "serve.ack",
}

// traced measures the per-layer metrics: an untraced reference pass,
// a traced replay of it, and the service phases with every other
// publish traced.
func (b *benchRun) traced(tracePath string) map[string]metric {
	m := map[string]metric{}
	rec := &recorder{}
	runtime.GC()
	ref := suitePass(b.set, b.seed)
	b.checkPass(ref)
	runtime.GC()
	replay := replayPass(b.set, b.seed, rec)
	b.checkPass(replay)
	if len(replay.failed) == 0 && replay.steps != b.golden.steps {
		b.t.invalidate("vm.steps moved: %d, golden %d", replay.steps, b.golden.steps)
	}
	passSpans := rec.all()
	self := selfTimes(passSpans)
	byLayer := map[string]time.Duration{}
	var progTotal time.Duration
	for _, s := range passSpans {
		byLayer[s.name] += self[s.id]
		if s.parent == 0 {
			progTotal += s.end.Sub(s.start)
		}
	}
	for _, l := range passLayers {
		name := l + "_ms"
		if l == "eval" {
			name = "eval.ms"
		}
		m[name] = metric{ms(byLayer[l]), "ms"}
	}
	m["vm.steps"] = metric{float64(replay.steps), "count"}
	m["vm.ns_per_step"] = metric{float64((byLayer["vm.stage_run"] + byLayer["vm.instr_run"]).Nanoseconds()) / float64(replay.steps), "ns"}
	m["bench.render_ms"] = metric{ms(ref.render), "ms"}
	m["go.alloc_mb"] = metric{float64(ref.alloc) / (1 << 20), "MB"}
	m["go.gc_pause_ms"] = metric{ms(ref.gcPause), "ms"}
	m["instr.probe_sites"] = metric{float64(ref.exact.ProbeSites), "count"}
	m["instr.static_ops"] = metric{float64(ref.exact.StaticOps), "count"}
	m["instr.sac_routines"] = metric{float64(ref.exact.SACRoutines), "count"}
	m["instr.hashed_routines"] = metric{float64(ref.exact.Hashed), "count"}
	m["instr.degraded_routines"] = metric{float64(ref.exact.Degraded), "count"}
	lanes := float64(passWorkers) * ms(replay.wall)
	m["trace.pass_unattributed_pct"] = metric{100 * ms(byLayer["program"]) / ms(progTotal), "%"}
	m["trace.pass_idle_pct"] = metric{100 * (lanes - ms(progTotal)) / lanes, "%"}
	untracedWork := ref.compute + ref.check
	m["trace.pass_overhead_pct"] = metric{100 * (ms(replay.wall) - ms(untracedWork)) / ms(untracedWork), "%"}

	var ss serverSpans
	ring := b.svc.reg.Spans()
	ol, _ := b.service(2, func() { ss.drain(ring) })
	pubSpans, band := publishSpans(rec, ol, &ss)
	pself := selfTimes(pubSpans)
	inBand := map[string]bool{}
	for _, op := range band.ops {
		inBand[op] = true
	}
	pubLayer := map[string]time.Duration{}
	var pubRootSelf time.Duration
	for _, s := range pubSpans {
		if !inBand[s.op] {
			continue
		}
		if s.parent == 0 {
			pubRootSelf += pself[s.id]
			continue
		}
		pubLayer[s.name] += pself[s.id]
	}
	n := float64(len(band.ops))
	for _, l := range publishLayers {
		name := l + "_ms"
		if l == "serve.ack" {
			name = "serve.commit_other_ms"
		}
		m[name] = metric{ms(pubLayer[l]) / n, "ms"}
	}
	m["trace.ack_band_ms"] = metric{band.meanMS, "ms"}
	// Inside the HTTP exchange, the time no server stage covers is
	// transport and handler work the server does not time.
	m["trace.ack_unattributed_pct"] = metric{100 * (ms(pubRootSelf) + ms(pubLayer["client.http"])) / n / band.meanMS, "%"}

	var tracedE2E, untracedE2E, plans, late []float64
	var attempts, pubs float64
	for i := range ol.ops {
		r := &ol.ops[i]
		late = append(late, ms(r.sent.Sub(r.due)))
		switch {
		case !r.publish:
			plans = append(plans, ms(r.e2e()))
		case r.traced:
			tracedE2E = append(tracedE2E, ms(r.e2e()))
		default:
			untracedE2E = append(untracedE2E, ms(r.e2e()))
		}
		if r.publish {
			attempts += float64(r.attempts)
			pubs++
		}
	}
	m["trace.ack_overhead_pct"] = metric{100 * (median(tracedE2E) - median(untracedE2E)) / median(untracedE2E), "%"}
	// Tails are reported, not gated: they spread too far run to run on
	// a shared 2-vCPU host (see README.md).
	m["ack_p90_ms"] = metric{quantile(untracedE2E, .9), "ms"}
	m["ack_p99_ms"] = metric{quantile(untracedE2E, .99), "ms"}
	m["plan_p90_ms"] = metric{quantile(plans, .9), "ms"}
	m["plan_p99_ms"] = metric{quantile(plans, .99), "ms"}
	m["loadgen.late_p99_ms"] = metric{quantile(late, .99), "ms"}
	m["client.attempts_per_publish"] = metric{attempts / pubs, "count"}

	for _, h := range b.svc.reg.HistStats() {
		switch h.Name {
		case `ppp_serve_http_duration_us{endpoint="ingest"}`:
			m["serve.http_ingest_ms"] = metric{float64(h.Sum) / float64(h.Count) / 1e3, "ms"}
		case `ppp_serve_http_duration_us{endpoint="plans"}`:
			m["serve.http_plans_ms"] = metric{float64(h.Sum) / float64(h.Count) / 1e3, "ms"}
		case "ppp_serve_commit_batch_size":
			m["serve.batch_size_mean"] = metric{float64(h.Sum) / float64(h.Count), "count"}
		}
	}
	for _, c := range b.svc.reg.CounterStats() {
		switch c.Name {
		case "ppp_serve_backpressure_total":
			m["serve.backpressure_total"] = metric{float64(c.Value), "count"}
		case "ppp_serve_shed_total":
			m["serve.shed_total"] = metric{float64(c.Value), "count"}
		case "ppp_serve_ingest_wait_timeouts_total":
			m["serve.wait_timeouts_total"] = metric{float64(c.Value), "count"}
		}
	}
	saves, bytes, busy := b.svc.store.stats()
	m["store.saves"] = metric{float64(saves), "count"}
	m["store.save_ms"] = metric{ms(busy) / float64(saves), "ms"}
	m["store.bytes_per_save"] = metric{float64(bytes) / float64(saves), "B"}
	direct, err := b.svc.directTimings(15)
	if err != nil {
		b.t.op(err)
	}
	for k, v := range direct {
		m[k] = metric{v, "ms"}
	}
	if err := writeChrome(tracePath, rec.all()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace output: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", tracePath)
	}
	return m
}

// ackBand is the set of traced publishes whose latency lies between
// the 40th and 60th percentile: their per-layer self times add up to
// (about) the median ack latency.
type ackBand struct {
	ops    []string
	meanMS float64
}

// publishSpans records each traced, acked publish as a span tree and
// returns the spans with the median band. The client-side spans are
// measured; the server-side ones come from the server's span ring
// (durations of the final attempt's stages) and are laid end to end
// inside the HTTP exchange.
func publishSpans(rec *recorder, ol openLoopResult, ss *serverSpans) ([]span, ackBand) {
	first := rec.len()
	var ops []string
	var e2e []float64
	for i := range ol.ops {
		r := &ol.ops[i]
		if !r.publish || !r.traced || r.err != nil || r.gotConn.IsZero() {
			continue
		}
		stages := map[string]time.Duration{}
		for _, sp := range ss.by[serve.TraceIDForKey(r.key)] {
			if sp.Attempt == r.attempts-1 {
				stages[sp.Stage.String()] = time.Duration(sp.DurUS) * time.Microsecond
			}
		}
		op := r.key
		root := rec.add(0, "publish", op, r.due, r.done)
		rec.add(root, "loadgen.late", op, r.due, r.sent)
		rec.add(root, "client.conn_wait", op, r.sent, r.gotConn)
		http := rec.add(root, "client.http", op, r.gotConn, r.done)
		t := r.gotConn
		next := func(parent int64, name string, d time.Duration) int64 {
			return rec.add(parent, name, op, t, t.Add(d))
		}
		next(http, "serve.admit", stages["admit"])
		t = t.Add(stages["admit"])
		ack := next(http, "serve.ack", stages["ack"])
		for _, st := range []string{"queue-wait", "commit-merge", "store-save"} {
			next(ack, "serve."+strings.ReplaceAll(st, "-", "_"), stages[st])
			t = t.Add(stages[st])
		}
		ops = append(ops, op)
		e2e = append(e2e, ms(r.e2e()))
	}
	lo, hi := quantile(e2e, 0.4), quantile(e2e, 0.6)
	var band ackBand
	var sum float64
	for i, v := range e2e {
		if v >= lo && v <= hi {
			band.ops = append(band.ops, ops[i])
			sum += v
		}
	}
	if len(band.ops) > 0 {
		band.meanMS = sum / float64(len(band.ops))
	}
	return rec.all()[first:], band
}
