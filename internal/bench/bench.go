// Package bench regenerates the paper's tables and figures over the
// synthetic workload suite: Table 1 (path characteristics under
// inlining+unrolling), Table 2 (hot paths), Figure 9 (accuracy),
// Figure 10 (coverage), Figure 11 (fraction of paths instrumented),
// Figure 12 (overhead), and Figure 13 (leave-one-out ablation), plus
// the Section 4.3 self-adjusting-criterion report.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"pathprof/internal/core"
	"pathprof/internal/eval"
	"pathprof/internal/instr"
	"pathprof/internal/netprof"
	"pathprof/internal/telemetry"
	"pathprof/internal/workloads"
)

// HotTheta is the hot-path threshold used throughout the evaluation
// (0.125% of total program flow, Section 8.1).
const HotTheta = 0.00125

// WorkloadResult caches everything computed for one workload.
type WorkloadResult struct {
	W         workloads.Workload
	Staged    *core.Staged
	Orig, Opt core.PathStats
	Profilers map[string]*core.ProfilerResult // PP, TPP, PPP
	// NET is Dynamo's predictor, fed by a PathHook tee off the staging
	// run that produced Staged.Base — NETReport reads it without a
	// second execution of the workload.
	NET *netprof.Predictor
	hot []eval.HotPath
}

// Hot returns the actual hot set at HotTheta, computed once from the
// PP run (which measures every path).
func (wr *WorkloadResult) Hot() []eval.HotPath {
	if wr.hot == nil {
		wr.hot = wr.Profilers["PP"].Eval.HotPaths(HotTheta)
	}
	return wr.hot
}

// Suite runs workloads once each and caches results. Workloads are
// independent, so RunAll and the Figure-13 ablation sweep fan out over
// a bounded worker pool; each workload/ablation is still computed
// exactly once (concurrent callers share the first computation), and
// all table and figure output stays deterministic because rendering
// happens sequentially after the sweep.
type Suite struct {
	Workloads []workloads.Workload
	// Log receives progress lines (nil = silent). Under a parallel
	// sweep, lines from different workloads interleave.
	Log io.Writer
	// Parallelism bounds concurrent workload runs (0 = GOMAXPROCS,
	// 1 = sequential).
	Parallelism int
	// Telemetry collects the suite's metrics and decision trace. Every
	// workload's planner emits into its trace (the trace is internally
	// synchronized, and per-unit export order is deterministic); reports
	// publish gauges into it. Nil disables all of it.
	Telemetry *telemetry.Registry
	// Placement selects the edge-probe placement every pipeline in the
	// suite plans under: spanning full counters (the default) or
	// min-cost cotree-chord probes. All tables and figures are identical
	// under either — placement only decides how edge counts are
	// acquired, and the suite's instrumented runs recover them exactly.
	Placement instr.Placement

	mu      sync.Mutex
	logMu   sync.Mutex
	results map[string]*workloadEntry
	ablated map[string]*ablateEntry
}

type workloadEntry struct {
	once sync.Once
	wr   *WorkloadResult
	err  error
}

type ablateEntry struct {
	once sync.Once
	pr   *core.ProfilerResult
	err  error
}

// NewSuite returns a suite over all workloads with telemetry enabled
// (sized for the replicated throughput sweep's widest worker count).
func NewSuite() *Suite {
	return &Suite{
		Workloads: workloads.All(),
		Telemetry: telemetry.NewRegistry(8),
	}
}

func (s *Suite) parallelism() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Suite) logf(format string, args ...interface{}) {
	if s.Log != nil {
		s.logMu.Lock()
		fmt.Fprintf(s.Log, format+"\n", args...)
		s.logMu.Unlock()
	}
}

// Run stages the named workload and profiles it with PP, TPP, and PPP.
// Safe for concurrent use; the result is computed once and cached.
func (s *Suite) Run(name string) (*WorkloadResult, error) {
	s.mu.Lock()
	if s.results == nil {
		s.results = map[string]*workloadEntry{}
	}
	e := s.results[name]
	if e == nil {
		e = &workloadEntry{}
		s.results[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.wr, e.err = s.runWorkload(name) })
	return e.wr, e.err
}

func (s *Suite) runWorkload(name string) (*WorkloadResult, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	s.logf("staging %s", name)
	pred := netprof.New(netprof.DefaultThreshold)
	pl := core.NewPipeline(w.Name, w.Source)
	pl.PathHook = pred.Hook()
	pl.Instr.Placement = s.Placement
	pl.Instr.Trace = s.Telemetry.Trace()
	staged, err := pl.Stage()
	if err != nil {
		return nil, err
	}
	wr := &WorkloadResult{
		W:         w,
		Staged:    staged,
		Orig:      core.StatsOf(staged.OriginalRun),
		Opt:       core.StatsOf(staged.Base),
		Profilers: map[string]*core.ProfilerResult{},
		NET:       pred,
	}
	for _, p := range core.Profilers() {
		s.logf("  profiling %s with %s", name, p.Name)
		pr, err := staged.Profile(p.Name, p.Tech)
		if err != nil {
			return nil, err
		}
		wr.Profilers[p.Name] = pr
	}
	return wr, nil
}

// Ablate profiles the named workload with one PPP technique disabled
// (Figure 13), caching the result. Safe for concurrent use.
func (s *Suite) Ablate(name, technique string) (*core.ProfilerResult, error) {
	tech, ok := core.Ablations()[technique]
	if !ok {
		return nil, fmt.Errorf("bench: unknown ablation %q", technique)
	}
	key := name + "/" + technique
	s.mu.Lock()
	if s.ablated == nil {
		s.ablated = map[string]*ablateEntry{}
	}
	e := s.ablated[key]
	if e == nil {
		e = &ablateEntry{}
		s.ablated[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		wr, err := s.Run(name)
		if err != nil {
			e.err = err
			return
		}
		s.logf("  ablating %s without %s", name, technique)
		e.pr, e.err = wr.Staged.Profile("PPP-"+technique, tech)
	})
	return e.pr, e.err
}

// RunAll runs every workload in the suite, fanning out across the
// worker pool. Results come back in suite order regardless of which
// worker finished first; the first error (in suite order) is
// returned.
func (s *Suite) RunAll() ([]*WorkloadResult, error) {
	out := make([]*WorkloadResult, len(s.Workloads))
	errs := make([]error, len(s.Workloads))
	s.forEach(len(s.Workloads), func(i int) {
		out[i], errs[i] = s.Run(s.Workloads[i].Name)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// forEach runs fn(0..n-1) on the suite's bounded worker pool.
func (s *Suite) forEach(n int, fn func(i int)) {
	par := s.parallelism()
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Headline computes the suite-average metrics the paper leads with:
// accuracy and coverage per profiler (Figures 9-10) and runtime
// overhead (Figure 12), as percentages.
func (s *Suite) Headline() (map[string]float64, error) {
	rs, err := s.RunAll()
	if err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return map[string]float64{}, nil
	}
	var accE, accT, accP, covE, covT, covP, ohPP, ohTPP, ohPPP float64
	for _, r := range rs {
		e, t, p := r.Accuracy()
		accE, accT, accP = accE+e, accT+t, accP+p
		e, t, p = r.Coverage()
		covE, covT, covP = covE+e, covT+t, covP+p
		ohPP += r.Profilers["PP"].Overhead()
		ohTPP += r.Profilers["TPP"].Overhead()
		ohPPP += r.Profilers["PPP"].Overhead()
	}
	n := float64(len(rs))
	return map[string]float64{
		"edge_accuracy_pct": 100 * accE / n,
		"tpp_accuracy_pct":  100 * accT / n,
		"ppp_accuracy_pct":  100 * accP / n,
		"edge_coverage_pct": 100 * covE / n,
		"tpp_coverage_pct":  100 * covT / n,
		"ppp_coverage_pct":  100 * covP / n,
		"pp_overhead_pct":   100 * ohPP / n,
		"tpp_overhead_pct":  100 * ohTPP / n,
		"ppp_overhead_pct":  100 * ohPPP / n,
	}, nil
}

// EdgeOverhead measures software edge-counter overhead for reference.
func (s *Suite) EdgeOverhead(name string) (float64, error) {
	wr, err := s.Run(name)
	if err != nil {
		return 0, err
	}
	res, err := wr.Staged.EdgeOverheadRun()
	if err != nil {
		return 0, err
	}
	return res.Overhead(), nil
}

// Accuracy returns the Figure 9 numbers for one workload: edge, TPP,
// and PPP accuracy against the actual hot set.
func (wr *WorkloadResult) Accuracy() (edge, tpp, ppp float64) {
	hot := wr.Hot()
	edge = eval.Accuracy(hot, wr.Profilers["PP"].Eval.EdgeEstimatedProfile(HotTheta))
	tpp = eval.Accuracy(hot, wr.Profilers["TPP"].Eval.EstimatedProfile(HotTheta))
	ppp = eval.Accuracy(hot, wr.Profilers["PPP"].Eval.EstimatedProfile(HotTheta))
	return edge, tpp, ppp
}

// Coverage returns the Figure 10 numbers for one workload.
func (wr *WorkloadResult) Coverage() (edge, tpp, ppp float64) {
	edge = wr.Profilers["PP"].Eval.EdgeCoverage().Value()
	tpp = wr.Profilers["TPP"].Eval.Coverage().Value()
	ppp = wr.Profilers["PPP"].Eval.Coverage().Value()
	return edge, tpp, ppp
}

// geomeanSafe and mean helpers for table footers.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classRows splits results into INT, FP, and all, preserving order.
func classRows(rs []*WorkloadResult) (ints, fps []*WorkloadResult) {
	for _, r := range rs {
		if r.W.Class == "INT" {
			ints = append(ints, r)
		} else {
			fps = append(fps, r)
		}
	}
	return ints, fps
}

// sortedNames returns map keys sorted, for deterministic iteration.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
