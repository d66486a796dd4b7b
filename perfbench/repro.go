package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"pathprof/internal/bench"
	"pathprof/internal/core"
	"pathprof/internal/eval"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/netprof"
	"pathprof/internal/opt"
	"pathprof/internal/planir"
	"pathprof/internal/telemetry"
	"pathprof/internal/verify"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// exact holds a pass's exact, deterministic results: the paper's
// headline PPP numbers (suite means) and PPP's static instrumentation
// counts (suite totals). They must repeat bit for bit on every pass.
type exact struct {
	OverheadPct, AccuracyPct, CoveragePct float64
	ProbeSites, StaticOps                 int
	SACRoutines, Hashed, Degraded         int
}

func (e exact) String() string {
	return fmt.Sprintf("ppp_overhead_pct=%v ppp_accuracy_pct=%v ppp_coverage_pct=%v probe_sites=%d static_ops=%d sac_routines=%d hashed_routines=%d degraded_routines=%d",
		e.OverheadPct, e.AccuracyPct, e.CoveragePct, e.ProbeSites, e.StaticOps, e.SACRoutines, e.Hashed, e.Degraded)
}

// passResult is one reproduction pass over a program set.
type passResult struct {
	wall                   time.Duration
	compute, check, render time.Duration // the pass's three segments
	rendered               string
	lines                  map[string][]string // program → fingerprint lines
	failed                 map[string]string   // program → why it failed
	renderErr              error
	exact                  exact
	alloc                  uint64
	gcPause                time.Duration
	steps                  int64 // replay only: every VM run's steps
}

// experiments is pppbench's default experiment list, in its order: the
// rendered text of one pass is byte-identical to `pppbench` output.
func experiments(s *bench.Suite) []func(io.Writer) error {
	return []func(io.Writer) error{
		s.Table1, s.Table2, s.Figure9, s.Figure10, s.Figure11,
		s.Figure12, s.Figure13, s.SACReport, s.NETReport, s.StaticReport,
	}
}

// profilerOrder lists the eight profiler configurations a pass runs:
// PP, TPP, PPP, then PPP with each technique left out (Figure 13).
func profilerOrder() []string {
	out := []string{"PP", "TPP", "PPP"}
	for _, tech := range sortedKeys(core.Ablations()) {
		out = append(out, "PPP-"+tech)
	}
	return out
}

// suitePass runs what `pppbench` runs with no flags, on a fresh suite
// over the program set, handing programs to the workers in the seeded
// order. It also verifies every plan of all eight profilers. Timing
// covers staging, profiling, verification and rendering; fingerprinting
// for the output check happens after the clock stops.
func suitePass(set []workloads.Workload, seed int64) *passResult {
	var ms0 runtimeStats
	ms0.read()
	start := time.Now()
	s := bench.NewSuite()
	s.Workloads = set
	s.Parallelism = passWorkers
	order := dispatchOrder(names(set), seed)
	res := &passResult{failed: map[string]string{}, lines: map[string][]string{}}
	var mu sync.Mutex
	fail := func(prog string, err error) {
		mu.Lock()
		if _, ok := res.failed[prog]; !ok {
			res.failed[prog] = err.Error()
		}
		mu.Unlock()
	}
	forEach(order, func(prog string) {
		if _, err := s.Run(prog); err != nil {
			fail(prog, err)
		}
	})
	forEach(ablationJobs(order), func(job string) {
		prog, tech, _ := strings.Cut(job, "/")
		if _, err := s.Ablate(prog, tech); err != nil {
			fail(prog, err)
		}
	})
	res.compute = time.Since(start)
	forEach(order, func(prog string) {
		for _, pr := range profilersOf(s, prog) {
			if diags, ok := verify.CheckAll(pr.Plans, verify.Options{}); !ok {
				fail(prog, fmt.Errorf("%s: plan fails verification: %v", pr.Name, diags[0]))
			}
		}
	})
	res.check = time.Since(start) - res.compute
	var buf bytes.Buffer
	for _, exp := range experiments(s) {
		if err := exp(&buf); err != nil {
			res.renderErr = err
			break
		}
		buf.WriteString("\n")
	}
	res.wall = time.Since(start)
	res.render = res.wall - res.compute - res.check
	var ms1 runtimeStats
	ms1.read()
	res.alloc, res.gcPause = ms1.alloc-ms0.alloc, ms1.gcPause-ms0.gcPause
	res.rendered = buf.String()

	for _, w := range set {
		if _, bad := res.failed[w.Name]; bad {
			continue
		}
		wr, _ := s.Run(w.Name)
		res.lines[w.Name] = stagingLines(w.Name, wr.Staged)
		for _, pr := range profilersOf(s, w.Name) {
			res.lines[w.Name] = append(res.lines[w.Name], profilerLine(w.Name, pr.Name, pr.Plans, pr.Run))
		}
	}
	if len(res.failed) == 0 {
		res.exact = exactOf(s)
	}
	return res
}

// profilersOf returns a program's eight profiler results in
// profilerOrder (all cached by the suite at this point).
func profilersOf(s *bench.Suite, prog string) []*core.ProfilerResult {
	wr, err := s.Run(prog)
	if err != nil {
		return nil
	}
	out := []*core.ProfilerResult{wr.Profilers["PP"], wr.Profilers["TPP"], wr.Profilers["PPP"]}
	for _, name := range profilerOrder()[3:] {
		pr, err := s.Ablate(prog, strings.TrimPrefix(name, "PPP-"))
		if err != nil {
			return nil
		}
		out = append(out, pr)
	}
	return out
}

func exactOf(s *bench.Suite) exact {
	h, err := s.Headline()
	if err != nil {
		return exact{}
	}
	e := exact{OverheadPct: h["ppp_overhead_pct"], AccuracyPct: h["ppp_accuracy_pct"], CoveragePct: h["ppp_coverage_pct"]}
	rs, err := s.RunAll()
	if err != nil {
		return exact{}
	}
	for _, r := range rs {
		ppp := r.Profilers["PPP"]
		for _, plan := range ppp.Plans {
			e.ProbeSites += plan.StaticEdgeSites()
			e.StaticOps += plan.StaticOps()
		}
		e.SACRoutines += ppp.SACAdjusted
		e.Hashed += ppp.HashedRoutines
		e.Degraded += ppp.Degraded()
	}
	return e
}

func stagingLines(prog string, st *core.Staged) []string {
	return []string{fmt.Sprintf("%s stage orig=%016x/%d base=%016x/%d ret=%d calls=%d",
		prog, st.OriginalRun.Snapshot().Fingerprint(), st.OriginalRun.Steps,
		st.Base.Snapshot().Fingerprint(), st.Base.Steps, st.Base.Ret, st.DynCallsBeforeInline)}
}

func profilerLine(prog, name string, plans map[string]*instr.Plan, run *vm.Result) string {
	return fmt.Sprintf("%s %s plan=%016x run=%016x/%d cost=%d+%d",
		prog, name, planir.FromPlans(plans).Fingerprint(), run.Snapshot().Fingerprint(),
		run.Steps, run.BaseCost, run.InstrCost)
}

// replayPass is the traced counterpart of suitePass's staging,
// profiling and verification. It makes the public calls that
// core.Pipeline.Stage and core.Staged.ProfileWith make, configured as
// bench.Suite configures its pipelines, in suitePass's three phases and
// dispatch order, with a span around each call. Its fingerprint lines
// must equal the untraced pass's.
func replayPass(set []workloads.Workload, seed int64, rec *recorder) *passResult {
	res := &passResult{failed: map[string]string{}, lines: map[string][]string{}}
	reg := telemetry.NewRegistry(8)
	progs := map[string]*replayed{}
	for _, w := range set {
		progs[w.Name] = &replayed{w: w, reg: reg, rec: rec, runs: map[string]*replayedRun{}}
	}
	order := dispatchOrder(names(set), seed)
	start := time.Now()
	forEach(order, func(prog string) {
		r := progs[prog]
		r.do(prog, func(root int64) error {
			if err := r.stage(prog, root); err != nil {
				return err
			}
			for _, name := range profilerOrder()[:3] {
				if err := r.profile(prog, root, name); err != nil {
					return err
				}
			}
			return nil
		})
	})
	forEach(ablationJobs(order), func(job string) {
		prog, tech, _ := strings.Cut(job, "/")
		r := progs[prog]
		if r.failed() {
			return
		}
		r.do(job, func(root int64) error { return r.profile(job, root, "PPP-"+tech) })
	})
	forEach(order, func(prog string) {
		r := progs[prog]
		if r.failed() {
			return
		}
		r.do(prog+"/verify", func(root int64) error { return r.verify(prog+"/verify", root) })
	})
	res.wall = time.Since(start)
	for _, w := range set {
		r := progs[w.Name]
		res.steps += r.steps
		if r.err != nil {
			res.failed[w.Name] = r.err.Error()
			continue
		}
		res.lines[w.Name] = stagingLines(w.Name, r.st)
		for _, name := range profilerOrder() {
			res.lines[w.Name] = append(res.lines[w.Name], profilerLine(w.Name, name, r.runs[name].plans, r.runs[name].run))
		}
	}
	return res
}

// ablationJobs lists a pass's Figure 13 jobs, program/technique, in
// dispatch order.
func ablationJobs(order []string) []string {
	var jobs []string
	for _, prog := range order {
		for _, tech := range sortedKeys(core.Ablations()) {
			jobs = append(jobs, prog+"/"+tech)
		}
	}
	return jobs
}

// replayed is one program's state across a replay pass's phases.
type replayed struct {
	w   workloads.Workload
	reg *telemetry.Registry
	rec *recorder

	st    *core.Staged   // written in phase 1, read-only after
	hot   []eval.HotPath // PP's actual hot set, likewise
	mu    sync.Mutex     // guards the fields below
	runs  map[string]*replayedRun
	steps int64
	err   error
}

type replayedRun struct {
	plans map[string]*instr.Plan
	run   *vm.Result
}

// do runs one job of the program under a root span named "program"
// (whose self time is the job's unattributed time), recording its
// first error.
func (r *replayed) do(op string, job func(root int64) error) {
	root := r.rec.begin(0, "program", op)
	err := job(root.id)
	root.end()
	if err != nil {
		r.mu.Lock()
		if r.err == nil {
			r.err = err
		}
		r.mu.Unlock()
	}
}

func (r *replayed) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != nil
}

// timed runs fn under a span for one layer call.
func (r *replayed) timed(op string, root int64, layer string, fn func() error) error {
	sp := r.rec.begin(root, layer, op)
	defer sp.end()
	return fn()
}

// runVM builds an engine and runs it, as vm.Run does, with the build
// and the run timed separately.
func (r *replayed) runVM(op string, root int64, prog *ir.Program, o vm.Options, layer string) (*vm.Result, error) {
	var e *vm.Engine
	if err := r.timed(op, root, "vm.engine_build", func() (err error) {
		e, err = vm.NewEngine(prog, o)
		return err
	}); err != nil {
		return nil, err
	}
	var res *vm.Result
	if err := r.timed(op, root, layer, func() (err error) {
		res, err = e.Run()
		return err
	}); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.steps += res.Steps
	r.mu.Unlock()
	return res, nil
}

// stage replays core.Pipeline.Stage.
func (r *replayed) stage(op string, root int64) error {
	p := core.NewPipeline(r.w.Name, r.w.Source)
	p.PathHook = netprof.New(netprof.DefaultThreshold).Hook()
	p.Instr.Trace = r.reg.Trace()
	stageOpts := func(paths, final bool) vm.Options {
		o := vm.Options{Costs: p.Costs, Entry: p.Entry, MaxSteps: p.MaxSteps,
			CollectEdges: true, CollectPaths: paths, Backend: p.Backend}
		if final && paths {
			o.PathHook = p.PathHook
		}
		return o
	}
	var p0, p1 *ir.Program
	if err := r.timed(op, root, "lower.compile", func() (err error) {
		p0, err = lower.Compile(p.Source, lower.Options{})
		return err
	}); err != nil {
		return err
	}
	r0, err := r.runVM(op, root, p0, stageOpts(true, false), "vm.stage_run")
	if err != nil {
		return err
	}
	st := &core.Staged{Pipeline: p, Original: p0, OriginalRun: r0}
	if err := r.timed(op, root, "opt.unroll", func() (err error) {
		st.UnrollPlan, st.UnrollDecisions, err = opt.PlanUnroll(p0, r0.Edges, p.Unroll)
		return err
	}); err != nil {
		return err
	}
	if err := r.timed(op, root, "lower.compile", func() (err error) {
		p1, err = lower.Compile(p.Source, lower.Options{Unroll: st.UnrollPlan})
		return err
	}); err != nil {
		return err
	}
	r1, err := r.runVM(op, root, p1, stageOpts(false, false), "vm.stage_run")
	if err != nil {
		return err
	}
	st.DynCallsBeforeInline = r1.DynCalls
	if err := r.timed(op, root, "opt.inline", func() (err error) {
		if st.InlineInfo, err = opt.Inline(p1, r1.Edges, p.Inline); err != nil {
			return err
		}
		return p1.Validate()
	}); err != nil {
		return err
	}
	base, err := r.runVM(op, root, p1, stageOpts(true, true), "vm.stage_run")
	if err != nil {
		return err
	}
	if r1.Ret != r0.Ret || base.Ret != r0.Ret {
		return fmt.Errorf("%s: optimization changed the result", r.w.Name)
	}
	st.Prog, st.Base = p1, base
	r.st = st
	return nil
}

// profile replays core.Staged.ProfileWith for one profiler
// configuration, then evaluates the run as the figures do.
func (r *replayed) profile(op string, root int64, name string) error {
	tech, ok := core.Ablations()[strings.TrimPrefix(name, "PPP-")]
	for _, pf := range core.Profilers() {
		if pf.Name == name {
			tech, ok = pf.Tech, true
		}
	}
	if !ok {
		return fmt.Errorf("unknown profiler %s", name)
	}
	st, p := r.st, r.st.Pipeline
	var plans map[string]*instr.Plan
	if err := r.timed(op, root, "instr.plan", func() (err error) {
		plans, err = st.PlansFor(name, tech, p.Instr.Placement)
		return err
	}); err != nil {
		return err
	}
	run, err := r.runVM(op, root, st.Prog, vm.Options{Costs: p.Costs, Entry: p.Entry, MaxSteps: p.MaxSteps,
		Plans: plans, CollectPaths: true, Backend: p.Backend}, "vm.instr_run")
	if err != nil {
		return err
	}
	if run.Ret != st.Base.Ret {
		return fmt.Errorf("%s/%s: instrumentation changed the result", r.w.Name, name)
	}
	_ = r.timed(op, root, "eval", func() error {
		var routines []*eval.Routine
		for _, rn := range sortedKeys(plans) {
			routines = append(routines, &eval.Routine{Name: rn, Plan: plans[rn], Table: run.Tables[rn], Truth: run.Paths[rn]})
		}
		ev := eval.New(routines)
		if name == "PP" {
			r.hot = ev.HotPaths(bench.HotTheta)
			_ = eval.Accuracy(r.hot, ev.EdgeEstimatedProfile(bench.HotTheta))
			_ = ev.EdgeCoverage()
			return nil
		}
		_ = eval.Accuracy(r.hot, ev.EstimatedProfile(bench.HotTheta))
		_ = ev.Coverage()
		return nil
	})
	r.mu.Lock()
	r.runs[name] = &replayedRun{plans: plans, run: run}
	r.mu.Unlock()
	return nil
}

// verify checks every plan of the program's eight profilers.
func (r *replayed) verify(op string, root int64) error {
	r.mu.Lock()
	runs := r.runs
	r.mu.Unlock()
	return r.timed(op, root, "verify.check", func() error {
		for _, name := range profilerOrder() {
			if diags, ok := verify.CheckAll(runs[name].plans, verify.Options{}); !ok {
				return fmt.Errorf("%s/%s: plan fails verification: %v", r.w.Name, name, diags[0])
			}
		}
		return nil
	})
}

// forEach runs fn over items on passWorkers workers, handing items out
// in order.
func forEach(items []string, fn func(string)) {
	next := make(chan string)
	var wg sync.WaitGroup
	wg.Add(passWorkers)
	for i := 0; i < passWorkers; i++ {
		go func() {
			defer wg.Done()
			for it := range next {
				fn(it)
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()
}

func names(set []workloads.Workload) []string {
	out := make([]string, len(set))
	for i, w := range set {
		out[i] = w.Name
	}
	return out
}

func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
