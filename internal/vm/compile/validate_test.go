package compile_test

import (
	"errors"
	"strings"
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/instr"
	"pathprof/internal/lower"
	"pathprof/internal/vm"
	"pathprof/internal/vm/compile"
)

// validateSrc exercises every terminator shape the validator drives:
// loops (back-edge path truncation), branches both directions, calls
// (non-solo blocks), and straight-line runs (solo charge folding).
const validateSrc = `
var total = 0;
func weigh(n) {
	var s = 0;
	while (n > 0) {
		if (n % 3 == 0) { s = s + 2; } else { s = s + 1; }
		n = n - 1;
	}
	return s;
}
func main() {
	var acc = 0;
	for (var i = 0; i < 40; i = i + 1) {
		acc = acc + weigh(i);
	}
	total = acc;
	return acc;
}`

func buildValidated(t *testing.T, opts vm.Options) (*vm.Engine, *vm.Result) {
	t.Helper()
	prog, err := lower.Compile(validateSrc, lower.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Stage 1: ground-truth edge profile to plan against.
	stage1, err := vm.Run(prog, vm.Options{CollectEdges: true, CollectPaths: true})
	if err != nil {
		t.Fatalf("stage1: %v", err)
	}
	plans := map[string]*instr.Plan{}
	for _, f := range prog.Funcs {
		g, err := f.CFG()
		if err != nil {
			t.Fatalf("cfg %s: %v", f.Name, err)
		}
		stage1.Edges[f.Name].ApplyTo(g)
		p, err := instr.Build(g, instr.PPP(), instr.DefaultParams(), 0)
		if err != nil {
			t.Fatalf("plan %s: %v", f.Name, err)
		}
		plans[f.Name] = p
	}
	opts.Plans = plans
	eng, err := vm.NewEngine(prog, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return eng, res
}

// TestValidatePasses proves every routine of a representative
// instrumented program under the run shapes that change what the
// transition closures do (edge slots, path tracking, hooks).
func TestValidatePasses(t *testing.T) {
	shapes := []struct {
		name string
		opts vm.Options
	}{
		{"plain", vm.Options{}},
		{"paths", vm.Options{CollectPaths: true}},
		{"edges", vm.Options{CollectEdges: true, EdgeInstrument: true}},
		{"full", vm.Options{
			CollectPaths: true, CollectEdges: true, EdgeInstrument: true,
			PathHook: func(string, cfg.Path) {},
		}},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			eng, res := buildValidated(t, sh.opts)
			us := eng.ValidateUs()
			if len(us) == 0 {
				t.Fatal("engine reports no validation timings; every engine build validates")
			}
			for fn, v := range us {
				if v < 0 {
					t.Errorf("%s: negative validation time %d", fn, v)
				}
			}
			if res.ValidateUs == nil {
				t.Error("Result.ValidateUs not populated")
			}
		})
	}
}

// TestValidateDetectsMutation flips one fused terminator constant via
// the lowering-mutation hook and asserts validation rejects the build
// with a structured error naming the exact block pair.
func TestValidateDetectsMutation(t *testing.T) {
	mutations := []struct {
		name  string
		arm   func(delta int64) *compile.MutatedSite
		field string
	}{
		{"base-cost", compile.MutateFirstSuccBase, "base"},
		{"step-fold", compile.MutateFirstSuccSteps, "steps"},
	}
	for _, mu := range mutations {
		mu := mu
		t.Run(mu.name, func(t *testing.T) {
			prog, err := lower.Compile(validateSrc, lower.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			site := mu.arm(7)
			defer compile.ClearMutateSucc()
			_, err = vm.NewEngine(prog, vm.Options{CollectPaths: true})
			if err == nil {
				t.Fatalf("mutated lowering (%s at %s %d->%d) passed translation validation",
					mu.name, site.Fn, site.From, site.To)
			}
			var ve *compile.ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("want *compile.ValidationError, got %T: %v", err, err)
			}
			if ve.Routine != site.Fn || ve.From != site.From || ve.To != site.To {
				t.Errorf("error names %s %d->%d, mutation was at %s %d->%d",
					ve.Routine, ve.From, ve.To, site.Fn, site.From, site.To)
			}
			if ve.Field != mu.field {
				t.Errorf("error field %q, want %q", ve.Field, mu.field)
			}
			if !strings.Contains(err.Error(), site.Fn) {
				t.Errorf("error %q does not name the routine %q", err, site.Fn)
			}
		})
	}
}
