package bench

import (
	"fmt"
	"io"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/vm"
)

// PlacementWorkers are the worker counts the placement head-to-head
// sweeps (the issue's 1/2/4/8 ladder).
var PlacementWorkers = []int{1, 2, 4, 8}

// PlacementCell is one profiler x placement measurement for a
// workload: modeled edge-acquisition overhead from a single
// instrumented run, and wall clock accumulated across the replicated
// sweep (PlacementWorkers).
type PlacementCell struct {
	OverheadPct float64 `json:"overhead_pct"`
	Secs        float64 `json:"seconds"`
}

// PlacementProfiler is one profiler's spanning-vs-mincost pair. The
// path plan — and so StaticOps — is identical under either placement;
// only edge-counter acquisition differs.
type PlacementProfiler struct {
	Profiler  string        `json:"profiler"`
	StaticOps int           `json:"static_ops"`
	Spanning  PlacementCell `json:"spanning"`
	MinCost   PlacementCell `json:"mincost"`
}

// PlacementRow is one workload's comparison. Probe-site counts are a
// property of the CFGs alone (every routine gets a probe spec,
// instrumented or not), so they live at the row, not per profiler.
type PlacementRow struct {
	Workload      string              `json:"workload"`
	SpanningSites int                 `json:"spanning_sites"`
	MinCostSites  int                 `json:"mincost_sites"`
	Profilers     []PlacementProfiler `json:"profilers"`
}

// PlacementReport is the paper-style head-to-head of edge-count
// acquisition strategies under each path profiler: full per-transition
// counters (spanning) against min-cost cotree-chord probes with
// Kirchhoff recovery (mincost). Every mincost snapshot is recovered
// with vm.RecoverEdges and must fingerprint identically to the
// spanning run — Divergent lists violations and must stay empty.
type PlacementReport struct {
	Replicas     int            `json:"replicas"`
	Workers      []int          `json:"workers"`
	Workloads    int            `json:"workloads"`
	Rows         []PlacementRow `json:"rows"`
	SiteWins     int            `json:"site_win_workloads"`
	SpanningSecs float64        `json:"spanning_seconds"`
	MinCostSecs  float64        `json:"mincost_seconds"`
	Divergent    []string       `json:"divergent,omitempty"`
}

// placementModes pairs the report's two placements with JSON-stable
// names, in presentation order.
var placementModes = []struct {
	Name string
	Pl   instr.Placement
}{
	{"spanning", instr.PlaceSpanning},
	{"mincost", instr.PlaceMinCost},
}

// PlacementCompare measures every workload under PP/TPP/PPP with both
// probe placements: one costed run per cell for the modeled overhead,
// then vm.RunReplicated at PlacementWorkers for wall clock and the
// recovery bit-identity check.
func (s *Suite) PlacementCompare(replicas int) (*PlacementReport, error) {
	if replicas <= 0 {
		replicas = DefaultThroughputReplicas
	}
	rep := &PlacementReport{Replicas: replicas, Workers: PlacementWorkers, Workloads: len(s.Workloads)}
	for _, wl := range s.Workloads {
		wr, err := s.Run(wl.Name)
		if err != nil {
			return nil, err
		}
		row := PlacementRow{Workload: wl.Name}
		for _, prof := range core.Profilers() {
			pp := PlacementProfiler{Profiler: prof.Name}
			// The merged fingerprint after recovery must agree across
			// every cell of this profiler: both placements, every worker
			// count.
			var want uint64
			haveWant := false
			for _, mode := range placementModes {
				plans, err := wr.Staged.PlansFor(prof.Name, prof.Tech, mode.Pl)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", wl.Name, prof.Name, mode.Name, err)
				}
				if prof.Name == "PP" {
					// Site counts are placement properties of the CFGs
					// alone, identical across profilers; record them once
					// per workload.
					n := 0
					for _, p := range plans {
						n += p.StaticEdgeSites()
					}
					if mode.Pl == instr.PlaceMinCost {
						row.MinCostSites = n
					} else {
						row.SpanningSites = n
					}
				}
				cell := PlacementCell{}
				pipe := wr.Staged.Pipeline
				costed, err := vm.Run(wr.Staged.Prog, vm.Options{
					Costs: pipe.Costs, Entry: pipe.Entry, MaxSteps: pipe.MaxSteps,
					Plans: plans, EdgeInstrument: true,
					CollectEdges: true, CollectPaths: true,
				})
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: costed run: %w", wl.Name, prof.Name, mode.Name, err)
				}
				cell.OverheadPct = 100 * costed.Overhead()
				var elapsed time.Duration
				opts := vm.Options{
					Plans: plans, EdgeInstrument: true,
					CollectEdges: true, CollectPaths: true,
				}
				for _, par := range PlacementWorkers {
					rr, err := vm.RunReplicated(wr.Staged.Prog, opts, replicas, par)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/%s w=%d: %w",
							wl.Name, prof.Name, mode.Name, par, err)
					}
					elapsed += rr.Elapsed
					snap, err := vm.RecoverEdges(rr.Merged, plans)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/%s w=%d: %w",
							wl.Name, prof.Name, mode.Name, par, err)
					}
					fp := snap.Fingerprint()
					if !haveWant {
						want, haveWant = fp, true
					} else if fp != want {
						rep.Divergent = append(rep.Divergent,
							fmt.Sprintf("%s/%s placement=%s w=%d: %#x != %#x",
								wl.Name, prof.Name, mode.Name, par, fp, want))
					}
				}
				cell.Secs = elapsed.Seconds()
				switch mode.Pl {
				case instr.PlaceMinCost:
					pp.MinCost = cell
					rep.MinCostSecs += cell.Secs
				default:
					pp.Spanning = cell
					rep.SpanningSecs += cell.Secs
					for _, p := range plans {
						pp.StaticOps += p.StaticOps()
					}
				}
			}
			row.Profilers = append(row.Profilers, pp)
		}
		if row.MinCostSites < row.SpanningSites {
			rep.SiteWins++
		}
		rep.Rows = append(rep.Rows, row)
		s.logf("placement %s: sites %d -> %d", wl.Name, row.SpanningSites, row.MinCostSites)
	}
	return rep, nil
}

// PlacementTable renders the head-to-head: per workload, probe sites
// under each placement and the modeled edge-acquisition overhead per
// profiler, with the recovery bit-identity verdict.
func (s *Suite) PlacementTable(w io.Writer, replicas int) (*PlacementReport, error) {
	rep, err := s.PlacementCompare(replicas)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Probe placement head-to-head: spanning (full edge counters) vs mincost (cotree chords + recovery)\n")
	fmt.Fprintf(w, "%d workloads x %d replicas at workers %v\n", rep.Workloads, rep.Replicas, rep.Workers)
	fmt.Fprintf(w, "%-10s %8s %8s %6s  %s\n", "bench", "span", "minc", "sites", "overhead% span->minc (PP | TPP | PPP)")
	for _, row := range rep.Rows {
		pct := 0.0
		if row.SpanningSites > 0 {
			pct = 100 * float64(row.MinCostSites) / float64(row.SpanningSites)
		}
		fmt.Fprintf(w, "%-10s %8d %8d %5.1f%%", row.Workload, row.SpanningSites, row.MinCostSites, pct)
		for _, p := range row.Profilers {
			fmt.Fprintf(w, "  %s %5.1f->%-5.1f", p.Profiler, p.Spanning.OverheadPct, p.MinCost.OverheadPct)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "mincost has strictly fewer probe sites on %d/%d workloads\n", rep.SiteWins, rep.Workloads)
	fmt.Fprintf(w, "wall clock: spanning %.3fs, mincost %.3fs\n", rep.SpanningSecs, rep.MinCostSecs)
	fmt.Fprintf(w, "recovered fingerprints: ")
	if len(rep.Divergent) == 0 {
		fmt.Fprintf(w, "bit-identical to spanning across placements and worker counts\n")
		return rep, nil
	}
	fmt.Fprintf(w, "DIVERGED\n")
	for _, d := range rep.Divergent {
		fmt.Fprintf(w, "  %s\n", d)
	}
	return rep, fmt.Errorf("bench: %d placement fingerprint divergence(s)", len(rep.Divergent))
}
