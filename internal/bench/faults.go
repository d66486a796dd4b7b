package bench

import (
	"fmt"
	"io"
	"time"

	"pathprof/internal/faultinject"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
)

// Guard parameters for fault-injected runs. Retries give clean pre-run
// faults a second and third chance; the deadline (only armed when the
// stall kind is active) quarantines replicas that wedge.
const (
	FaultRetries  = 2
	FaultDeadline = 25 * time.Millisecond
	FaultStall    = 3 * FaultDeadline
)

// FaultGuard adapts a deterministic injector into vm guarded-mode
// configuration. Fault decisions are keyed by replica index (and
// attempt, for panics), never by worker, so the injected fault set —
// and therefore the surviving merge — is identical at every worker
// count.
//
// Kinds map to guard behaviors as follows: Panic panics in the pre-run
// hook (a clean fault, retried up to FaultRetries); Stall sleeps past
// the replica deadline (quarantining the shard); Overflow preloads the
// entry routine's counters at profile.CounterMax so the run saturates
// (overflowFns names the routines to poison). Nil or kind-less
// injectors yield a guard that never fires.
//
// Every fired fault is also recorded in tr (nil disables this) as an
// EvFaultInject event under unit, keyed by replica so the recorded
// fault set matches the injected one at any worker count.
func FaultGuard(inj *faultinject.Injector, overflowFns []string, tr *telemetry.Trace, unit string) *vm.GuardConfig {
	g := &vm.GuardConfig{ReplicaRetries: FaultRetries}
	if inj != nil && inj.Active(faultinject.Stall) {
		g.ReplicaDeadline = FaultDeadline
	}
	emit := func(ctx vm.FaultContext, kind faultinject.Kind, detail string) {
		if tr == nil {
			return
		}
		tr.Emit(telemetry.Event{
			Unit:    unit,
			Routine: fmt.Sprintf("replica-%d", ctx.Replica),
			Kind:    telemetry.EvFaultInject,
			Detail: fmt.Sprintf("%s at replica %d attempt %d (seed %d): %s",
				kind, ctx.Replica, ctx.Attempt, inj.Seed(), detail),
		})
	}
	g.FaultHook = func(ctx vm.FaultContext) error {
		if inj == nil {
			return nil
		}
		site := uint64(ctx.Replica)
		if inj.Active(faultinject.Panic) && inj.Hit(faultinject.Panic, site*4+uint64(ctx.Attempt)) {
			emit(ctx, faultinject.Panic, "pre-run hook panics")
			panic(fmt.Sprintf("injected panic: replica %d attempt %d", ctx.Replica, ctx.Attempt))
		}
		if inj.Active(faultinject.Stall) && inj.Hit(faultinject.Stall, site) {
			emit(ctx, faultinject.Stall, "replica stalls past its deadline")
			time.Sleep(FaultStall)
		}
		if inj.Active(faultinject.Overflow) && ctx.Attempt == 0 && inj.Hit(faultinject.Overflow, site) {
			emit(ctx, faultinject.Overflow, "counters preloaded to saturation")
			for _, fn := range overflowFns {
				ep := ctx.Sink.EdgeProfile(fn)
				ep.Add(0, 1, profile.CounterMax)
				ep.Add(0, 1, 1)
			}
		}
		return nil
	}
	return g
}

// FaultsReport runs the representative workload trio under guarded
// replication with the given fault specification and reports how
// collection degrades: surviving replicas, quarantined shards,
// saturated routines, and whether the degraded merge is reproducible —
// two runs with the same spec and worker count must produce
// bit-identical snapshots. (Across different worker counts the surviving set may legitimately differ:
// the quarantine unit is the shard, and shard boundaries move with the
// worker count.) A run that loses every shard is reported, not fatal:
// total quarantine is a legitimate degraded outcome.
func (s *Suite) FaultsReport(w io.Writer, spec string, replicas int) error {
	inj, err := faultinject.Parse(spec)
	if err != nil {
		return err
	}
	if replicas <= 0 {
		replicas = DefaultThroughputReplicas
	}
	sel := s.throughputWorkloads()
	fmt.Fprintf(w, "Fault injection: %s over %d replicas (guard: %d retries, %v deadline when stalling)\n",
		inj, replicas, FaultRetries, FaultDeadline)
	fmt.Fprintf(w, "%-10s %9s %6s %9s %9s  %s\n",
		"bench", "survived", "lost", "saturated", "merge", "faults")
	for _, wl := range sel {
		wr, err := s.Run(wl.Name)
		if err != nil {
			return err
		}
		entry := wr.Staged.Pipeline.Entry
		if entry == "" {
			entry = "main"
		}
		unit := wl.Name + "/faults"
		guard := FaultGuard(inj, []string{entry}, s.Telemetry.Trace(), unit)
		opts := vm.Options{
			CollectEdges: true, CollectPaths: true, Guard: guard,
			Trace: s.Telemetry.Trace(), TraceUnit: unit,
		}

		var faults []vm.ShardFault
		survived, lost, saturated := 0, 0, 0
		merge := "identical"
		var fps []uint64
		for rep := 0; rep < 2; rep++ {
			rr, rerr := vm.RunReplicated(wr.Staged.Prog, opts, replicas, 4)
			if rerr != nil {
				merge = "all shards quarantined"
				survived, lost = 0, replicas
				faults = nil
				break
			}
			survived, lost = rr.Survivors(), rr.LostReplicas
			saturated = len(rr.Merged.SaturatedRoutines())
			faults = rr.Faults
			fps = append(fps, rr.Merged.Fingerprint())
		}
		for _, f := range fps {
			if f != fps[0] {
				merge = "DIVERGED"
			}
		}
		fmt.Fprintf(w, "%-10s %6d/%-2d %6d %9d %9s  %d\n",
			wl.Name, survived, replicas, lost, saturated, merge, len(faults))
		for _, f := range faults {
			fmt.Fprintf(w, "           - %v\n", f)
		}
	}
	return nil
}
