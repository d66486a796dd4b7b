package main

import (
	"fmt"
	"math/rand"
	"time"
)

// spec is one named workload. Every workload runs the same three
// phases, so every metric is measured on every workload: reproduction
// passes over a program set, an open-loop service phase at fixed
// rates, and a closed-loop capacity phase. The shares split the run's
// measured seconds between the phases; a run makes at least minPasses
// passes whatever its pass share.
type spec struct {
	name string
	// programs is the reproduction pass's program set (nil = all 18).
	programs                          []string
	passShare, openShare, closedShare float64
}

// The service traffic every workload sends. The tenant is vpr, whose
// 88 KB snapshot makes an ack CPU-bound (decode, clone and merge)
// rather than fsync-bound, and the publish rate is ~17% of its ~35/s
// capacity: at higher rates, queueing amplified the host's
// run-to-run speed drift. Publishes and reads share conns connections.
const (
	tenant   = "vpr"
	pubRate  = 6.0
	readRate = 50.0
	conns    = 2
)

const (
	minPasses = 2
	// passWorkers is the reproduction pass's worker pool size.
	passWorkers = 2
	// closedCallers is the closed-loop capacity phase's caller count:
	// each publishes its next snapshot when the previous one is acked.
	closedCallers = 2
)

var specs = []spec{
	// The full 18-program reproduction: VM execution dominates, so vm
	// changes show in pipeline_s. Its service phases repeat
	// mixed-large's traffic, briefly.
	{name: "repro", passShare: 0.4, openShare: 0.4, closedShare: 0.2},
	// Mostly service: vpr's publishes at ~17% of capacity plus plan
	// reads at 50/s, where the admission decode and the commit's clone
	// and merge compete with planning on 2 cores.
	{name: "mixed-large", programs: []string{"vpr"}, passShare: 0.15, openShare: 0.6, closedShare: 0.25},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// profilers is the read rotation: GET /v1/plans/{tenant}?profiler=X.
var profilers = []string{"PP", "TPP", "PPP"}

// arrival is one scheduled open-loop request, due at offset at from
// the phase start.
type arrival struct {
	at       time.Duration
	publish  bool
	key      string // idempotency key (publishes)
	profiler string // PP, TPP or PPP (reads)
}

// schedule generates the open-loop phase's requests from the seed:
// Poisson publish and read arrivals over dur, merged in time order,
// with seeded idempotency keys and a seeded read rotation. The same
// seed always yields the same schedule.
func schedule(seed int64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var pubs, reads []arrival
	for t := poissonGap(rng, pubRate); t < dur; t += poissonGap(rng, pubRate) {
		pubs = append(pubs, arrival{at: t, publish: true, key: fmt.Sprintf("k%016x", rng.Uint64())})
	}
	rot := rng.Perm(len(profilers))
	for t := poissonGap(rng, readRate); t < dur; t += poissonGap(rng, readRate) {
		reads = append(reads, arrival{at: t, profiler: profilers[rot[len(reads)%len(rot)]]})
	}
	out := make([]arrival, 0, len(pubs)+len(reads))
	i, j := 0, 0
	for i < len(pubs) || j < len(reads) {
		if j == len(reads) || (i < len(pubs) && pubs[i].at <= reads[j].at) {
			out = append(out, pubs[i])
			i++
		} else {
			out = append(out, reads[j])
			j++
		}
	}
	return out
}

// poissonGap draws an exponential inter-arrival gap for rate per
// second.
func poissonGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// dispatchOrder is the seeded order in which a pass hands programs to
// its workers. Output order is fixed by the program set, not by this.
func dispatchOrder(names []string, seed int64) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]string, len(names))
	for i, p := range rng.Perm(len(names)) {
		out[i] = names[p]
	}
	return out
}
