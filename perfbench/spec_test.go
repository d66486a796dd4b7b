package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := schedule(7, 5*time.Second)
	if b := schedule(7, 5*time.Second); !reflect.DeepEqual(a, b) {
		t.Errorf("the same seed gave two schedules")
	}
	if c := schedule(8, 5*time.Second); reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 gave the same schedule")
	}
}

func TestScheduleRatesAndOrder(t *testing.T) {
	const dur = 60 * time.Second
	for _, seed := range []int64{1, 2, 3} {
		arr := schedule(seed, dur)
		var pubs, reads int
		keys := map[string]bool{}
		for i, a := range arr {
			if i > 0 && a.at < arr[i-1].at {
				t.Fatalf("seed %d: arrival %d is due before arrival %d", seed, i, i-1)
			}
			if a.at >= dur {
				t.Fatalf("seed %d: arrival due at %v, after the phase", seed, a.at)
			}
			if a.publish {
				pubs++
				if keys[a.key] {
					t.Fatalf("seed %d: idempotency key %s repeats", seed, a.key)
				}
				keys[a.key] = true
			} else {
				reads++
			}
		}
		// Poisson counts: within 5 standard deviations of the mean.
		for _, c := range []struct {
			kind string
			got  int
			rate float64
		}{{"publishes", pubs, pubRate}, {"reads", reads, readRate}} {
			want := c.rate * dur.Seconds()
			if d := float64(c.got) - want; d*d > 25*want {
				t.Errorf("seed %d: %d %s, want about %.0f", seed, c.got, c.kind, want)
			}
		}
	}
}

func TestDispatchOrderIsASeededPermutation(t *testing.T) {
	progs := []string{"vpr", "mcf", "crafty", "parser", "gap", "swim"}
	a, b := dispatchOrder(progs, 3), dispatchOrder(progs, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the same seed gave %v and %v", a, b)
	}
	if c := dispatchOrder(progs, 4); reflect.DeepEqual(a, c) {
		t.Errorf("seeds 3 and 4 gave the same order %v", a)
	}
	seen := map[string]bool{}
	for _, p := range a {
		seen[p] = true
	}
	if len(a) != len(progs) || len(seen) != len(progs) {
		t.Errorf("%v is not a permutation of %v", a, progs)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, name: "root", start: at(0), end: at(100)},
		// Two overlapping children cover [10, 50); a third runs past
		// the parent's end and is clipped to [90, 100).
		{id: 2, parent: 1, name: "a", start: at(10), end: at(40)},
		{id: 3, parent: 1, name: "b", start: at(20), end: at(50)},
		{id: 4, parent: 1, name: "c", start: at(90), end: at(120)},
		{id: 5, parent: 2, name: "d", start: at(15), end: at(25)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * time.Millisecond, 2: 20 * time.Millisecond,
		3: 30 * time.Millisecond, 4: 30 * time.Millisecond, 5: 10 * time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}
