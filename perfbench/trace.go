package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// layer by the benchmark. Spans of one operation (a program of a pass,
// or one publish) share op; parent links a span to the span that
// caused it (0 for an operation's root).
type span struct {
	id, parent int64
	name, op   string
	start, end time.Time
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per layer call.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span; call end on the result when the layer call
// returns.
func (r *recorder) begin(parent int64, name, op string) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, op: op, start: time.Now()})
	r.mu.Unlock()
	return openSpan{r: r, id: id}
}

// add records a span whose interval is already known and returns its
// ID.
func (r *recorder) add(parent int64, name, op string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, op: op, start: start, end: end})
	return id
}

type openSpan struct {
	r  *recorder
	id int64
}

func (s openSpan) end() {
	if s.r == nil {
		return
	}
	now := time.Now()
	s.r.mu.Lock()
	s.r.spans[s.id-1].end = now
	s.r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.end.Sub(s.start) - covered(s, kids[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([]span, len(children))
	copy(iv, children)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start.Before(iv[j].start) })
	var total time.Duration
	var curS, curE time.Time
	flush := func() {
		if curE.After(curS) {
			total += curE.Sub(curS)
		}
	}
	for i, c := range iv {
		s, e := c.start, c.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if i == 0 || s.After(curE) {
			if i > 0 {
				flush()
			}
			curS, curE = s, e
			continue
		}
		if e.After(curE) {
			curE = e
		}
	}
	flush()
	return total
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, microseconds from the first span). Each operation gets
// its own track; span and parent IDs ride in args.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	tracks := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	for i, s := range spans {
		tid, ok := tracks[s.op]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.op] = tid
		}
		b, err := json.Marshal(event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"op": s.op, "id": s.id, "parent": s.parent},
		})
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		w.Write(b)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
