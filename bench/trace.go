package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one interval the traced run recorded around a call into a
// layer. Start and End are nanoseconds since the span log began; Parent
// is the id of the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps a traced run's spans in memory until the benchmark ends.
// A nil *spanLog records nothing, which is how untraced reps run the same
// code with tracing off. Cells of a sweep record concurrently, hence the
// lock.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished interval and returns its id.
func (l *spanLog) add(parent int, name, label string, start time.Time, d time.Duration) int {
	if l == nil {
		return 0
	}
	s := start.Sub(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Label: label, Start: s, End: s + d.Nanoseconds()})
	return id
}

// begin opens a span whose end is set by finish.
func (l *spanLog) begin(parent int, name, label string) int {
	return l.add(parent, name, label, time.Now(), 0)
}

func (l *spanLog) finish(id int) {
	if l == nil {
		return
	}
	end := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

// absorb copies the engine's own phase spans (sim.Metrics records one per
// phase per simulated day into tr) under parent: each "day" span becomes
// a child of parent, and the phases of that day its children.
func (l *spanLog) absorb(parent int, tr *obs.Tracer) error {
	if l == nil || tr == nil {
		return nil
	}
	recorded := tr.Spans()
	if int64(len(recorded)) != tr.Total() {
		return fmt.Errorf("engine trace ring dropped %d spans", tr.Total()-int64(len(recorded)))
	}
	days := map[string]int{}
	for _, s := range recorded {
		if s.Name == "day" {
			days[s.Label] = l.add(parent, "day", s.Label, s.Start, s.Dur)
		}
	}
	for _, s := range recorded {
		if s.Name == "day" {
			continue
		}
		day, ok := days[s.Label]
		if !ok {
			return fmt.Errorf("engine span %s on %s has no day span", s.Name, s.Label)
		}
		l.add(day, s.Name, s.Label, s.Start, s.Dur)
	}
	return nil
}

// snapshot returns a copy of the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

func (l *spanLog) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// subtree returns the spans under root (root included).
func subtree(spans []span, root int) []span {
	in := map[int]bool{root: true}
	var out []span
	for _, s := range spans { // parents are always recorded before children
		if in[s.ID] || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time of the spans:
// each span's duration minus the part of its interval its children cover.
// Children that overlap each other (sweep cells in flight together) are
// merged before subtracting.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// sumDur sums the durations of the spans named name.
func sumDur(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}
