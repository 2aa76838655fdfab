package lockstep

import (
	"slices"
	"testing"

	"repro/internal/randx"
)

// benchEvents builds the standard synthetic workload: 120 workers in
// lockstep over 25 advertised apps against 1,500 organic devices across a
// 2,000-app catalog (~14k events).
func benchEvents(b *testing.B) ([]Event, map[string]bool) {
	b.Helper()
	r := randx.New(1234)
	return synth(r, 120, 1500, 25, 2000)
}

// BenchmarkLockstepIngest measures the full detection pipeline on a
// pre-built event stream: ingest of every event plus group extraction
// (DESIGN.md E6; the online tail consumer pays exactly this cost spread
// across the run).
func BenchmarkLockstepIngest(b *testing.B) {
	events, _ := benchEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := Detect(events, DefaultConfig())
		if len(groups) == 0 {
			b.Fatal("no groups detected")
		}
	}
}

// BenchmarkDetectorGroupsPerDay measures the online consumption pattern
// of examples/monitoring and the run-log tail: the same workload streamed
// in day order, with a Groups extraction after every day.
func BenchmarkDetectorGroupsPerDay(b *testing.B) {
	events, _ := benchEvents(b)
	slices.SortStableFunc(events, func(x, y Event) int { return int(x.Day) - int(y.Day) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDetector(DefaultConfig())
		var groups []Group
		for j, ev := range events {
			d.IngestEvent(ev)
			if j == len(events)-1 || events[j+1].Day != ev.Day {
				groups = d.Groups()
			}
		}
		if len(groups) == 0 {
			b.Fatal("no groups detected")
		}
	}
}
