package playstore

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/dates"
	"repro/internal/randx"
)

// refWindow is the reference trailing-window aggregation: the seed
// engine's semantics (sum every field over existing days in ascending day
// order), written against the row view so it is independent of the
// rolling-window fast path it checks.
func refWindow(a *app, end dates.Date, days int) windowMetrics {
	var w windowMetrics
	for d := end.AddDays(-(days - 1)); d <= end; d++ {
		m, ok := a.metricsAt(d)
		if !ok {
			continue
		}
		w.installs += m.organic + m.referral
		w.referral += m.referral
		w.fraudSum += m.fraudSum
		w.sessions += m.sessions
		w.sessionSec += m.sessionSec
		w.revenue += m.revenue
		w.dau += m.activeUser
	}
	return w
}

func appOf(t *testing.T, s *Store, pkg string) *app {
	t.Helper()
	sh := s.shardFor(pkg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a := sh.apps[pkg]
	if a == nil {
		t.Fatalf("app %s not found", pkg)
	}
	return a
}

// TestDenseWindowMatchesReference drives the store through an adversarial
// write pattern — day gaps, out-of-order writes, writes before the first
// active day, a snapshot round trip — and checks after every step that the
// rolling-window fast path agrees bit-for-bit with the reference summation
// for the chart window, the trend window, and the clawback window, and
// that the rolling previous-window sums agree with it exactly.
func TestDenseWindowMatchesReference(t *testing.T) {
	s := New(dates.StudyStart)
	s.AddDeveloper(Developer{ID: "d"})
	const pkg = "dense.app"
	if err := s.Publish(Listing{Package: pkg, Title: "D", Genre: "Puzzle", Developer: "d"}); err != nil {
		t.Fatal(err)
	}
	r := randx.New(7)
	d0 := dates.StudyStart
	// Offsets deliberately include backward jumps, a pre-base write,
	// anchor gaps of 1-6, 7-13 and 14 or more days, and back-dated
	// session writes (steps 18 and 22) into the previous window.
	offsets := []int{5, 5, 6, 9, 2, 30, 29, 31, -3, 31, 60, 58, 61, 61, 0, 90,
		100, 95, 92, 99, 117, 112, 110, 150, 140, 153}
	const roundTripStep = 12
	// checkPrev compares the rolling previous-window sums, and the trend
	// query at end, with the reference.
	checkPrev := func(step int, a *app, end dates.Date) {
		t.Helper()
		if a.n == 0 {
			return
		}
		if want := refWindow(a, a.winEnd.AddDays(-chartWindowDays), chartWindowDays).trend(); a.prev != want {
			t.Fatalf("step %d (anchor %s): prev = %+v, want %+v", step, a.winEnd, a.prev, want)
		}
		if got, want := a.trend(end), refWindow(a, end.AddDays(-chartWindowDays), chartWindowDays).trend(); got != want {
			t.Fatalf("step %d: trend(%s) = %+v, want %+v", step, end, got, want)
		}
	}
	// gaps counts anchor advances by class: 1-6, 7-13 and 14+ days.
	var gaps [3]int
	countGap := func(from, to dates.Date) {
		switch g := int(to - from); {
		case g <= 0:
		case g < chartWindowDays:
			gaps[0]++
		case g < 2*chartWindowDays:
			gaps[1]++
		default:
			gaps[2]++
		}
	}
	intoPrev := 0 // session writes that landed in the previous window
	for step, off := range offsets {
		if step == roundTripStep {
			snap := s.EncodeSnapshot()
			restored, err := DecodeSnapshot(snap)
			if err != nil {
				t.Fatalf("step %d: decoding snapshot: %v", step, err)
			}
			if !bytes.Equal(restored.EncodeSnapshot(), snap) {
				t.Fatalf("step %d: snapshot round trip is not byte-identical", step)
			}
			s = restored
			a := appOf(t, s, pkg)
			checkPrev(step, a, a.winEnd)
		}
		day := d0.AddDays(off)
		before := appOf(t, s, pkg)
		anchor, placed := before.winEnd, before.n > 0
		if placed && step%4 == 2 && day <= anchor.AddDays(-chartWindowDays) && day > anchor.AddDays(-2*chartWindowDays) {
			intoPrev++
		}
		switch step % 4 {
		case 0:
			if err := s.RecordInstall(pkg, Install{Day: day, Source: SourceReferral, FraudScore: r.Float64()}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := s.RecordInstallBatch(pkg, day, int64(1+r.IntN(50)), SourceOrganic, r.Float64()); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := s.RecordSessionBatch(pkg, day, int64(1+r.IntN(20)), int64(30+r.IntN(300))); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := s.RecordPurchase(pkg, Purchase{Day: day, USD: r.Float64() * 9.99}); err != nil {
				t.Fatal(err)
			}
		}
		a := appOf(t, s, pkg)
		if placed {
			countGap(anchor, a.winEnd)
		}
		checkPrev(step, a, a.winEnd)
		anchor = a.winEnd
		for _, q := range []struct {
			end  dates.Date
			days int
		}{
			{day, chartWindowDays},                           // hot StepDay/enforcer query
			{day.AddDays(-chartWindowDays), chartWindowDays}, // trend window
			{day.AddDays(3), chartWindowDays},                // query beyond newest write
			{day, 30},                                        // enforcer clawback window
		} {
			got := a.window(q.end, q.days)
			want := refWindow(a, q.end, q.days)
			if got != want {
				t.Fatalf("step %d (day %s): window(%s, %d) = %+v, want %+v",
					step, day, q.end, q.days, got, want)
			}
			if math.Float64bits(got.fraudSum) != math.Float64bits(want.fraudSum) ||
				math.Float64bits(got.revenue) != math.Float64bits(want.revenue) {
				t.Fatalf("step %d: float bits differ: %+v vs %+v", step, got, want)
			}
		}
		countGap(anchor, a.winEnd)
		checkPrev(step, a, a.winEnd)
		checkPrev(step, a, day)
	}
	if gaps[0] == 0 || gaps[1] == 0 || gaps[2] == 0 || intoPrev == 0 {
		t.Fatalf("write pattern covers anchor gaps %v (1-6, 7-13, 14+) and %d previous-window writes; want all nonzero",
			gaps, intoPrev)
	}
}

// TestDenseStorageGrowth checks the grow-on-write geometry: slots are
// anchored at the first active day, gaps are zero-filled, and a write
// before the anchor re-bases without losing data.
func TestDenseStorageGrowth(t *testing.T) {
	s := New(dates.StudyStart)
	s.AddDeveloper(Developer{ID: "d"})
	if err := s.Publish(Listing{Package: "g.app", Title: "G", Genre: "Tools", Developer: "d"}); err != nil {
		t.Fatal(err)
	}
	d0 := dates.StudyStart
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.RecordInstall("g.app", Install{Day: d0.AddDays(10), Source: SourceOrganic}))
	must(s.RecordInstall("g.app", Install{Day: d0.AddDays(14), Source: SourceReferral}))
	must(s.RecordInstall("g.app", Install{Day: d0.AddDays(6), Source: SourceOrganic})) // before base

	a := appOf(t, s, "g.app")
	if a.base != d0.AddDays(6) {
		t.Errorf("base = %s, want %s", a.base, d0.AddDays(6))
	}
	if a.n != 9 { // days 6..14 inclusive
		t.Errorf("dense length = %d, want 9", a.n)
	}
	for off, want := range map[int]int64{6: 1, 10: 1, 14: 1, 7: 0, 13: 0} {
		m, ok := a.metricsAt(d0.AddDays(off))
		if !ok {
			t.Fatalf("day +%d missing from dense range", off)
		}
		if m.organic+m.referral != want {
			t.Errorf("day +%d installs = %d, want %d", off, m.organic+m.referral, want)
		}
	}
	if _, ok := a.metricsAt(d0.AddDays(5)); ok {
		t.Error("metricsAt must miss below the dense range")
	}
	if _, ok := a.metricsAt(d0.AddDays(15)); ok {
		t.Error("metricsAt must miss above the dense range")
	}
	if n, _ := s.ExactInstalls("g.app"); n != 3 {
		t.Errorf("installs = %d, want 3", n)
	}
}

// TestTopKMatchesFullSort fuzzes the bounded selection against the seed
// engine's sort-then-truncate ranking, including heavy score ties (the
// package-name tiebreak) and k larger than the candidate count.
func TestTopKMatchesFullSort(t *testing.T) {
	r := randx.New(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(400)
		k := 1 + r.IntN(250)
		apps := make([]scoredApp, n)
		for i := range apps {
			// Few distinct scores => many ties exercising the tiebreak.
			apps[i] = scoredApp{
				pkg:   fmt.Sprintf("app.%03d", i),
				score: float64(1 + r.IntN(8)),
			}
		}

		ref := append([]scoredApp(nil), apps...)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].score != ref[j].score {
				return ref[i].score > ref[j].score
			}
			return ref[i].pkg < ref[j].pkg
		})
		if len(ref) > k {
			ref = ref[:k]
		}

		tk := newTopK(k)
		for _, e := range apps {
			tk.push(e)
		}
		got := tk.ranked()
		if len(got) != len(ref) {
			t.Fatalf("trial %d: topK kept %d, want %d", trial, len(got), len(ref))
		}
		for i := range got {
			if got[i].Package != ref[i].pkg || got[i].Score != ref[i].score || got[i].Rank != i+1 {
				t.Fatalf("trial %d: rank %d = %+v, want {%s %g}",
					trial, i+1, got[i], ref[i].pkg, ref[i].score)
			}
		}
	}
}

// TestChartRanksIndex checks the O(1) rank index behind ChartRank agrees
// with the chart entries of the day, ChartOn and Chart alike, and is
// absent for unstepped days.
func TestChartRanksIndex(t *testing.T) {
	s := New(dates.StudyStart)
	s.AddDeveloper(Developer{ID: "d"})
	for i := 0; i < 30; i++ {
		pkg := fmt.Sprintf("rank.app.%02d", i)
		if err := s.Publish(Listing{Package: pkg, Title: "R", Genre: "Puzzle", Developer: "d"}); err != nil {
			t.Fatal(err)
		}
		if err := s.RecordInstallBatch(pkg, dates.StudyStart, int64(1+i), SourceOrganic, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	s.SetChartSize(10)
	s.StepDay(dates.StudyStart)

	on := s.ChartOn(ChartTopFree, dates.StudyStart)
	chart := s.Chart(ChartTopFree)
	if len(chart) != 10 || len(on) != 10 {
		t.Fatalf("chart %d entries, ChartOn %d entries, want 10/10", len(chart), len(on))
	}
	ranked := 0
	for i, e := range chart {
		if on[i] != e {
			t.Errorf("ChartOn entry %d = %+v, want %+v", i, on[i], e)
		}
		if got := s.ChartRank(ChartTopFree, dates.StudyStart, e.Package); got != e.Rank {
			t.Errorf("ChartRank(%s) = %d, want %d", e.Package, got, e.Rank)
		}
	}
	for i := 0; i < 30; i++ {
		if s.ChartRank(ChartTopFree, dates.StudyStart, fmt.Sprintf("rank.app.%02d", i)) > 0 {
			ranked++
		}
	}
	if ranked != 10 {
		t.Errorf("%d apps have a rank, want the chart's 10", ranked)
	}
	if s.ChartRank(ChartTopFree, dates.StudyStart, "rank.app.00") != 0 {
		t.Error("app below the cut must be absent from the index")
	}
	if s.ChartOn(ChartTopFree, dates.StudyStart.AddDays(1)) != nil ||
		s.ChartRank(ChartTopFree, dates.StudyStart.AddDays(1), chart[0].Package) != 0 {
		t.Error("unstepped day must have no chart and no rank index")
	}
}

// TestConsoleEdgeCases covers the preallocated Console result: an empty
// (inverted) range, a range with no recorded activity, and a range
// overlapping activity on both sides.
func TestConsoleEdgeCases(t *testing.T) {
	s := New(dates.StudyStart)
	s.AddDeveloper(Developer{ID: "d"})
	if err := s.Publish(Listing{Package: "c.app", Title: "C", Genre: "Tools", Developer: "d"}); err != nil {
		t.Fatal(err)
	}
	d0 := dates.StudyStart

	// Inverted range: empty result, no error.
	out, err := s.Console("c.app", d0.AddDays(5), d0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("inverted range returned %d days, want 0", len(out))
	}

	// App with no activity at all: every day present and zero.
	out, err = s.Console("c.app", d0, d0.AddDays(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("len = %d, want 4", len(out))
	}
	for i, cd := range out {
		if cd.Day != d0.AddDays(i) || cd.Organic != 0 || cd.Referral != 0 || cd.Removed != 0 {
			t.Errorf("day %d = %+v, want zero ConsoleDay for %s", i, cd, d0.AddDays(i))
		}
	}

	// Activity on one day; querying a window extending past both ends of
	// the dense range must yield zeros outside it.
	if err := s.RecordInstall("c.app", Install{Day: d0.AddDays(2), Source: SourceReferral}); err != nil {
		t.Fatal(err)
	}
	out, err = s.Console("c.app", d0.AddDays(1), d0.AddDays(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Referral != 0 || out[1].Referral != 1 || out[2].Referral != 0 {
		t.Errorf("console = %+v, want referral only on the middle day", out)
	}
}
