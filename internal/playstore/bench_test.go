package playstore

import (
	"fmt"
	"testing"

	"repro/internal/dates"
)

// benchChartStore builds a store with napps apps carrying days of realistic
// mixed activity (installs, sessions, purchases), ending the day before
// benchDay, so StepDay(benchDay) scores a fully warm trailing window.
func benchChartStore(b *testing.B, napps, days int) (*Store, []string, dates.Date) {
	b.Helper()
	s := New(dates.StudyStart)
	s.AddDeveloper(Developer{ID: "d", Name: "Bench"})
	genres := []string{"Puzzle", "Arcade", "Tools", "Casual", "Finance"}
	pkgs := make([]string, napps)
	for i := range pkgs {
		pkgs[i] = fmt.Sprintf("bench.chart.n%05d", i)
		if err := s.Publish(Listing{
			Package: pkgs[i], Title: "B", Genre: genres[i%len(genres)],
			Developer: "d", Released: dates.StudyStart,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for d := 0; d < days; d++ {
		day := dates.StudyStart.AddDays(d)
		for i, pkg := range pkgs {
			// Deterministic, app-varied volumes; every app is active so
			// the chart pass scores the whole catalog.
			n := int64(1 + (i+d)%17)
			if err := s.RecordInstallBatch(pkg, day, n, SourceOrganic, 0.05); err != nil {
				b.Fatal(err)
			}
			if err := s.RecordSessionBatch(pkg, day, n*2, 120); err != nil {
				b.Fatal(err)
			}
			if i%3 == 0 {
				if err := s.RecordPurchase(pkg, Purchase{Day: day, USD: float64(1+i%5) * 0.99}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return s, pkgs, dates.StudyStart.AddDays(days)
}

// BenchmarkStepDayScale isolates the daily chart/window pass over a
// catalog-sized store: per-app trailing-window aggregation, scoring, and
// the top-K merge, with no enforcer and no engine on the clock
// (DESIGN.md E4). It also reports the arenas' column bytes per reserved
// app-day (col_bytes/app-day), an exact count: 40 for the five dense
// columns, plus the referral pair's share, which is 0 here.
func BenchmarkStepDayScale(b *testing.B) {
	s, _, benchDay := benchChartStore(b, 4096, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepDay(benchDay)
	}
	b.StopTimer()
	bytes, slots := arenaColumnBytes(s)
	b.ReportMetric(float64(bytes)/float64(slots), "col_bytes/app-day")
}

// arenaColumnBytes returns the bytes the store's column arenas hold and
// how many app-day slots their dense columns reserve.
func arenaColumnBytes(s *Store) (bytes, slots int) {
	for i := range s.shards {
		ar := &s.shards[i].cols
		slots += cap(ar.organic)
		bytes += 8 * (cap(ar.organic) + cap(ar.fraudSum) + cap(ar.sessions) + cap(ar.sessionSec) + cap(ar.revenue) +
			cap(ar.referral) + cap(ar.removed))
	}
	return bytes, slots
}

// BenchmarkAppWindow isolates the trailing-window aggregation for one app
// with a long activity history (DESIGN.md E4). "warm" repeats the same end
// day (the StepDay access pattern after the first app of a day); "scan"
// queries a window ending one day earlier, which always takes the
// general path; "clawback" is the enforcer's 30-day window.
func BenchmarkAppWindow(b *testing.B) {
	s, pkgs, benchDay := benchChartStore(b, 1, 60)
	sh := s.shardFor(pkgs[0])
	sh.mu.Lock()
	a := sh.apps[pkgs[0]]
	sh.mu.Unlock()
	end := benchDay.AddDays(-1)
	var sink windowMetrics
	b.Run("warm7", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = a.window(end, 7)
		}
	})
	b.Run("scan7", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = a.window(end.AddDays(-1), 7)
		}
	})
	b.Run("clawback30", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = a.window(end, 30)
		}
	})
	_ = sink
}

// BenchmarkChartRank measures the per-app chart-presence lookup the
// organic phase performs once per app per simulated day (DESIGN.md E4).
func BenchmarkChartRank(b *testing.B) {
	s, pkgs, benchDay := benchChartStore(b, 512, 8)
	s.StepDay(benchDay)
	onChart := s.Chart(ChartTopFree)[0].Package
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.ChartRank(ChartTopFree, benchDay, onChart) == 0 {
				b.Fatal("expected on-chart app")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.ChartRank(ChartTopFree, benchDay, pkgs[len(pkgs)-1]+".absent") != 0 {
				b.Fatal("expected absent app")
			}
		}
	})
}
