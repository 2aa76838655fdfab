package crawler

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/apk"
	"repro/internal/dates"
	"repro/internal/playapi"
	"repro/internal/playstore"
	"repro/internal/randx"
)

// fixture: a store with two apps whose activity we script day by day.
type fixture struct {
	store *playstore.Store
	srv   *httptest.Server
	crawl *Crawler
	// conns counts the connections the store facade accepted.
	conns atomic.Int64
}

func newFixture(t testing.TB) *fixture {
	return newFixtureWith(t, nil)
}

// newFixtureWith interposes wrap, when non-nil, on the store facade.
func newFixtureWith(t testing.TB, wrap func(http.Handler) http.Handler) *fixture {
	t.Helper()
	store := playstore.New(dates.StudyStart)
	store.AddDeveloper(playstore.Developer{ID: "d", Name: "Dev Co", Country: "USA"})
	for _, pkg := range []string{"app.growing", "app.static"} {
		if err := store.Publish(playstore.Listing{
			Package: pkg, Title: pkg, Genre: "Puzzle", Developer: "d",
			Released: dates.StudyStart.AddDays(-100),
		}); err != nil {
			t.Fatal(err)
		}
	}
	store.SeedInstalls("app.growing", 450) // bin 100, close to 500 boundary
	store.SeedInstalls("app.static", 2000) // bin 1,000

	a, err := apk.Build(randx.New(9), "app.growing", []string{"AppLovin", "Vungle"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{store: store}
	h := playapi.New(store, map[string]apk.APK{"app.growing": a}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	f.srv = httptest.NewUnstartedServer(h)
	f.srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			f.conns.Add(1)
		}
	}
	f.srv.Start()
	t.Cleanup(f.srv.Close)
	f.crawl = New(f.srv.URL, []string{"app.growing", "app.static"})
	return f
}

// runDays steps the store n days; installsPerDay installs land on
// app.growing each day.
func (f *fixture) runDays(t testing.TB, n int, installsPerDay int) {
	t.Helper()
	for i := 0; i < n; i++ {
		day := dates.StudyStart.AddDays(i)
		for j := 0; j < installsPerDay; j++ {
			if err := f.store.RecordInstall("app.growing", playstore.Install{Day: day, Source: playstore.SourceReferral}); err != nil {
				t.Fatal(err)
			}
		}
		f.store.StepDay(day)
		if err := f.crawl.MaybeCrawl(day); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrawlEveryOtherDay(t *testing.T) {
	f := newFixture(t)
	f.runDays(t, 10, 0)
	days := f.crawl.Dataset().Days()
	if len(days) != 5 {
		t.Fatalf("crawl days = %d, want 5 (every other day over 10)", len(days))
	}
	for i := 1; i < len(days); i++ {
		if days[i].DaysSince(days[i-1]) != 2 {
			t.Errorf("crawl gap = %d days, want 2", days[i].DaysSince(days[i-1]))
		}
	}
}

func TestBinIncreaseDetection(t *testing.T) {
	f := newFixture(t)
	f.runDays(t, 10, 20) // +200 installs over 10 days: 450 -> 650 crosses 500
	ds := f.crawl.Dataset()
	w := dates.Range{Start: dates.StudyStart, End: dates.StudyStart.AddDays(9)}
	if !ds.BinIncreased("app.growing", w) {
		t.Error("growing app's bin increase not detected")
	}
	if ds.BinIncreased("app.static", w) {
		t.Error("static app should not show an increase")
	}
}

func TestBinSeriesAndAround(t *testing.T) {
	f := newFixture(t)
	f.runDays(t, 6, 20)
	ds := f.crawl.Dataset()
	series := ds.BinSeries("app.growing")
	if len(series) != 3 {
		t.Fatalf("series length = %d, want 3", len(series))
	}
	bin, ok := ds.BinAround("app.growing", dates.StudyStart)
	if !ok || bin != 100 {
		t.Errorf("initial bin = %d (ok=%v), want 100", bin, ok)
	}
	// Day between crawls resolves to the previous crawl.
	bin, ok = ds.BinAround("app.growing", dates.StudyStart.AddDays(3))
	if !ok || bin != series[1].Bin {
		t.Errorf("interpolated bin = %d, want %d", bin, series[1].Bin)
	}
	if _, ok := ds.BinAround("never.crawled", dates.StudyStart); ok {
		t.Error("uncrawled app should miss")
	}
}

func TestBinEverDecreased(t *testing.T) {
	f := newFixture(t)
	f.runDays(t, 4, 0)
	// Simulate enforcement: drop the count below the current bin.
	f.store.SeedInstalls("app.growing", 90)
	f.runDays(t, 2, 0) // continues days 4-5; crawl happens on day 4
	ds := f.crawl.Dataset()
	if !ds.BinEverDecreased("app.growing") {
		t.Error("bin decrease not detected")
	}
	if ds.BinEverDecreased("app.static") {
		t.Error("static app should show no decrease")
	}
}

func TestChartPresence(t *testing.T) {
	f := newFixture(t)
	f.runDays(t, 4, 50) // growing app charts via install velocity
	ds := f.crawl.Dataset()
	day := ds.Days()[1]
	if !ds.InAnyChartOn(day, "app.growing") {
		t.Error("growing app should chart")
	}
	if rank := ds.RankOn(playstore.ChartTopGames, day, "app.growing"); rank == 0 {
		t.Error("growing puzzle app should be in top-games")
	}
	if ds.RankOn("no-chart", day, "app.growing") != 0 {
		t.Error("unknown chart should rank 0")
	}
	w := dates.Range{Start: dates.StudyStart, End: dates.StudyStart.AddDays(3)}
	if !ds.InAnyChartDuring(w, "app.growing") {
		t.Error("InAnyChartDuring should find the app")
	}
}

func TestRankSeriesShape(t *testing.T) {
	f := newFixture(t)
	f.runDays(t, 8, 30)
	ds := f.crawl.Dataset()
	series := ds.RankSeries(playstore.ChartTopGames, "app.growing")
	if len(series) != len(ds.Days()) {
		t.Fatalf("series length = %d, want %d", len(series), len(ds.Days()))
	}
	nonzero := 0
	for _, p := range series {
		if p.Rank > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("rank series has no presence")
	}
}

func TestProfileMetadata(t *testing.T) {
	f := newFixture(t)
	f.runDays(t, 2, 0)
	doc, ok := f.crawl.Dataset().Profile("app.growing")
	if !ok {
		t.Fatal("profile missing")
	}
	if doc.Genre != "Puzzle" || doc.DeveloperName != "Dev Co" {
		t.Errorf("profile = %+v", doc)
	}
}

func TestDownloadAPK(t *testing.T) {
	f := newFixture(t)
	a, err := f.crawl.DownloadAPK("app.growing")
	if err != nil {
		t.Fatal(err)
	}
	if got := apk.CountAdLibraries(a); got != 2 {
		t.Errorf("ad libs = %d, want 2", got)
	}
	if _, err := f.crawl.DownloadAPK("app.static"); err == nil {
		t.Error("missing APK should error")
	}
}

func TestCrawlErrorPropagates(t *testing.T) {
	c := New("http://127.0.0.1:1", []string{"x"})
	if err := c.CrawlNow(dates.StudyStart); err == nil {
		t.Error("unreachable store should error")
	}
}
