package crawler

import (
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/playstore"
	"repro/internal/randx"
)

// repeated returns the fixture's two targets n times over, for passes
// with more fetches than the in-flight bound.
func repeated(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, "app.growing", "app.static")
	}
	return out
}

func TestCrawlFailureCommitsNothing(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	f := newFixtureWith(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failing.Load() && r.URL.Path == "/apps/app.static" {
				http.Error(w, "store down", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	d0 := dates.StudyStart
	f.store.StepDay(d0)
	if err := f.crawl.CrawlNow(d0); err == nil {
		t.Fatal("crawl with a failing target should error")
	}
	ds := f.crawl.Dataset()
	for _, pkg := range []string{"app.growing", "app.static"} {
		if s := ds.BinSeries(pkg); len(s) != 0 {
			t.Errorf("failed crawl committed bins for %s: %v", pkg, s)
		}
		if _, ok := ds.Profile(pkg); ok {
			t.Errorf("failed crawl committed a profile for %s", pkg)
		}
	}
	if days := ds.Days(); len(days) != 0 {
		t.Errorf("failed crawl recorded days %v", days)
	}
	for _, chart := range playstore.ChartNames {
		if _, ok := ds.charts[chart]; ok {
			t.Errorf("failed crawl committed chart %s", chart)
		}
	}

	failing.Store(false)
	d1 := d0.AddDays(1)
	f.store.StepDay(d1)
	if err := f.crawl.CrawlNow(d1); err != nil {
		t.Fatal(err)
	}
	if days := ds.Days(); !reflect.DeepEqual(days, []dates.Date{d1}) {
		t.Errorf("days = %v, want [%v]", days, d1)
	}
	if s := ds.BinSeries("app.static"); len(s) != 1 || s[0].Day != d1 {
		t.Errorf("bins after recovery = %v", s)
	}
}

func TestCrawlErrorNamesCanonicalFirstFailure(t *testing.T) {
	// Both profiles fail; the canonically first is delayed so that it is
	// also the last to arrive.
	f := newFixtureWith(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/apps/app.growing":
				time.Sleep(20 * time.Millisecond)
			case "/apps/app.static":
			default:
				next.ServeHTTP(w, r)
				return
			}
			http.Error(w, "store down", http.StatusInternalServerError)
		})
	})
	err := f.crawl.CrawlNow(dates.StudyStart)
	if err == nil {
		t.Fatal("crawl with failing targets should error")
	}
	if want := "profile app.growing"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the canonically first failure (%s)", err, want)
	}
}

// TestCrawlOrderFree scrambles response order and checks that the dataset
// matches an unscrambled crawl of the same store.
func TestCrawlOrderFree(t *testing.T) {
	run := func(wrap func(http.Handler) http.Handler) *Dataset {
		f := newFixtureWith(t, wrap)
		f.crawl = New(f.srv.URL, repeated(6))
		f.runDays(t, 8, 30)
		return f.crawl.Dataset()
	}
	want := run(nil)
	for seed := uint64(1); seed <= 3; seed++ {
		got := run(func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(time.Duration(randx.Unit01(seed, r.URL.String()) * float64(2*time.Millisecond)))
				next.ServeHTTP(w, r)
			})
		})
		if !reflect.DeepEqual(got.profiles, want.profiles) || !reflect.DeepEqual(got.bins, want.bins) ||
			!reflect.DeepEqual(got.charts, want.charts) || !reflect.DeepEqual(got.days, want.days) {
			t.Errorf("seed %d: scrambled crawl differs from the unscrambled one", seed)
		}
	}
}

// TestCrawlerReusesConnections guards the idle-pool sizing: two passes of
// more fetches than the in-flight bound open no more connections than
// the bound.
func TestCrawlerReusesConnections(t *testing.T) {
	f := newFixture(t)
	c := New(f.srv.URL, repeated(2*inFlight))
	for _, day := range []dates.Date{dates.StudyStart, dates.StudyStart.AddDays(1)} {
		f.store.StepDay(day)
		if err := c.CrawlNow(day); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.conns.Load(); n > inFlight {
		t.Errorf("store accepted %d connections over two crawls, want <= %d", n, inFlight)
	}
}

// BenchmarkCrawlNow crawls the fixture store with its two targets listed
// 20 times over: 40 profile and 3 chart fetches a pass.
func BenchmarkCrawlNow(b *testing.B) {
	f := newFixture(b)
	f.store.StepDay(dates.StudyStart)
	c := New(f.srv.URL, repeated(20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CrawlNow(dates.StudyStart); err != nil {
			b.Fatal(err)
		}
	}
}
