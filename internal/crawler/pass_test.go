package crawler

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/httpmem"
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

// TestCrawlerRefusesOversizedBody pads the store's answers past the
// bound: a crawl fails and commits nothing, and so does an APK download,
// while a chart padded to exactly the bound still decodes.
func TestCrawlerRefusesOversizedBody(t *testing.T) {
	var pad atomic.Int64
	f := newFixtureWith(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := int(pad.Load())
			if n == 0 || r.URL.Path == "/apps/app.growing" || r.URL.Path == "/apps/app.static" {
				next.ServeHTTP(w, r)
				return
			}
			if strings.HasPrefix(r.URL.Path, "/apks/") {
				w.Write(bytes.Repeat([]byte{0}, n))
				return
			}
			doc := `{"chart":"x","day":0,"entries":[]}`
			w.Write([]byte(doc + strings.Repeat(" ", n-len(doc))))
		})
	})
	d0 := dates.StudyStart
	f.store.StepDay(d0)
	pad.Store(maxBodyBytes + 1)
	if err := f.crawl.CrawlNow(d0); err == nil || !strings.Contains(err.Error(), "over") {
		t.Errorf("crawl of an oversized chart: err %v, want a size error", err)
	}
	if days := f.crawl.Dataset().Days(); len(days) != 0 {
		t.Errorf("failed crawl recorded days %v", days)
	}
	if _, err := f.crawl.DownloadAPK("app.growing"); err == nil || !strings.Contains(err.Error(), "over") {
		t.Errorf("oversized APK: err %v, want a size error", err)
	}
	pad.Store(maxBodyBytes)
	if err := f.crawl.CrawlNow(d0); err != nil {
		t.Errorf("chart at the bound: %v", err)
	}

	// Of a body far over the bound the crawler reads at most one byte
	// past it.
	body := &countingBody{n: 16 * maxBodyBytes}
	c := NewWithTransport("http://store.invalid", nil, roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: body, Request: r}, nil
	}))
	if _, err := c.DownloadAPK("app.growing"); err == nil || body.read > maxBodyBytes+1 {
		t.Errorf("APK far over the bound: err %v after reading %d bytes, want an error after at most %d", err, body.read, maxBodyBytes+1)
	}
}

// countingBody is a response body of n bytes that counts what is read
// from it.
type countingBody struct {
	n, read int
}

func (b *countingBody) Read(p []byte) (int, error) {
	if b.read >= b.n {
		return 0, io.EOF
	}
	k := min(len(p), b.n-b.read)
	b.read += k
	return k, nil
}

func (b *countingBody) Close() error { return nil }

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestInProcessCrawlMatchesLoopback crawls the same store over loopback
// TCP and in-process: the datasets must agree.
func TestInProcessCrawlMatchesLoopback(t *testing.T) {
	f := newFixture(t)
	var tr httpmem.Transport
	mem := NewWithTransport(tr.Serve(f.srv.Config.Handler), []string{"app.growing", "app.static"}, &tr)
	for i := 0; i < 6; i++ {
		day := dates.StudyStart.AddDays(i)
		for j := 0; j < 40; j++ {
			if err := f.store.RecordInstall("app.growing", playstore.Install{Day: day, Source: playstore.SourceReferral}); err != nil {
				t.Fatal(err)
			}
		}
		f.store.StepDay(day)
		for _, c := range []*Crawler{f.crawl, mem} {
			if err := c.MaybeCrawl(day); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, want := mem.Dataset(), f.crawl.Dataset()
	if len(want.days) == 0 || !reflect.DeepEqual(got.profiles, want.profiles) || !reflect.DeepEqual(got.bins, want.bins) ||
		!reflect.DeepEqual(got.charts, want.charts) || !reflect.DeepEqual(got.days, want.days) {
		t.Error("in-process crawl differs from the loopback one")
	}
	a, err := mem.DownloadAPK("app.growing")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.crawl.DownloadAPK("app.growing")
	if err != nil || !reflect.DeepEqual(a, b) {
		t.Errorf("in-process APK differs: %v", err)
	}
}
