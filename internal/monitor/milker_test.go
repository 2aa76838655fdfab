package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/iip"
	"repro/internal/offers"
	"repro/internal/randx"
)

// jitter delays each wall response by 0-2 ms, drawn from the seed and the
// request URL, so concurrent loads complete out of order.
func jitter(seed uint64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(time.Duration(randx.Unit01(seed, r.URL.String()) * float64(2*time.Millisecond)))
			next.ServeHTTP(w, r)
		})
	}
}

func TestMilkDayFailureDiscardsPass(t *testing.T) {
	d0, d1 := dates.StudyStart, dates.StudyStart.AddDays(4)
	var failing atomic.Bool
	failing.Store(true)
	f := newWallFixtureWith(t, wallOptions{
		// An offer live only around d0: folding the failed pass's
		// records into a later pass would surface it.
		launch: func(t testing.TB, fyber, _ *iip.Platform) {
			if _, err := fyber.LaunchCampaign(iip.CampaignSpec{
				Developer: "dev", AppPackage: "com.adv.early", Description: "Install and Open",
				Type: offers.NoActivity, UserPayoutUSD: 0.10, Target: 100,
				Window: dates.Range{Start: d0, End: d0.AddDays(1)},
			}); err != nil {
				t.Fatal(err)
			}
		},
		wrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if failing.Load() && r.URL.Query().Get("affiliate") == "com.ayet.cashpirate" {
					http.Error(w, "wall down", http.StatusInternalServerError)
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	if err := f.milk.MilkDay(d0); err == nil {
		t.Fatal("pass with a failing wall should error")
	}
	if n := f.milk.proxy.NumRecords(); n != 0 {
		t.Errorf("failed pass left %d records in the proxy", n)
	}
	if got := f.milk.Offers(); len(got) != 0 {
		t.Errorf("failed pass folded %d offers", len(got))
	}
	if days := f.milk.MilkDays(); len(days) != 0 {
		t.Errorf("failed pass recorded milk days %v", days)
	}

	failing.Store(false)
	if err := f.milk.MilkDay(d1); err != nil {
		t.Fatal(err)
	}
	got := f.milk.Offers()
	if len(got) != 3 {
		t.Errorf("offers after recovery = %d, want the 3 live on %v", len(got), d1)
	}
	for _, o := range got {
		if o.AppPackage == "com.adv.early" {
			t.Errorf("offer from the failed pass surfaced: %+v", o)
		}
		if o.FirstSeen != d1 || o.LastSeen != d1 {
			t.Errorf("%s window = %v..%v, want %v..%v", o.AppPackage, o.FirstSeen, o.LastSeen, d1, d1)
		}
	}
}

func TestMilkDayErrorNamesCanonicalFirstFailure(t *testing.T) {
	// Both of com.ayet.cashpirate's tabs fail, and so does the first
	// affiliate's tab from its last country: the canonically first
	// failure, delayed so that it is also the last to arrive.
	f := newWallFixtureWith(t, wallOptions{
		wrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				q := r.URL.Query()
				switch {
				case q.Get("affiliate") == "proxima.moneyapp.android" && q.Get("country") == "Russia":
					time.Sleep(20 * time.Millisecond)
				case q.Get("affiliate") != "com.ayet.cashpirate":
					next.ServeHTTP(w, r)
					return
				}
				http.Error(w, "wall down", http.StatusInternalServerError)
			})
		},
	})
	err := f.milk.MilkDay(dates.StudyStart)
	if err == nil {
		t.Fatal("pass with failing walls should error")
	}
	if want := "proxima.moneyapp.android/Fyber (Russia)"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the canonically first failure %s", err, want)
	}
	if n := f.milk.proxy.NumRecords(); n != 0 {
		t.Errorf("failed pass left %d records in the proxy", n)
	}
}

// TestMilkDayOrderFree scrambles response order and checks that the
// dataset matches an unscrambled run, including the fields the first
// folded observation fixes. The fixture has one offer key reached by two
// affiliates with different point rates and carried by two campaigns, so
// a fold in any order but the canonical one changes its ID, payout or
// country order.
func TestMilkDayOrderFree(t *testing.T) {
	var dupID string
	launch := func(t testing.TB, fyber, _ *iip.Platform) {
		spec := iip.CampaignSpec{
			Developer: "dev", AppPackage: "com.adv.dup", Description: "Install and Play",
			Type: offers.NoActivity, Target: 100,
			Window: dates.Range{Start: dates.StudyStart, End: dates.StudyEnd},
		}
		// The India-only campaign sorts first on India's wall.
		spec.UserPayoutUSD, spec.Countries = 0.41, []string{"India"}
		if _, err := fyber.LaunchCampaign(spec); err != nil {
			t.Fatal(err)
		}
		spec.UserPayoutUSD, spec.Countries = 0.337, nil
		c, err := fyber.LaunchCampaign(spec)
		if err != nil {
			t.Fatal(err)
		}
		dupID = c.OfferID
	}
	run := func(wrap func(http.Handler) http.Handler) ([]offers.Offer, []string) {
		f := newWallFixtureWith(t, wallOptions{launch: launch, wrap: wrap})
		for _, day := range []dates.Date{dates.StudyStart, dates.StudyStart.AddDays(4)} {
			if err := f.milk.MilkDay(day); err != nil {
				t.Fatal(err)
			}
		}
		return f.milk.Offers(), f.milk.Countries
	}
	want, countries := run(nil)
	for seed := uint64(1); seed <= 3; seed++ {
		if got, _ := run(jitter(seed)); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: scrambled dataset differs:\n got %+v\nwant %+v", seed, got, want)
		}
	}

	// The canonical fold: proxima.moneyapp.android (2000 points/USD) from
	// the USA sees the dup offer first, as the all-country campaign.
	var dup *offers.Offer
	for i := range want {
		if want[i].AppPackage == "com.adv.dup" {
			dup = &want[i]
		}
	}
	if dup == nil {
		t.Fatal("dup offer not milked")
	}
	if dup.ID != dupID || dup.PayoutUSD != 674.0/2000 {
		t.Errorf("dup offer = %s at $%v, want %s at $%v", dup.ID, dup.PayoutUSD, dupID, 674.0/2000)
	}
	if !reflect.DeepEqual(dup.Countries, countries) {
		t.Errorf("dup countries = %v, want %v", dup.Countries, countries)
	}
	if dup.FirstSeen != dates.StudyStart || dup.LastSeen != dates.StudyStart.AddDays(4) {
		t.Errorf("dup window = %v..%v", dup.FirstSeen, dup.LastSeen)
	}
}

// TestMilkerReusesConnections guards the idle-pool sizing: over two passes
// neither the walls nor the proxy see more connections than the in-flight
// bound.
func TestMilkerReusesConnections(t *testing.T) {
	f := newWallFixture(t)
	var dials atomic.Int64
	tr := f.milk.client.Transport.(*http.Transport)
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return d.DialContext(ctx, network, addr)
	}
	for _, day := range []dates.Date{dates.StudyStart, dates.StudyStart.AddDays(1)} {
		if err := f.milk.MilkDay(day); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{iip.Fyber, iip.AyetStudios} {
		if n := f.conns[i].Load(); n > inFlight {
			t.Errorf("%s wall accepted %d connections over two passes, want <= %d", name, n, inFlight)
		}
	}
	if n := dials.Load(); n > inFlight {
		t.Errorf("client dialed the proxy %d times over two passes, want <= %d", n, inFlight)
	}
}

// launchPaged adds 23 short Fyber campaigns with staggered windows, so
// Fyber's walls span up to three 10-offer pages and change from day to
// day.
func launchPaged(t testing.TB, fyber, _ *iip.Platform) {
	for i := 0; i < 23; i++ {
		start := dates.StudyStart.AddDays(i % 6)
		if _, err := fyber.LaunchCampaign(iip.CampaignSpec{
			Developer: "dev", AppPackage: fmt.Sprintf("com.adv.page%02d", i), Description: "Install and Open",
			Type: offers.NoActivity, UserPayoutUSD: 0.01 * float64(1+i), Target: 100,
			Window: dates.Range{Start: start, End: start.AddDays(9)},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkMilkDayPaged is the milking pass the study runs: in process,
// through NewMilkerWithTransport, over walls of several pages, so it
// measures the paging, decoding and fold rather than sockets.
func BenchmarkMilkDayPaged(b *testing.B) {
	milk := newWallFixtureWith(b, wallOptions{launch: launchPaged}).inProcess()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := milk.MilkDay(dates.StudyStart.AddDays(i % 12)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMilkDay milks the fixture's one-page walls over loopback TCP,
// through NewMilker's sockets.
func BenchmarkMilkDay(b *testing.B) {
	f := newWallFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.milk.MilkDay(dates.StudyStart.AddDays(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMilkDayFoldsWhatParseWallAccepts: MilkDay folds the pages its
// fuzzer decoded, gated by their proxy records, instead of decoding every
// record again. Its dataset must equal one folded from ParseWall of every
// record a sequential capture of the same walls yields, in canonical
// order. The walls span several pages and mislabel some of them: every
// India page is served as text/plain, every ayeT page from Russia names
// no network and every second Fyber page from Germany no affiliate, so
// those pages are never folded. A wall answering 203 with a valid wall
// body fails the pass and folds nothing.
func TestMilkDayFoldsWhatParseWallAccepts(t *testing.T) {
	var nonOK atomic.Bool
	mislabel := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var wall iip.WallResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &wall); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			q := r.URL.Query()
			status, contentType := http.StatusOK, "application/json"
			switch country := q.Get("country"); {
			case country == "India":
				contentType = "text/plain; charset=utf-8"
			case country == "Russia" && wall.Network == iip.AyetStudios:
				wall.Network = ""
			case country == "Germany" && wall.Network == iip.Fyber && q.Get("offset") == "10":
				wall.Affiliate = ""
			case country == "Spain" && nonOK.Load():
				status = http.StatusNonAuthoritativeInfo
			}
			w.Header().Set("Content-Type", contentType)
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(wall)
		})
	}
	f := newWallFixtureWith(t, wallOptions{launch: launchPaged, wrap: mislabel})
	ref := f.inProcess()
	rejected := 0
	for _, day := range []dates.Date{dates.StudyStart, dates.StudyStart.AddDays(3), dates.StudyStart.AddDays(7)} {
		if err := f.milk.MilkDay(day); err != nil {
			t.Fatal(err)
		}
		for _, rec := range capture(t, ref, day) {
			wall, ok := ParseWall(rec)
			if !ok {
				rejected++
				continue
			}
			ref.mu.Lock()
			ref.fold(day, &wall)
			ref.mu.Unlock()
		}
		if got, want := f.milk.Offers(), ref.Offers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("day %v: MilkDay's dataset differs from the ParseWall fold:\n got %+v\nwant %+v", day, got, want)
		}
	}
	if rejected == 0 {
		t.Fatal("ParseWall rejected no captured record: nothing was mislabeled")
	}
	got := f.milk.Offers()
	pageTwo := false
	for _, o := range got {
		if containsStr(o.Countries, "India") || (o.IIP == iip.AyetStudios && containsStr(o.Countries, "Russia")) {
			t.Errorf("%s folded from a mislabeled page: countries %v", o.ID, o.Countries)
		}
		pageTwo = pageTwo || (o.IIP == iip.Fyber && !containsStr(o.Countries, "Germany"))
	}
	if !pageTwo {
		t.Error("every Fyber offer was folded from Germany: the unnamed second pages were folded")
	}

	nonOK.Store(true)
	if err := f.milk.MilkDay(dates.StudyStart.AddDays(8)); err == nil {
		t.Fatal("a pass with a wall answering 203 should fail")
	}
	if after := f.milk.Offers(); !reflect.DeepEqual(after, got) {
		t.Errorf("a failed pass changed the dataset:\n got %+v\nwant %+v", after, got)
	}
}
