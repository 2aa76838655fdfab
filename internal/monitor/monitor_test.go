package monitor

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/affiliate"
	"repro/internal/dates"
	"repro/internal/httpmem"
	"repro/internal/iip"
	"repro/internal/offers"
)

// wallFixture stands up a funded Fyber + ayeT with live campaigns and
// offer-wall servers, plus a milker wired to them.
type wallFixture struct {
	fyber *iip.Platform
	ayet  *iip.Platform
	milk  *Milker
	// insts are the milked affiliates; walls holds each IIP's wall
	// handler.
	insts []*affiliate.App
	walls map[string]http.Handler
	// conns counts the connections each wall server (Fyber, ayeT)
	// accepted.
	conns [2]atomic.Int64
}

// wallOptions vary the wall fixture.
type wallOptions struct {
	// launch adds campaigns to the funded platforms.
	launch func(t testing.TB, fyber, ayet *iip.Platform)
	// wrap interposes on both wall servers' handlers.
	wrap func(http.Handler) http.Handler
}

func newWallFixture(t testing.TB) *wallFixture {
	return newWallFixtureWith(t, wallOptions{})
}

func newWallFixtureWith(t testing.TB, opts wallOptions) *wallFixture {
	t.Helper()
	platforms := iip.StandardPlatforms()
	fyber, ayet := platforms[iip.Fyber], platforms[iip.AyetStudios]

	if err := fyber.RegisterDeveloper("dev", iip.Documentation{TaxID: "T", BankAccount: "B"}); err != nil {
		t.Fatal(err)
	}
	if err := fyber.Deposit("dev", 1e5); err != nil {
		t.Fatal(err)
	}
	if err := ayet.RegisterDeveloper("dev", iip.Documentation{}); err != nil {
		t.Fatal(err)
	}
	if err := ayet.Deposit("dev", 1e5); err != nil {
		t.Fatal(err)
	}

	window := dates.Range{Start: dates.StudyStart, End: dates.StudyEnd}
	mustLaunch := func(p *iip.Platform, pkg, desc string, tp offers.Type, payout float64) {
		t.Helper()
		if _, err := p.LaunchCampaign(iip.CampaignSpec{
			Developer: "dev", AppPackage: pkg, Description: desc,
			Type: tp, UserPayoutUSD: payout, Target: 1000, Window: window,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustLaunch(fyber, "com.adv.one", "Install and Register", offers.Registration, 0.34)
	mustLaunch(fyber, "com.adv.two", "Install and Reach level 10", offers.Usage, 0.50)
	mustLaunch(ayet, "com.adv.three", "Install and Launch", offers.NoActivity, 0.05)
	if opts.launch != nil {
		opts.launch(t, fyber, ayet)
	}

	apps := affiliate.StandardAffiliates()
	rates := map[string]float64{}
	for _, a := range apps {
		rates[a.Package] = a.PointsPerUSD
	}
	f := &wallFixture{fyber: fyber, ayet: ayet, walls: map[string]http.Handler{}}
	serve := func(p *iip.Platform, conns *atomic.Int64) *httptest.Server {
		h := iip.NewServer(p, rates).Handler()
		if opts.wrap != nil {
			h = opts.wrap(h)
		}
		f.walls[p.Name] = h
		srv := httptest.NewUnstartedServer(h)
		srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				conns.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		return srv
	}
	fyberSrv, ayetSrv := serve(fyber, &f.conns[0]), serve(ayet, &f.conns[1])

	// Restrict the milker to apps integrating only these two IIPs so
	// every tab has an endpoint.
	var insts []*affiliate.App
	for _, a := range apps {
		ok := true
		for _, n := range a.IIPs {
			if n != iip.Fyber && n != iip.AyetStudios {
				ok = false
			}
		}
		if ok {
			insts = append(insts, a)
		}
	}
	if len(insts) == 0 {
		t.Fatal("no affiliates usable in fixture")
	}
	f.insts = insts
	milk, err := NewMilker(insts, map[string]string{
		iip.Fyber:       fyberSrv.URL,
		iip.AyetStudios: ayetSrv.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { milk.Close() })
	f.milk = milk
	return f
}

// inProcess returns a second milker of the fixture's affiliates that
// reaches the same wall handlers without sockets, through an in-process
// proxy.
func (f *wallFixture) inProcess() *Milker {
	var tr httpmem.Transport
	urls := map[string]string{}
	for name, h := range f.walls {
		urls[name] = tr.Serve(h)
	}
	return NewMilkerWithTransport(f.insts, urls, &tr)
}

func TestProxyRecordsTraffic(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "hello")
	}))
	defer upstream.Close()

	p := NewProxy()
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	resp, err := p.Client().Get(upstream.URL + "/path?x=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello" {
		t.Errorf("relayed body = %q", body)
	}
	recs := p.DrainRecords()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if recs[0].Status != 200 || string(recs[0].Body) != "hello" {
		t.Errorf("record = %+v", recs[0])
	}
	if p.NumRecords() != 0 {
		t.Error("drain should clear the buffer")
	}
}

func TestProxyRejectsNonProxyRequests(t *testing.T) {
	p := NewProxy()
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	// Direct (non-proxied) request has a relative URL.
	resp, err := http.Get("http://" + addr + "/whatever")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestProxyUpstreamFailure(t *testing.T) {
	p := NewProxy()
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	resp, err := p.Client().Get("http://127.0.0.1:1/down")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

func TestParseWall(t *testing.T) {
	good := Record{
		Status:      200,
		ContentType: "application/json",
		Body:        []byte(`{"network":"Fyber","affiliate":"a.b.c","country":"USA","offers":[]}`),
	}
	if _, ok := ParseWall(good); !ok {
		t.Error("valid wall not parsed")
	}
	cases := []Record{
		{Status: 403, ContentType: "application/json", Body: good.Body},
		{Status: 200, ContentType: "text/html", Body: good.Body},
		{Status: 200, ContentType: "application/json", Body: []byte("{bad")},
		{Status: 200, ContentType: "application/json", Body: []byte(`{"offers":[]}`)},
	}
	for i, rec := range cases {
		if _, ok := ParseWall(rec); ok {
			t.Errorf("case %d: non-wall record parsed as wall", i)
		}
	}
}

func TestMilkDayBuildsDataset(t *testing.T) {
	f := newWallFixture(t)
	if err := f.milk.MilkDay(dates.StudyStart); err != nil {
		t.Fatal(err)
	}
	got := f.milk.Offers()
	if len(got) != 3 {
		t.Fatalf("offers = %d, want 3 (dedup across apps/countries)", len(got))
	}
	byPkg := map[string]offers.Offer{}
	for _, o := range got {
		byPkg[o.AppPackage] = o
	}
	reg := byPkg["com.adv.one"]
	if reg.IIP != iip.Fyber || reg.Description != "Install and Register" {
		t.Errorf("offer = %+v", reg)
	}
	// Payout normalization: points back to USD regardless of affiliate.
	if diff := reg.PayoutUSD - 0.34; diff > 0.02 || diff < -0.02 {
		t.Errorf("normalized payout = %.4f, want ~0.34", reg.PayoutUSD)
	}
	// Countries accumulate across vantage points.
	if len(reg.Countries) != len(f.milk.Countries) {
		t.Errorf("countries = %v", reg.Countries)
	}
}

func TestMilkWindowTracking(t *testing.T) {
	f := newWallFixture(t)
	d0, d1 := dates.StudyStart, dates.StudyStart.AddDays(4)
	if err := f.milk.MilkDay(d0); err != nil {
		t.Fatal(err)
	}
	if err := f.milk.MilkDay(d1); err != nil {
		t.Fatal(err)
	}
	for _, o := range f.milk.Offers() {
		if o.FirstSeen != d0 || o.LastSeen != d1 {
			t.Errorf("window = %v..%v, want %v..%v", o.FirstSeen, o.LastSeen, d0, d1)
		}
	}
	if days := f.milk.MilkDays(); len(days) != 2 {
		t.Errorf("milk days = %v", days)
	}
}

func TestMilkerMissingEndpoint(t *testing.T) {
	apps := affiliate.StandardAffiliates()
	m, err := NewMilker(apps[:1], map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.MilkDay(dates.StudyStart); err == nil {
		t.Error("missing endpoint should error")
	}
}

func TestWallMatrix(t *testing.T) {
	f := newWallFixture(t)
	matrix := f.milk.WallMatrix()
	if len(matrix) != len(f.milk.Affiliates) {
		t.Errorf("matrix rows = %d", len(matrix))
	}
	for pkg, walls := range matrix {
		if len(walls) == 0 {
			t.Errorf("%s integrates no walls", pkg)
		}
	}
}
