package monitor

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/affiliate"
	"repro/internal/dates"
	"repro/internal/httpmem"
	"repro/internal/iip"
)

// capture runs a pass's loads one at a time through m's client and
// returns what the proxy recorded, with each wall's base URL replaced by
// its IIP name so records from different transports compare.
func capture(t *testing.T, m *Milker, day dates.Date) []Record {
	t.Helper()
	for _, app := range m.Affiliates {
		for _, tab := range app.Tabs() {
			for _, country := range m.Countries {
				opts := affiliate.FetchOptions{BaseURL: m.Endpoints[tab.IIP], Country: country, Day: day, Client: m.client}
				if _, err := tab.Load(opts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	recs := m.proxy.DrainRecords()
	for i := range recs {
		for name, base := range m.Endpoints {
			if rest, ok := strings.CutPrefix(recs[i].URL, base+"/"); ok {
				recs[i].URL = name + "/" + rest
			}
		}
	}
	return recs
}

// TestInProcessMatchesLoopback milks the same walls on the same days over
// loopback TCP and in-process: the datasets and every proxy record (URL,
// status, content type, body) must agree.
func TestInProcessMatchesLoopback(t *testing.T) {
	f := newWallFixture(t)
	mem := f.inProcess()
	days := []dates.Date{dates.StudyStart, dates.StudyStart.AddDays(4), dates.StudyStart.AddDays(30)}
	for _, day := range days {
		if err := f.milk.MilkDay(day); err != nil {
			t.Fatal(err)
		}
		if err := mem.MilkDay(day); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := mem.Offers(), f.milk.Offers(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("in-process offers differ:\n got %+v\nwant %+v", got, want)
	}
	if got, want := mem.MilkDays(), f.milk.MilkDays(); !reflect.DeepEqual(got, want) {
		t.Errorf("in-process milk days %v, want %v", got, want)
	}
	for _, day := range days {
		want := capture(t, f.milk, day)
		got := capture(t, mem, day)
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%v: %d in-process records, %d over TCP", day, len(got), len(want))
		}
		for i := range want {
			if want[i].Status != http.StatusOK || want[i].ContentType != "application/json" {
				t.Errorf("%v record %d: status %d, content type %q", day, i, want[i].Status, want[i].ContentType)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%v record %d:\n got %s %d %q %s\nwant %s %d %q %s", day, i,
					got[i].URL, got[i].Status, got[i].ContentType, got[i].Body,
					want[i].URL, want[i].Status, want[i].ContentType, want[i].Body)
			}
		}
	}
}

// TestInProcessUnknownHostFailsPass points one wall at a host the
// transport does not serve: the pass fails like a refused dial and
// commits nothing.
func TestInProcessUnknownHostFailsPass(t *testing.T) {
	f := newWallFixture(t)
	var tr httpmem.Transport
	urls := map[string]string{iip.Fyber: tr.Serve(f.walls[iip.Fyber]), iip.AyetStudios: "http://nowhere.invalid"}
	m := NewMilkerWithTransport(f.insts, urls, &tr)
	err := m.MilkDay(dates.StudyStart)
	if err == nil || !strings.Contains(err.Error(), "status 502") {
		t.Fatalf("pass with an unserved wall: err %v, want a 502 from the proxy", err)
	}
	if n := m.proxy.NumRecords(); n != 0 {
		t.Errorf("failed pass left %d records in the proxy", n)
	}
	if len(m.Offers()) != 0 || len(m.MilkDays()) != 0 {
		t.Errorf("failed pass committed %d offers, days %v", len(m.Offers()), m.MilkDays())
	}
}

// TestProxyRefusesOversizedBody serves an upstream body one byte over the
// bound: the proxy answers 502 and records nothing, over TCP and
// in-process alike, while a body at the bound passes.
func TestProxyRefusesOversizedBody(t *testing.T) {
	upstream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := maxBodyBytes
		if r.URL.Path == "/over" {
			n++
		}
		w.Write(bytes.Repeat([]byte("x"), n))
	})
	srv := httptest.NewServer(upstream)
	defer srv.Close()
	tcp := NewProxy()
	if _, err := tcp.Start(); err != nil {
		t.Fatal(err)
	}
	defer tcp.Stop()
	var tr httpmem.Transport
	memURL := tr.Serve(upstream)
	mem := &Proxy{outbound: &tr}

	for _, c := range []struct {
		name   string
		p      *Proxy
		client *http.Client
		base   string
	}{
		{"tcp", tcp, tcp.Client(), srv.URL},
		{"in-process", mem, &http.Client{Transport: mem}, memURL},
	} {
		for path, want := range map[string]int{"/at": http.StatusOK, "/over": http.StatusBadGateway} {
			resp, err := c.client.Get(c.base + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s %s: status %d, want %d", c.name, path, resp.StatusCode, want)
			}
			recs := c.p.DrainRecords()
			if want == http.StatusOK && (len(recs) != 1 || len(recs[0].Body) != maxBodyBytes || len(body) != maxBodyBytes) {
				t.Errorf("%s %s: %d records, relayed %d bytes", c.name, path, len(recs), len(body))
			}
			if want != http.StatusOK && len(recs) != 0 {
				t.Errorf("%s %s: oversized body recorded", c.name, path)
			}
		}
	}
}

// countingBody is an upstream body of n bytes that counts what is read
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

// TestProxyStopsReadingPastBound: of an upstream body far over the bound
// the proxy reads at most one byte past it before answering 502.
func TestProxyStopsReadingPastBound(t *testing.T) {
	body := &countingBody{n: 16 * maxBodyBytes}
	p := &Proxy{outbound: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: body, Request: r}, nil
	})}
	resp, err := (&http.Client{Transport: p}).Get("http://wall.invalid/offerwall")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || body.read > maxBodyBytes+1 {
		t.Errorf("status %d after reading %d bytes, want 502 after at most %d", resp.StatusCode, body.read, maxBodyBytes+1)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
