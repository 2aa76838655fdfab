package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/affiliate"
	"repro/internal/conc"
	"repro/internal/dates"
	"repro/internal/iip"
	"repro/internal/offers"
	"repro/internal/textgen"
)

// ParseWall attempts to interpret an intercepted record as an offer-wall
// JSON response; ok is false for unrelated traffic.
func ParseWall(rec Record) (iip.WallResponse, bool) {
	if !wallRecord(&rec) {
		return iip.WallResponse{}, false
	}
	var wall iip.WallResponse
	if err := json.Unmarshal(rec.Body, &wall); err != nil || !namedWall(&wall) {
		return iip.WallResponse{}, false
	}
	return wall, true
}

// wallRecord reports whether a record's status and content type are an
// offer wall's: 200 with a JSON body.
func wallRecord(rec *Record) bool {
	return rec.Status == http.StatusOK && strings.Contains(rec.ContentType, "application/json")
}

// namedWall reports whether a decoded wall names its network and
// affiliate.
func namedWall(wall *iip.WallResponse) bool {
	return wall.Network != "" && wall.Affiliate != ""
}

// Milker runs the full monitoring pipeline: it fuzzes the instrumented
// affiliate apps through the recording proxy from each vantage country,
// parses intercepted walls, normalizes point payouts to USD using the
// affiliate apps' redemption rates, and maintains the deduplicated offer
// dataset.
type Milker struct {
	// Affiliates are the instrumented apps (Table 2).
	Affiliates []*affiliate.App
	// Endpoints maps IIP names to their offer-wall base URLs.
	Endpoints map[string]string
	// Countries are the VPN exit countries (paper: 8).
	Countries []string

	proxy *Proxy
	// client routes through the proxy; one per milker, reused across
	// milking runs (over TCP, for connection pooling).
	client *http.Client

	mu      sync.Mutex
	dataset map[string]*offers.Offer // by offers.Offer.Key()
	// rates maps affiliate package -> points per USD (known from
	// "analyzing affiliate apps", Section 4.1).
	rates map[string]float64
	// milkDays records when milking ran.
	milkDays []dates.Date
}

// NewMilker assembles the infrastructure over loopback TCP: the proxy
// listens on a port, and both it and the phone's client keep pooled
// connections. Call Close when done.
func NewMilker(affiliates []*affiliate.App, endpoints map[string]string) (*Milker, error) {
	proxy := NewProxy()
	if _, err := proxy.Start(); err != nil {
		return nil, err
	}
	return newMilker(affiliates, endpoints, proxy, proxy.Client()), nil
}

// NewMilkerWithTransport assembles the infrastructure without sockets:
// the phone's client sends through the proxy in-process, and the proxy
// forwards each wall request over upstream, which serves the endpoints.
// The proxy records the same exchanges as NewMilker's.
func NewMilkerWithTransport(affiliates []*affiliate.App, endpoints map[string]string, upstream http.RoundTripper) *Milker {
	proxy := &Proxy{outbound: upstream}
	return newMilker(affiliates, endpoints, proxy, &http.Client{Transport: proxy})
}

func newMilker(affiliates []*affiliate.App, endpoints map[string]string, proxy *Proxy, client *http.Client) *Milker {
	m := &Milker{
		Affiliates: affiliates,
		Endpoints:  endpoints,
		Countries:  append([]string(nil), textgen.MilkerCountries...),
		proxy:      proxy,
		client:     client,
		dataset:    map[string]*offers.Offer{},
		rates:      map[string]float64{},
	}
	for _, a := range affiliates {
		m.rates[a.Package] = a.PointsPerUSD
	}
	return m
}

// Close tears down the proxy's listener, if it has one.
func (m *Milker) Close() error { return m.proxy.Stop() }

// inFlight bounds the wall loads a milking pass keeps in flight. Over
// TCP, the proxy's transports hold at most that many connections per
// host, all kept idle between requests, so a pass dials each connection
// once.
const inFlight = 8

// load is one fuzzer stimulus: an affiliate tab opened from a vantage
// country on a pass's day.
type load struct {
	app  *affiliate.App
	tab  affiliate.Tab
	opts affiliate.FetchOptions
}

// MilkDay performs one full milking pass for the given simulated day: the
// UI fuzzer opens every offer-wall tab of every instrumented affiliate app
// from every vantage country, and the proxy's interception records are
// folded into the dataset.
//
// Loads run concurrently, but the fold walks them in canonical order
// (affiliate, tab, country, page), finding each page's record by its URL,
// so the dataset does not depend on which response arrived first. Each
// page is decoded once, by the fuzzer; the fold takes that decoded page
// when its record passes ParseWall's checks. A pass is all-or-nothing:
// if any load fails, its records are discarded and the error of the
// canonically first failed load is returned.
func (m *Milker) MilkDay(day dates.Date) error {
	var loads []load
	for _, app := range m.Affiliates {
		for _, tab := range app.Tabs() {
			base, ok := m.Endpoints[tab.IIP]
			if !ok {
				return fmt.Errorf("monitor: no endpoint for IIP %s", tab.IIP)
			}
			for _, country := range m.Countries {
				loads = append(loads, load{app: app, tab: tab, opts: affiliate.FetchOptions{
					BaseURL: base,
					Country: country,
					Day:     day,
					Client:  m.client,
				}})
			}
		}
	}
	// The fuzzer only generates stimuli; responses flow back through the
	// proxy where they are recorded. pages[i][p] is load i's decoded
	// response to its PageURL(opts, p).
	errs := make([]error, len(loads))
	pages := make([][]*iip.WallResponse, len(loads))
	conc.ForN(inFlight, len(loads), func(i int) {
		for wall, err := range loads[i].tab.Pages(loads[i].opts) {
			if err != nil {
				errs[i] = err
				break
			}
			pages[i] = append(pages[i], wall)
		}
	})
	records := m.proxy.DrainRecords()
	for i, err := range errs {
		if err != nil {
			l := loads[i]
			return fmt.Errorf("monitor: fuzzing %s/%s (%s): %w", l.app.Package, l.tab.IIP, l.opts.Country, err)
		}
	}
	byURL := make(map[string]*Record, len(records))
	for i := range records {
		byURL[records[i].URL] = &records[i]
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for i, l := range loads {
		for p, wall := range pages[i] {
			if rec, ok := byURL[l.tab.PageURL(l.opts, p)]; ok && wallRecord(rec) && namedWall(wall) {
				m.fold(day, wall)
			}
		}
	}
	m.milkDays = append(m.milkDays, day)
	return nil
}

// fold merges one intercepted wall into the offer dataset. The first
// observation of an offer fixes its ID and payout; later ones widen its
// window and add countries. Callers hold m.mu.
func (m *Milker) fold(day dates.Date, wall *iip.WallResponse) {
	rate := m.rates[wall.Affiliate]
	for _, wo := range wall.Offers {
		o := offers.Offer{
			ID:          wo.OfferID,
			AppPackage:  wo.AppPackage,
			IIP:         wall.Network,
			Description: wo.Description,
			PayoutUSD:   offers.NormalizePayout(float64(wo.Points), rate),
			FirstSeen:   day,
			LastSeen:    day,
			Countries:   []string{wall.Country},
		}
		key := o.Key()
		existing, ok := m.dataset[key]
		if !ok {
			m.dataset[key] = &o
			continue
		}
		if day < existing.FirstSeen {
			existing.FirstSeen = day
		}
		if day > existing.LastSeen {
			existing.LastSeen = day
		}
		if !containsStr(existing.Countries, wall.Country) {
			existing.Countries = append(existing.Countries, wall.Country)
		}
	}
}

// Offers returns the deduplicated dataset sorted by offer ID.
func (m *Milker) Offers() []offers.Offer {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]offers.Offer, 0, len(m.dataset))
	for _, o := range m.dataset {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MilkDays returns the days on which milking ran.
func (m *Milker) MilkDays() []dates.Date {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]dates.Date(nil), m.milkDays...)
}

// WallMatrix reports, for each instrumented affiliate app, which IIP offer
// walls it integrates — Table 2's checkmark matrix, derived from the
// instrumentation itself.
func (m *Milker) WallMatrix() map[string][]string {
	out := map[string][]string{}
	for _, a := range m.Affiliates {
		out[a.Package] = append([]string(nil), a.IIPs...)
	}
	return out
}

func containsStr(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
