// Package crawler implements the paper's longitudinal Play Store crawl: it
// fetches app profiles and top charts over HTTP every other day from March
// to June, accumulating the install-bin time series and chart-presence
// history that the impact analyses (Tables 5-6, Figure 5) consume, and
// downloads APKs for static analysis (Figure 6).
package crawler

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/apk"
	"repro/internal/conc"
	"repro/internal/dates"
	"repro/internal/playapi"
	"repro/internal/playstore"
)

// BinSnapshot is one observation of an app's public install bin.
type BinSnapshot struct {
	Day dates.Date
	Bin int64
}

// Dataset is the accumulated crawl.
type Dataset struct {
	mu sync.RWMutex
	// Profiles holds the most recent profile document per package.
	profiles map[string]playapi.ProfileDoc
	// bins holds the install-bin time series per package, in crawl order.
	bins map[string][]BinSnapshot
	// charts: chart name -> day -> package -> rank.
	charts map[string]map[dates.Date]map[string]int
	// days crawled, in order.
	days []dates.Date
}

func newDataset() *Dataset {
	return &Dataset{
		profiles: map[string]playapi.ProfileDoc{},
		bins:     map[string][]BinSnapshot{},
		charts:   map[string]map[dates.Date]map[string]int{},
	}
}

// Crawler drives the periodic crawl.
type Crawler struct {
	// BaseURL of the store's HTTP surface.
	BaseURL string
	// EveryDays is the crawl period (paper: every other day => 2).
	EveryDays int

	client  *http.Client
	targets []string
	data    *Dataset
	started *dates.Date
}

// inFlight bounds the fetches a crawl keeps in flight. Over TCP, the
// crawler's own client holds at most that many connections per host,
// all kept idle between requests, so a crawl dials each connection once.
const inFlight = 8

// maxBodyBytes bounds a document or APK the crawler reads; past it the
// fetch fails. The largest real bodies are a top chart (956 bytes on the
// 6,000-device 121-day study, 10,440 with the default world's 200-entry
// charts) and an APK (2,657 and 3,207 bytes).
const maxBodyBytes = 1 << 20

// New returns a crawler for the given targets (advertised + baseline app
// packages) that fetches over pooled TCP connections.
func New(baseURL string, targets []string) *Crawler {
	c := NewWithTransport(baseURL, targets, &http.Transport{MaxIdleConnsPerHost: inFlight, MaxConnsPerHost: inFlight})
	c.client.Timeout = 10 * time.Second
	return c
}

// NewWithTransport returns a crawler that fetches over rt, such as an
// in-process transport serving the store's handler.
func NewWithTransport(baseURL string, targets []string, rt http.RoundTripper) *Crawler {
	return &Crawler{
		BaseURL:   baseURL,
		EveryDays: 2,
		client:    &http.Client{Transport: rt},
		targets:   append([]string(nil), targets...),
		data:      newDataset(),
	}
}

// MaybeCrawl runs a crawl if the day falls on the crawler's period; it is
// designed to be called from the simulation's per-day hook.
func (c *Crawler) MaybeCrawl(day dates.Date) error {
	if c.started == nil {
		d := day
		c.started = &d
	}
	if day.DaysSince(*c.started)%c.EveryDays != 0 {
		return nil
	}
	return c.CrawlNow(day)
}

// CrawlNow unconditionally crawls all targets and charts for the day.
//
// The fetches run concurrently into per-index slots and are committed
// under one lock in target order, then chart order. A crawl is
// all-or-nothing: if any fetch fails, nothing is committed and the error
// of the first failed fetch in that order is returned.
func (c *Crawler) CrawlNow(day dates.Date) error {
	charts := playstore.ChartNames
	profiles := make([]playapi.ProfileDoc, len(c.targets))
	ranks := make([]map[string]int, len(charts))
	errs := make([]error, len(c.targets)+len(charts))
	conc.ForN(inFlight, len(errs), func(i int) {
		if i < len(c.targets) {
			pkg := c.targets[i]
			if err := c.getJSON(c.BaseURL+"/apps/"+pkg, &profiles[i]); err != nil {
				errs[i] = fmt.Errorf("crawler: profile %s: %w", pkg, err)
			}
			return
		}
		j := i - len(c.targets)
		var doc playapi.ChartDoc
		if err := c.getJSON(fmt.Sprintf("%s/charts/%s?day=%d", c.BaseURL, charts[j], int(day)), &doc); err != nil {
			errs[i] = fmt.Errorf("crawler: chart %s: %w", charts[j], err)
			return
		}
		ranks[j] = make(map[string]int, len(doc.Entries))
		for _, e := range doc.Entries {
			ranks[j][e.Package] = e.Rank
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	c.data.mu.Lock()
	defer c.data.mu.Unlock()
	for i, pkg := range c.targets {
		c.data.profiles[pkg] = profiles[i]
		c.data.bins[pkg] = append(c.data.bins[pkg], BinSnapshot{Day: day, Bin: profiles[i].InstallBin})
	}
	for j, chart := range charts {
		byDay, ok := c.data.charts[chart]
		if !ok {
			byDay = map[dates.Date]map[string]int{}
			c.data.charts[chart] = byDay
		}
		byDay[day] = ranks[j]
	}
	c.data.days = append(c.data.days, day)
	return nil
}

// DownloadAPK fetches and parses an app's APK for static analysis.
func (c *Crawler) DownloadAPK(pkg string) (apk.APK, error) {
	resp, err := c.client.Get(c.BaseURL + "/apks/" + pkg)
	if err != nil {
		return apk.APK{}, fmt.Errorf("crawler: apk %s: %w", pkg, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apk.APK{}, fmt.Errorf("crawler: apk %s: status %d", pkg, resp.StatusCode)
	}
	blob, err := readAtMost(resp.Body, maxBodyBytes)
	if err != nil {
		return apk.APK{}, fmt.Errorf("crawler: apk %s: %w", pkg, err)
	}
	return apk.Decode(blob)
}

func (c *Crawler) getJSON(url string, v any) error {
	resp, err := c.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d for %s", resp.StatusCode, url)
	}
	doc, err := readAtMost(resp.Body, maxBodyBytes)
	if err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return json.Unmarshal(doc, v)
}

// readAtMost reads r to its end, failing once it passes max bytes.
func readAtMost(r io.Reader, max int) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, int64(max)+1))
	if err == nil && len(b) > max {
		err = fmt.Errorf("body over %d bytes", max)
	}
	return b, err
}

// Dataset returns the accumulated observations.
func (c *Crawler) Dataset() *Dataset { return c.data }

// Days returns the crawl days in order.
func (d *Dataset) Days() []dates.Date {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]dates.Date(nil), d.days...)
}

// Profile returns the latest profile for a package.
func (d *Dataset) Profile(pkg string) (playapi.ProfileDoc, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	doc, ok := d.profiles[pkg]
	return doc, ok
}

// BinSeries returns the install-bin observations for a package.
func (d *Dataset) BinSeries(pkg string) []BinSnapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]BinSnapshot(nil), d.bins[pkg]...)
}

// BinAround returns the observed bin at the crawl nearest to (at or
// before) the given day; ok is false when no observation precedes it.
func (d *Dataset) BinAround(pkg string, day dates.Date) (int64, bool) {
	series := d.BinSeries(pkg)
	if len(series) == 0 {
		return 0, false
	}
	i := sort.Search(len(series), func(i int) bool { return series[i].Day > day })
	if i == 0 {
		// No crawl at or before the day: fall back to the first
		// observation (the campaign may start before our first crawl).
		return series[0].Bin, true
	}
	return series[i-1].Bin, true
}

// BinIncreased reports whether the public install bin grew between the
// start and end of a window (Table 5's per-app outcome).
func (d *Dataset) BinIncreased(pkg string, w dates.Range) bool {
	start, ok1 := d.BinAround(pkg, w.Start)
	end, ok2 := d.BinAround(pkg, w.End)
	return ok1 && ok2 && end > start
}

// BinEverDecreased reports whether any consecutive pair of observations
// shows a drop — the enforcement signal of Section 5.2.
func (d *Dataset) BinEverDecreased(pkg string) bool {
	series := d.BinSeries(pkg)
	for i := 1; i < len(series); i++ {
		if series[i].Bin < series[i-1].Bin {
			return true
		}
	}
	return false
}

// RankOn returns an app's rank in a chart on a crawled day (0 = absent).
func (d *Dataset) RankOn(chart string, day dates.Date, pkg string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	byDay, ok := d.charts[chart]
	if !ok {
		return 0
	}
	return byDay[day][pkg]
}

// InAnyChartOn reports whether the app appears in any chart on the crawled
// day.
func (d *Dataset) InAnyChartOn(day dates.Date, pkg string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, byDay := range d.charts {
		if byDay[day][pkg] > 0 {
			return true
		}
	}
	return false
}

// InAnyChartDuring reports whether the app appears in any chart on any
// crawled day within the window.
func (d *Dataset) InAnyChartDuring(w dates.Range, pkg string) bool {
	for _, day := range d.Days() {
		if !w.Contains(day) {
			continue
		}
		if d.InAnyChartOn(day, pkg) {
			return true
		}
	}
	return false
}

// RankSeries returns (day, rank) points for an app in a chart across all
// crawled days; absent days carry rank 0. This is Figure 5's raw series.
func (d *Dataset) RankSeries(chart, pkg string) []RankPoint {
	var out []RankPoint
	for _, day := range d.Days() {
		out = append(out, RankPoint{Day: day, Rank: d.RankOn(chart, day, pkg)})
	}
	return out
}

// RankPoint is one Figure 5 sample.
type RankPoint struct {
	Day  dates.Date
	Rank int
}
