// Package affiliate models the affiliate apps that distribute IIP offers
// to end users: the eight instrumented apps of the paper's Table 2, their
// reward-point systems, their offer-wall SDK integrations, and the tabbed
// UI surface that the monitoring pipeline's UI fuzzer drives.
package affiliate

import (
	"encoding/json"
	"fmt"
	"iter"
	"net/http"
	"net/url"

	"repro/internal/dates"
	"repro/internal/iip"
)

// App is an affiliate app. Users browse its offer-wall tabs, complete
// offers, and redeem accumulated points for gift cards; the redemption
// rate (PointsPerUSD) differs across apps, which is why the study has to
// normalize payouts.
type App struct {
	Package      string
	Title        string
	InstallsBin  int64 // public Play Store popularity, e.g. 10_000_000
	PointsPerUSD float64
	// IIPs lists the offer-wall networks integrated by this app, one UI
	// tab each (Table 2's checkmark matrix).
	IIPs []string
}

// IntegratesIIP reports whether the app carries the named network's wall.
func (a *App) IntegratesIIP(name string) bool {
	for _, n := range a.IIPs {
		if n == name {
			return true
		}
	}
	return false
}

// StandardAffiliates returns the eight affiliate apps the paper
// instruments (Table 2), with their offer-wall integration matrix.
func StandardAffiliates() []*App {
	return []*App{
		{
			Package: "com.mobvantage.cashforapps", Title: "Cash For Apps",
			InstallsBin: 10_000_000, PointsPerUSD: 1000,
			IIPs: []string{iip.Fyber, iip.AdGem, iip.HangMyAds, iip.AyetStudios},
		},
		{
			Package: "proxima.makemoney.android", Title: "Make Money - Free Cash",
			InstallsBin: 5_000_000, PointsPerUSD: 500,
			IIPs: []string{iip.Fyber, iip.AdscendMedia},
		},
		{
			Package: "proxima.moneyapp.android", Title: "Money App - Cash Rewards",
			InstallsBin: 1_000_000, PointsPerUSD: 2000,
			IIPs: []string{iip.Fyber},
		},
		{
			Package: "com.bigcash.app", Title: "BigCash - Earn Money",
			InstallsBin: 1_000_000, PointsPerUSD: 100,
			IIPs: []string{iip.AdscendMedia, iip.OfferToro},
		},
		{
			Package: "com.ayet.cashpirate", Title: "CashPirate - Earn Money",
			InstallsBin: 1_000_000, PointsPerUSD: 950,
			IIPs: []string{iip.Fyber, iip.AyetStudios},
		},
		{
			Package: "eu.makemoney", Title: "Make Money & Earn Cash",
			InstallsBin: 1_000_000, PointsPerUSD: 250,
			IIPs: []string{iip.AdscendMedia, iip.RankApp},
		},
		{
			Package: "com.growrich.makemoney", Title: "GrowRich Make Money",
			InstallsBin: 1_000_000, PointsPerUSD: 800,
			IIPs: []string{iip.AdscendMedia, iip.RankApp},
		},
		{
			Package: "make.money.easy", Title: "Make Money Easy Rewards",
			InstallsBin: 100_000, PointsPerUSD: 400,
			IIPs: []string{iip.Fyber, iip.AdscendMedia, iip.AyetStudios},
		},
	}
}

// GCashApp is the RankApp-ecosystem affiliate app observed on workers'
// devices in Section 3 (not instrumented, but present in the device
// population).
const GCashApp = "eu.gcashapp"

// Tab is one offer-wall tab in the affiliate app's UI.
type Tab struct {
	IIP string
	app *App
}

// Tabs enumerates the app's offer-wall tabs in integration order.
func (a *App) Tabs() []Tab {
	out := make([]Tab, len(a.IIPs))
	for i, name := range a.IIPs {
		out[i] = Tab{IIP: name, app: a}
	}
	return out
}

// wallPageSize is how many offers the UI renders per scroll position.
const wallPageSize = 10

// FetchOptions parameterize a wall load.
type FetchOptions struct {
	// BaseURL of the tab's IIP offer-wall server.
	BaseURL string
	// Country the device appears to be in (VPN exit).
	Country string
	// Day is the simulated date stamped on the request.
	Day dates.Date
	// Client issues the requests; the monitor injects a proxy-configured
	// client here. A nil Client uses http.DefaultClient.
	Client *http.Client
	// MaxPages bounds scrolling; 0 means scroll until the wall is
	// exhausted.
	MaxPages int
}

// Load opens the tab and scrolls through the wall, fetching pages until no
// more offers arrive — exactly the stimulus the paper's Appium fuzzer
// generates ("it scrolls through the offer wall to make sure that all the
// offers are loaded"). It returns the offers in wall order; on an error,
// the offers of the pages loaded before it.
func (t Tab) Load(opts FetchOptions) ([]iip.WireOffer, error) {
	var all []iip.WireOffer
	for wall, err := range t.Pages(opts) {
		if err != nil {
			return all, err
		}
		all = append(all, wall.Offers...)
	}
	return all, nil
}

// Pages scrolls the wall as Load does and yields each decoded page, page
// 0 first; page i is the response to PageURL(opts, i). A failed fetch or
// decode is yielded as the last element, with a nil page.
func (t Tab) Pages(opts FetchOptions) iter.Seq2[*iip.WallResponse, error] {
	return func(yield func(*iip.WallResponse, error) bool) {
		client := opts.Client
		if client == nil {
			client = http.DefaultClient
		}
		for page := 0; opts.MaxPages <= 0 || page < opts.MaxPages; page++ {
			wall, err := t.fetchPage(client, t.PageURL(opts, page))
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(wall, nil) || len(wall.Offers) < wallPageSize {
				return
			}
		}
	}
}

// fetchPage fetches and decodes one wall page.
func (t Tab) fetchPage(client *http.Client, pageURL string) (*iip.WallResponse, error) {
	resp, err := client.Get(pageURL)
	if err != nil {
		return nil, fmt.Errorf("affiliate: wall fetch %s/%s: %w", t.app.Package, t.IIP, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("affiliate: wall fetch %s/%s: status %d", t.app.Package, t.IIP, resp.StatusCode)
	}
	var wall iip.WallResponse
	if err := json.NewDecoder(resp.Body).Decode(&wall); err != nil {
		return nil, fmt.Errorf("affiliate: wall decode %s/%s: %w", t.app.Package, t.IIP, err)
	}
	return &wall, nil
}

// PageURL is the wall request Load issues for the given scroll position
// (0-based page). The monitor uses it to find each page's intercepted
// response, so Load and the monitor share one URL format.
func (t Tab) PageURL(opts FetchOptions, page int) string {
	return fmt.Sprintf("%s/offerwall?affiliate=%s&country=%s&day=%d&offset=%d&limit=%d",
		opts.BaseURL,
		url.QueryEscape(t.app.Package),
		url.QueryEscape(opts.Country),
		int(opts.Day),
		page*wallPageSize,
		wallPageSize,
	)
}

// PointsToUSD converts this app's reward points to dollars.
func (a *App) PointsToUSD(points int64) float64 {
	if a.PointsPerUSD <= 0 {
		return 0
	}
	return float64(points) / a.PointsPerUSD
}
