package iip

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dates"
	"repro/internal/offers"
)

// listWall is the wall as a sort-everything listing computes it: every
// live campaign of the platform that targets the country, in OfferID
// order, as the wire offers an affiliate at the given point rate sees.
func listWall(p *Platform, day dates.Date, country string, rate float64) []WireOffer {
	var live []Campaign
	for _, c := range p.Campaigns() {
		if c.Stopped || c.Delivered >= c.Spec.Target || !c.Spec.Window.Contains(day) {
			continue
		}
		if len(c.Spec.Countries) > 0 && !containsString(c.Spec.Countries, country) {
			continue
		}
		live = append(live, c)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].OfferID < live[j].OfferID })
	out := make([]WireOffer, 0, len(live))
	for _, c := range live {
		out = append(out, WireOffer{
			OfferID:     c.OfferID,
			AppPackage:  c.Spec.AppPackage,
			StoreURL:    "https://play.google.com/store/apps/details?id=" + c.Spec.AppPackage,
			Description: c.Spec.Description,
			Points:      int64(math.Round(c.Spec.UserPayoutUSD * rate)),
		})
	}
	return out
}

// scrollWall fetches a wall page by page, as an affiliate app scrolls it,
// and concatenates the pages.
func scrollWall(t *testing.T, h http.Handler, day dates.Date, country string) []WireOffer {
	t.Helper()
	all := []WireOffer{}
	for offset := 0; ; offset += 10 {
		url := fmt.Sprintf("/offerwall?affiliate=aff&country=%s&day=%d&offset=%d&limit=10", country, int(day), offset)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
		var page WallResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if page.Offers == nil {
			t.Fatalf("%s: offers encoded as null", url)
		}
		all = append(all, page.Offers...)
		if len(page.Offers) < 10 {
			return all
		}
	}
}

// launchWallMix launches campaigns from, to to (exclusive) on p: every
// fifth is restricted to some countries, stopped, filled to its target,
// outside the checked days' windows or plain, and windows start on
// staggered days.
func launchWallMix(t *testing.T, p *Platform, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		start := dates.StudyStart.AddDays(i % 40)
		spec := CampaignSpec{
			Developer: "dev1", AppPackage: fmt.Sprintf("com.wall.app%05d", i),
			Description: "Install and Launch", Type: offers.NoActivity,
			UserPayoutUSD: 0.01 * float64(1+i%37), Target: 5,
			Window: dates.Range{Start: start, End: start.AddDays(15)},
		}
		switch i % 5 {
		case 0:
			spec.Countries = [][]string{{"India"}, {"USA", "Brazil"}}[i/5%2]
		case 3:
			spec.Window = dates.Range{Start: dates.StudyEnd.AddDays(1), End: dates.StudyEnd.AddDays(9)}
		}
		c := launch(t, p, spec)
		switch i % 5 {
		case 1:
			c.Stopped = true
		case 2:
			if _, n, err := p.RecordCompletions(c.OfferID, start, spec.Target); err != nil || n != spec.Target {
				t.Fatalf("filling %s: %d settled, %v", c.OfferID, n, err)
			}
		}
	}
}

// checkWallPages compares, for several days and countries, the paged wall
// and ActiveOffers with the sort-everything listing.
func checkWallPages(t *testing.T, p *Platform) {
	t.Helper()
	const rate = 1000
	h := NewServer(p, map[string]float64{"aff": rate}).Handler()
	for _, day := range []dates.Date{dates.StudyStart, dates.StudyStart.AddDays(9), dates.StudyStart.AddDays(30), dates.StudyStart.AddDays(52)} {
		for _, country := range []string{"USA", "India", "Germany"} {
			want := listWall(p, day, country, rate)
			if got := scrollWall(t, h, day, country); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: paged wall (%d offers) differs from the full sorted wall (%d offers)", country, day, len(got), len(want))
			}
			active := p.ActiveOffers(day, country)
			if len(active) != len(want) {
				t.Fatalf("%s %v: ActiveOffers lists %d offers, want %d", country, day, len(active), len(want))
			}
			for i, o := range active {
				if o.OfferID != want[i].OfferID || o.StoreURL != want[i].StoreURL || o.IIP != p.Name {
					t.Fatalf("%s %v: ActiveOffers[%d] = %+v, want %+v", country, day, i, o, want[i])
				}
			}
		}
	}
}

// TestWallPagesConcatenateToSortedWall: serving a page walks the wall
// index instead of listing and sorting the whole wall, so the pages at
// offsets 0, 10, 20, ... must concatenate to the full sorted wall, also
// once OfferIDs grow past four digits and launch order stops being
// OfferID order, after launches that follow a wall read, and after a
// snapshot restore onto a fresh platform and onto one that already has
// some of the campaigns.
func TestWallPagesConcatenateToSortedWall(t *testing.T) {
	const n = 10_060
	p := newFundedPlatform(t, Fyber)
	if err := p.Deposit("dev1", 1e9); err != nil {
		t.Fatal(err)
	}
	launchWallMix(t, p, 0, 9_990)
	checkWallPages(t, p)
	launchWallMix(t, p, 9_990, n)
	// A five-digit ID sorts before four-digit ones launched earlier.
	crossed := false
	wall := p.ActiveOffers(dates.StudyStart.AddDays(9), "USA")
	for i := 0; i+1 < len(wall) && !crossed; i++ {
		crossed = len(wall[i].OfferID) > len(wall[i+1].OfferID)
	}
	if !crossed {
		t.Fatal("no five-digit OfferID sorts before a four-digit one: the mix does not cross the ID width")
	}
	checkWallPages(t, p)

	snap := p.EncodeSnapshot()
	fresh := StandardPlatforms()[Fyber]
	if err := fresh.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	checkWallPages(t, fresh)

	partial := newFundedPlatform(t, Fyber)
	if err := partial.Deposit("dev1", 1e9); err != nil {
		t.Fatal(err)
	}
	launchWallMix(t, partial, 0, 4_000)
	// A restore updates the campaigns the platform has and appends the
	// rest; a wall read before it must not leave a stale order behind.
	checkWallPages(t, partial)
	if err := partial.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	checkWallPages(t, partial)
	if got, want := partial.ActiveOffers(dates.StudyStart.AddDays(9), "India"), p.ActiveOffers(dates.StudyStart.AddDays(9), "India"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored wall lists %d offers, the original %d", len(got), len(want))
	}
	if !reflect.DeepEqual(partial.EncodeSnapshot(), snap) {
		t.Fatal("restored platform re-encodes to a different snapshot")
	}
}
