package sim

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/iip"
	"repro/internal/offers"
)

func buildTiny(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldStructure(t *testing.T) {
	w := buildTiny(t)
	cfg := w.Cfg
	if len(w.Advertised) != cfg.TotalAdvertised {
		t.Errorf("advertised = %d, want %d", len(w.Advertised), cfg.TotalAdvertised)
	}
	if len(w.Campaigns) != cfg.OffersTarget {
		t.Errorf("campaigns = %d, want %d", len(w.Campaigns), cfg.OffersTarget)
	}
	if len(w.Baseline) != cfg.BaselineApps {
		t.Errorf("baseline = %d", len(w.Baseline))
	}
	wantApps := cfg.BaselineApps + cfg.BackgroundApps + cfg.TotalAdvertised
	if got := w.Store.NumApps(); got != wantApps {
		t.Errorf("store apps = %d, want %d", got, wantApps)
	}
	// Per-IIP slot counts are honored.
	perIIP := map[string]int{}
	for _, a := range w.Advertised {
		for _, n := range a.IIPs {
			perIIP[n]++
		}
	}
	for name, want := range cfg.AppsPerIIP {
		if perIIP[name] != want {
			t.Errorf("%s apps = %d, want %d", name, perIIP[name], want)
		}
	}
	// Every advertised app has an APK; baseline too.
	for _, a := range w.Advertised {
		if _, ok := w.APKs[a.Package]; !ok {
			t.Errorf("missing APK for %s", a.Package)
		}
	}
	for _, pkg := range w.Baseline {
		if _, ok := w.APKs[pkg]; !ok {
			t.Errorf("missing baseline APK for %s", pkg)
		}
	}
	// Worker pools exist for all 7 IIPs.
	if len(w.Pools) != 7 {
		t.Errorf("pools = %d, want 7", len(w.Pools))
	}
}

func TestWorldDeterminism(t *testing.T) {
	w1 := buildTiny(t)
	w2 := buildTiny(t)
	if len(w1.Campaigns) != len(w2.Campaigns) {
		t.Fatal("campaign counts differ")
	}
	for i := range w1.Campaigns {
		a, b := w1.Campaigns[i], w2.Campaigns[i]
		if a.OfferID != b.OfferID || a.App != b.App || a.Spec.Description != b.Spec.Description ||
			a.Spec.UserPayoutUSD != b.Spec.UserPayoutUSD || a.DailyUptake != b.DailyUptake {
			t.Fatalf("campaign %d differs: %+v vs %+v", i, a, b)
		}
	}
	s1, err := w1.Run()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := w2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("run stats differ: %+v vs %+v", s1, s2)
	}
}

func TestRunDeliversAndConserves(t *testing.T) {
	w := buildTiny(t)
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.IncentivizedInstalls == 0 {
		t.Error("no incentivized installs delivered")
	}
	if stats.OrganicInstalls == 0 {
		t.Error("no organic installs")
	}
	if stats.CertifiedCompletions == 0 {
		t.Error("no certified completions")
	}
	// Certifications track deliveries one-to-one.
	if stats.CertifiedCompletions != stats.IncentivizedInstalls {
		t.Errorf("certified %d != delivered %d", stats.CertifiedCompletions, stats.IncentivizedInstalls)
	}
	// Money is conserved across the entire economy.
	if got := w.Ledger.Sum(); math.Abs(got) > 1e-6 {
		t.Errorf("ledger sum = %g, want 0", got)
	}
	// Users actually earned money.
	earned := 0.0
	for _, pool := range w.Pools {
		for _, worker := range pool {
			earned += w.Ledger.Balance("user:" + worker.ID)
		}
	}
	if earned <= 0 {
		t.Error("workers earned nothing")
	}
}

func TestOfferTypeMixMatchesTable3(t *testing.T) {
	w, err := NewWorld(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[offers.Type]int{}
	for _, c := range w.Campaigns {
		counts[c.Spec.Type]++
	}
	total := float64(len(w.Campaigns))
	noAct := float64(counts[offers.NoActivity]) / total
	if math.Abs(noAct-0.47) > 0.06 {
		t.Errorf("no-activity share = %.3f, want ~0.47", noAct)
	}
	usage := float64(counts[offers.Usage]) / total
	if math.Abs(usage-0.37) > 0.06 {
		t.Errorf("usage share = %.3f, want ~0.37", usage)
	}
	purchase := float64(counts[offers.Purchase]) / total
	if math.Abs(purchase-0.05) > 0.03 {
		t.Errorf("purchase share = %.3f, want ~0.05", purchase)
	}
	// RankApp is 100% no-activity (Table 4).
	for _, c := range w.Campaigns {
		if c.IIP == iip.RankApp && c.Spec.Type != offers.NoActivity {
			t.Fatalf("RankApp carried an activity offer: %+v", c.Spec)
		}
	}
}

func TestCampaignWindowsInsideStudy(t *testing.T) {
	w := buildTiny(t)
	for _, c := range w.Campaigns {
		if c.Spec.Window.Start < w.Cfg.Window.Start || c.Spec.Window.End > w.Cfg.Window.End {
			t.Fatalf("campaign window %v outside study %v", c.Spec.Window, w.Cfg.Window)
		}
		if c.Spec.Window.Days() < 1 {
			t.Fatalf("empty campaign window: %v", c.Spec.Window)
		}
	}
}

func TestDescriptionsMatchGroundTruth(t *testing.T) {
	w := buildTiny(t)
	cls := offers.RuleClassifier{}
	for _, c := range w.Campaigns {
		if got := cls.Classify(c.Spec.Description); got != c.Spec.Type {
			t.Fatalf("description %q classifies as %v, truth %v", c.Spec.Description, got, c.Spec.Type)
		}
		if c.Spec.Arbitrage != offers.IsArbitrage(c.Spec.Description) {
			t.Fatalf("arbitrage flag mismatch for %q", c.Spec.Description)
		}
	}
}

func TestVettedUnvettedPartition(t *testing.T) {
	if !IsVetted(iip.Fyber) || IsVetted(iip.RankApp) {
		t.Error("IsVetted misclassifies")
	}
	w := buildTiny(t)
	for _, a := range w.Advertised {
		if !a.OnVetted() && !a.OnUnvetted() {
			t.Errorf("app %s on no platform class", a.Package)
		}
	}
}

func TestAdvertisedLookupAndAffiliates(t *testing.T) {
	w := buildTiny(t)
	a := w.Advertised[0]
	got, ok := w.AdvertisedByPackage(a.Package)
	if !ok || got != a {
		t.Error("AdvertisedByPackage failed")
	}
	if _, ok := w.AdvertisedByPackage("no.such.app"); ok {
		t.Error("unknown package should miss")
	}
	// Fyber is integrated by 5 of the 8 instrumented affiliates.
	if got := len(w.AffiliatesForIIP(iip.Fyber)); got != 5 {
		t.Errorf("Fyber affiliates = %d, want 5", got)
	}
	if got := len(w.AffiliatesForIIP("NoSuchIIP")); got != 0 {
		t.Errorf("unknown IIP affiliates = %d", got)
	}
}

func TestPlatformsSortedOrder(t *testing.T) {
	w := buildTiny(t)
	ps := w.PlatformsSorted()
	if len(ps) != 7 {
		t.Fatalf("platforms = %d", len(ps))
	}
	for i, name := range iip.StandardNames {
		if ps[i].Name != name {
			t.Errorf("platform %d = %s, want %s", i, ps[i].Name, name)
		}
	}
}

// TestNewWorldIdenticalAcrossWorkers checks that building the worker
// pools concurrently with the catalog chain changes no byte of the world.
func TestNewWorldIdenticalAcrossWorkers(t *testing.T) {
	build := func(workers int) *World {
		cfg := TinyConfig()
		if err := cfg.Resize(0, 2000, 0); err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ref := build(1)
	refSnap := ref.Store.EncodeSnapshot()
	for _, workers := range []int{2, 8} {
		w := build(workers)
		for _, name := range iip.StandardNames {
			if !reflect.DeepEqual(w.Pools[name], ref.Pools[name]) {
				t.Errorf("workers=%d: pool %s differs from the serial build", workers, name)
			}
		}
		if !bytes.Equal(w.Store.EncodeSnapshot(), refSnap) {
			t.Errorf("workers=%d: store snapshot differs from the serial build", workers)
		}
		if !reflect.DeepEqual(w.Campaigns, ref.Campaigns) {
			t.Errorf("workers=%d: campaigns differ from the serial build", workers)
		}
		if !reflect.DeepEqual(w.APKs, ref.APKs) {
			t.Errorf("workers=%d: APKs differ from the serial build", workers)
		}
	}
}
