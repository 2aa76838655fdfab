package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/affiliate"
	"repro/internal/apk"
	"repro/internal/conc"
	"repro/internal/crunchbase"
	"repro/internal/dates"
	"repro/internal/device"
	"repro/internal/iip"
	"repro/internal/mediator"
	"repro/internal/playstore"
	"repro/internal/randx"
	"repro/internal/stream"
	"repro/internal/textgen"
)

// AdvertisedApp is the world's plan entry for one app observed on IIPs.
type AdvertisedApp struct {
	Package   string
	Developer playstore.DeveloperID
	// IIPs this app is advertised on (an app can be on several).
	IIPs []string
	// Arbitrage marks apps whose campaigns include arbitrage offers.
	Arbitrage bool
}

// OnVetted / OnUnvetted report which platform classes carry the app.
func (a *AdvertisedApp) OnVetted() bool {
	for _, n := range a.IIPs {
		if IsVetted(n) {
			return true
		}
	}
	return false
}

// OnUnvetted reports whether the app is advertised on an unvetted IIP.
func (a *AdvertisedApp) OnUnvetted() bool {
	for _, n := range a.IIPs {
		if !IsVetted(n) {
			return true
		}
	}
	return false
}

// InstallRecord is one device-resolved install observation, the record
// the run log, its checkpoints and replay carry too.
type InstallRecord = stream.Install

// PlannedCampaign couples a launched IIP campaign with its delivery model.
type PlannedCampaign struct {
	IIP     string
	OfferID string
	App     string
	Spec    iip.CampaignSpec
	// DailyUptake is the expected completions per active day (user
	// demand for the offer, the binding constraint on delivery).
	DailyUptake float64
	// Botness raises the fraud profile of the devices fulfilling this
	// campaign (bot-farm fulfillment on lax platforms).
	Botness float64
}

// World is the fully assembled synthetic ecosystem.
type World struct {
	Cfg Config

	Store      *playstore.Store
	Platforms  map[string]*iip.Platform
	Affiliates []*affiliate.App
	Mediator   *mediator.Mediator
	Ledger     *mediator.Ledger
	Crunch     *crunchbase.DB
	Pools      map[string][]*device.Worker
	APKs       map[string]apk.APK
	// Enforcer is the store's install-filtering module (exposed for the
	// enforcement analyses and ablations).
	Enforcer *playstore.Enforcer

	Advertised []*AdvertisedApp
	Baseline   []string
	Background []string
	Campaigns  []*PlannedCampaign

	// InstallLog is the store-side device-resolved install stream for
	// incentivized deliveries: the view Google would feed a lockstep
	// detector (Section 5.2's proposed defense). Batch deliveries log
	// the sampled pool devices that fulfilled them. The log is fully
	// in-RAM by default; Config.InstallLogWindow bounds the resident
	// tail and spills the rest to disk for massive worlds.
	InstallLog InstallLog

	// organic per-app activity rates, fixed at build time.
	organicInstall map[string]float64
	organicDAU     map[string]float64
	organicRevenue map[string]float64

	rand *randx.Rand
	gen  *textgen.Gen
	// developer bookkeeping for crunchbase generation.
	devOfApp map[string]playstore.DeveloperID
	// medAcct is the mediator's interned ledger account name, resolved by
	// newEngine before the day loop starts.
	medAcct string
	// restored remembers the checkpoint last applied via Restore, so
	// RunOpts does not re-apply one the caller already restored (callers
	// that hand out w.Store references — the HTTP facade — must restore
	// before wiring those up).
	restored *stream.Checkpoint
}

// NewWorld builds the world from a config. Building is deterministic in
// cfg.Seed.
func NewWorld(cfg Config) (*World, error) {
	w := &World{
		Cfg:            cfg,
		Store:          playstore.New(cfg.Window.Start),
		Platforms:      iip.StandardPlatforms(),
		Affiliates:     affiliate.StandardAffiliates(),
		Mediator:       mediator.New("appsflyer"),
		Ledger:         mediator.NewLedger(),
		Crunch:         crunchbase.New(dates.CrunchbaseSnapshot),
		Pools:          map[string][]*device.Worker{},
		APKs:           map[string]apk.APK{},
		organicInstall: map[string]float64{},
		organicDAU:     map[string]float64{},
		organicRevenue: map[string]float64{},
		devOfApp:       map[string]playstore.DeveloperID{},
	}
	w.rand = randx.Derive(cfg.Seed, "world")
	w.gen = textgen.New(randx.Derive(cfg.Seed, "names"))

	if cfg.InstallLogWindow > 0 {
		if err := w.InstallLog.EnableSpill(cfg.InstallLogDir, cfg.InstallLogWindow); err != nil {
			return nil, err
		}
	}
	if cfg.LedgerBalancesOnly {
		w.Ledger.DisableTxLog()
	}

	w.Enforcer = playstore.NewEnforcer(randx.Derive(cfg.Seed, "enforce"), cfg.EnforcementSensitivity)
	w.Store.SetEnforcer(w.Enforcer)
	w.Store.SetChartSize(cfg.ChartSize)
	w.Store.SetHorizon(cfg.Window.End)

	// The catalog → campaigns → crunchbase → APKs chain alone draws from
	// w.rand and w.gen; each worker pool owns its own stream and
	// generator. So the pools build concurrently with each other and
	// with the chain (unit 0) and draw exactly what a serial build draws.
	pools := make([][]*device.Worker, len(iip.StandardNames))
	var err error
	conc.ForN(cfg.workerCount(), 1+len(pools), func(i int) {
		if i == 0 {
			err = w.buildChain()
			return
		}
		pools[i-1] = w.buildPool(iip.StandardNames[i-1])
	})
	if err != nil {
		return nil, err
	}
	for i, name := range iip.StandardNames {
		w.Pools[name] = pools[i]
	}
	// Construction is the generator's last use. Its uniqueness maps
	// retain every package and company name ever drawn — O(world), with
	// tens of millions of entries at massive scale — so release them
	// rather than carry them through the run.
	w.gen = nil
	return w, nil
}

// buildChain builds everything that draws from the world's own streams,
// in draw order.
func (w *World) buildChain() error {
	if err := w.buildCatalog(); err != nil {
		return fmt.Errorf("sim: building catalog: %w", err)
	}
	if err := w.buildCampaigns(); err != nil {
		return fmt.Errorf("sim: building campaigns: %w", err)
	}
	w.buildCrunchbase()
	if err := w.buildAPKs(); err != nil {
		return fmt.Errorf("sim: building APKs: %w", err)
	}
	return nil
}

// Close releases resources the world holds outside the heap — today the
// install log's spill file. Safe (and a no-op) for fully in-RAM worlds.
func (w *World) Close() error {
	return w.InstallLog.Close()
}

// figure4Weights shapes the baseline popularity histogram (Figure 4):
// bins 0-1k, 1k-10k, ..., 1000M+.
var figure4Weights = []float64{30, 25, 45, 60, 75, 45, 15, 5}

var figure4Lo = []float64{1, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// sampleBaselinePopularity draws an install count from the Figure 4 shape.
func (w *World) sampleBaselinePopularity(r *randx.Rand) int64 {
	i := r.WeightedIndex(figure4Weights)
	lo := figure4Lo[i]
	return int64(r.LogUniform(lo, lo*10))
}

// newDeveloper registers a fresh developer with the store.
func (w *World) newDeveloper(r *randx.Rand, idx int, prefix string) playstore.DeveloperID {
	id := playstore.DeveloperID(fmt.Sprintf("%s-dev-%05d", prefix, idx))
	name := w.gen.CompanyName()
	// A minority of developers publish incomplete profiles (no website),
	// which later blocks Crunchbase matching, as the paper observed for
	// unvetted-IIP developers.
	website := ""
	if r.Bool(0.75) {
		website = w.gen.Website(name)
	}
	w.Store.AddDeveloper(playstore.Developer{
		ID:      id,
		Name:    name,
		Country: w.gen.Country(),
		Website: website,
		Email:   w.gen.Email(name),
	})
	return id
}

// publishApp creates a listing plus its organic activity rates.
func (w *World) publishApp(r *randx.Rand, dev playstore.DeveloperID, genre string, released dates.Date, installs int64) (string, error) {
	name := w.gen.AppName()
	pkg := w.gen.PackageName(name)
	if err := w.Store.Publish(playstore.Listing{
		Package: pkg, Title: name.Title(), Genre: genre,
		Developer: dev, Released: released,
	}); err != nil {
		return "", err
	}
	if err := w.Store.SeedInstalls(pkg, installs); err != nil {
		return "", err
	}
	w.devOfApp[pkg] = dev
	w.setOrganicRates(r, pkg, installs)
	return pkg, nil
}

// setOrganicRates fixes an app's organic daily activity as a function of
// its popularity. Organic installs scale linearly with the existing user
// base (word-of-mouth growth); the coefficient is calibrated so ~2% of
// baseline apps cross a public install bin during a 25-day window, as in
// the paper's Table 5 baseline. The engine records the resulting volumes
// through the store's batch APIs, so arbitrarily popular apps stay cheap
// to simulate.
func (w *World) setOrganicRates(r *randx.Rand, pkg string, installs int64) {
	n := float64(installs)
	w.organicInstall[pkg] = 0.0012 * n * r.LogNormal(0, 0.5)
	w.organicDAU[pkg] = 0.05 * math.Pow(n, 0.72) * r.LogNormal(0, 0.5)
	// Roughly a third of apps monetize through purchases.
	if r.Bool(0.35) {
		w.organicRevenue[pkg] = 0.002 * n * r.LogNormal(0, 0.7)
	}
}

// boostOrganic multiplies an app's organic rates; advertised apps are in
// active user-acquisition mode (running non-incentivized marketing too),
// the confounder the paper explicitly flags when cautioning that its
// correlations are not causal.
func (w *World) boostOrganic(r *randx.Rand, pkg string, factor float64) {
	b := factor * r.LogNormal(0, 0.4)
	w.organicInstall[pkg] *= b
	w.organicDAU[pkg] *= b
	w.organicRevenue[pkg] *= b
}

func log10p1(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log10(1 + x)
}

// buildCatalog publishes background, baseline, and advertised apps.
func (w *World) buildCatalog() error {
	r := randx.Derive(w.Cfg.Seed, "catalog")

	// Background catalog: chart competition.
	for i := 0; i < w.Cfg.BackgroundApps; i++ {
		dev := w.newDeveloper(r, i, "bg")
		installs := int64(r.LogUniform(1e3, 1e9))
		released := w.Cfg.Window.Start.AddDays(-r.IntBetween(60, 2000))
		pkg, err := w.publishApp(r, dev, w.gen.Genre(), released, installs)
		if err != nil {
			return err
		}
		w.Background = append(w.Background, pkg)
	}

	// Baseline apps (Figure 4 shape).
	for i := 0; i < w.Cfg.BaselineApps; i++ {
		dev := w.newDeveloper(r, i, "base")
		installs := w.sampleBaselinePopularity(r)
		released := w.Cfg.Window.Start.AddDays(-r.IntBetween(60, 2000))
		pkg, err := w.publishApp(r, dev, w.gen.Genre(), released, installs)
		if err != nil {
			return err
		}
		w.Baseline = append(w.Baseline, pkg)
	}

	// Advertised apps: per-IIP slots, overlapping apps across IIPs.
	type slot struct{ iipName string }
	var slots []slot
	for _, name := range iip.StandardNames {
		for i := 0; i < w.Cfg.AppsPerIIP[name]; i++ {
			slots = append(slots, slot{name})
		}
	}
	// Shuffle deterministically.
	perm := r.Perm(len(slots))
	shuffled := make([]slot, len(slots))
	for i, p := range perm {
		shuffled[i] = slots[p]
	}

	for _, s := range shuffled {
		if len(w.Advertised) < w.Cfg.TotalAdvertised {
			// New unique app, characterized by its home IIP (Table 4
			// medians). Some developers publish several advertised apps
			// (the paper counts 351 developers behind 392 ayeT apps).
			var dev playstore.DeveloperID
			if len(w.Advertised) > 0 && r.Bool(0.12) {
				dev = w.Advertised[r.IntN(len(w.Advertised))].Developer
			} else {
				dev = w.newDeveloper(r, len(w.Advertised), "adv")
			}
			med := w.Cfg.MedianInstalls[s.iipName]
			installs := int64(r.LogNormal(lnF(float64(med)), 1.6))
			age := w.Cfg.MedianAgeDays[s.iipName]
			released := w.Cfg.Window.Start.AddDays(-maxInt(1, int(r.LogNormal(lnF(float64(age)), 0.7))))
			pkg, err := w.publishApp(r, dev, w.gen.Genre(), released, installs)
			if err != nil {
				return err
			}
			w.boostOrganic(r, pkg, w.Cfg.AdvertisedGrowthBoost)
			w.Advertised = append(w.Advertised, &AdvertisedApp{
				Package:   pkg,
				Developer: dev,
				IIPs:      []string{s.iipName},
			})
			continue
		}
		// Extra slot: attach this IIP to an existing app that does not
		// have it yet, preferring apps already advertised on the same
		// platform class — cross-class dual listings are the minority in
		// the paper (492 vetted + 538 unvetted from 922 unique apps).
		vetted := IsVetted(s.iipName)
		for tries := 0; tries < 80; tries++ {
			a := w.Advertised[r.IntN(len(w.Advertised))]
			if containsStr(a.IIPs, s.iipName) {
				continue
			}
			sameClass := (vetted && a.OnVetted()) || (!vetted && a.OnUnvetted())
			if !sameClass && tries < 40 && !r.Bool(0.15) {
				continue
			}
			a.IIPs = append(a.IIPs, s.iipName)
			break
		}
	}

	// Arbitrage apps: per-group shares.
	for _, a := range w.Advertised {
		switch {
		case a.OnVetted() && r.Bool(w.Cfg.ArbitrageShareVetted):
			a.Arbitrage = true
		case a.OnUnvetted() && !a.OnVetted() && r.Bool(w.Cfg.ArbitrageShareUnvetted):
			a.Arbitrage = true
		}
	}
	return nil
}

// lnF is a zero-guarded natural log used for log-normal medians.
func lnF(x float64) float64 {
	if x < 1 {
		x = 1
	}
	return math.Log(x)
}

func containsStr(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PlatformsSorted returns the platforms in stable Table 1 order.
func (w *World) PlatformsSorted() []*iip.Platform {
	out := make([]*iip.Platform, 0, len(w.Platforms))
	for _, name := range iip.StandardNames {
		out = append(out, w.Platforms[name])
	}
	return out
}

// AdvertisedByPackage returns the plan entry for a package, if any.
func (w *World) AdvertisedByPackage(pkg string) (*AdvertisedApp, bool) {
	for _, a := range w.Advertised {
		if a.Package == pkg {
			return a, true
		}
	}
	return nil, false
}

// AffiliatesForIIP lists the instrumented affiliate apps integrating an
// IIP, sorted by package, scanning w.Affiliates on every call. No
// delivery path calls it: the engine build lists each pool's affiliate
// accounts once, in the run's name tables (runNames).
func (w *World) AffiliatesForIIP(name string) []*affiliate.App {
	var out []*affiliate.App
	for _, a := range w.Affiliates {
		if a.IntegratesIIP(name) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Package < out[j].Package })
	return out
}
