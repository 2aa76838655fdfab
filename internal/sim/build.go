package sim

import (
	"fmt"
	"math"

	"repro/internal/apk"
	"repro/internal/crunchbase"
	"repro/internal/dates"
	"repro/internal/device"
	"repro/internal/iip"
	"repro/internal/mediator"
	"repro/internal/offers"
	"repro/internal/randx"
	"repro/internal/textgen"
)

// activitySubtypeWeights splits activity offers into usage, registration,
// and purchase in the paper's 37:11:5 overall proportion (Table 3).
var activitySubtypeWeights = []float64{37, 11, 5}

var activitySubtypes = []offers.Type{offers.Usage, offers.Registration, offers.Purchase}

// buildCampaigns launches every planned campaign on its platform: it
// registers developers (passing the vetted review where needed), deposits
// funds through the ledger, generates offer descriptions, and registers
// completion requirements with the mediator.
func (w *World) buildCampaigns() error {
	r := randx.Derive(w.Cfg.Seed, "campaigns")
	grammar := offers.NewGrammar(randx.Derive(w.Cfg.Seed, "grammar"))

	// Count app-IIP pairs, then spread OffersTarget over them: every
	// pair gets one offer, the surplus lands on random pairs.
	type pair struct {
		app *AdvertisedApp
		iip string
	}
	var pairs []pair
	for _, a := range w.Advertised {
		for _, name := range a.IIPs {
			pairs = append(pairs, pair{a, name})
		}
	}
	offersPerPair := make([]int, len(pairs))
	for i := range offersPerPair {
		offersPerPair[i] = 1
	}
	for extra := w.Cfg.OffersTarget - len(pairs); extra > 0; extra-- {
		offersPerPair[r.IntN(len(pairs))]++
	}

	for i, p := range pairs {
		platform := w.Platforms[p.iip]
		devID := string(p.app.Developer)
		if err := w.ensureIIPAccount(platform, devID); err != nil {
			return err
		}
		for k := 0; k < offersPerPair[i]; k++ {
			if err := w.launchOne(r, grammar, platform, p.app, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// ensureIIPAccount registers the developer on the platform once.
func (w *World) ensureIIPAccount(platform *iip.Platform, devID string) error {
	if _, err := platform.Balance(devID); err == nil {
		return nil
	}
	docs := iip.Documentation{}
	if platform.Vetted {
		docs = iip.Documentation{
			TaxID:       "TAX-" + devID,
			BankAccount: "IBAN-" + devID,
		}
	}
	return platform.RegisterDeveloper(devID, docs)
}

// launchOne creates and funds a single campaign for (app, platform).
func (w *World) launchOne(r *randx.Rand, grammar *offers.Grammar, platform *iip.Platform, app *AdvertisedApp, seq int) error {
	name := platform.Name
	// Offer type: per-IIP no-activity share, then the global activity
	// subtype split.
	var typ offers.Type
	if r.Bool(w.Cfg.NoActivityShare[name]) {
		typ = offers.NoActivity
	} else {
		typ = activitySubtypes[r.WeightedIndex(activitySubtypeWeights)]
	}
	// Arbitrage apps convert one usage-ish offer into an arbitrage offer.
	arb := app.Arbitrage && typ == offers.Usage && seq == 0

	payout := basePayoutFor(typ) * w.Cfg.PayoutScale[name] * r.LogNormal(0, 0.35)
	if payout < 0.01 {
		payout = 0.01
	}

	start := w.Cfg.Window.Start.AddDays(r.IntN(maxInt(1, w.Cfg.Window.Days()-12)))
	duration := int(r.LogNormal(lnF(float64(w.Cfg.MeanCampaignDays)), 0.5))
	if duration < 3 {
		duration = 3
	}
	end := start.AddDays(duration)
	if end > w.Cfg.Window.End {
		end = w.Cfg.Window.End
	}

	target := r.IntBetween(w.Cfg.CampaignTargetMinUnvetted, w.Cfg.CampaignTargetMaxUnvetted)
	if platform.Vetted {
		target = r.IntBetween(w.Cfg.CampaignTargetMinVetted, w.Cfg.CampaignTargetMaxVetted)
		// Established apps purchase proportionally larger campaigns.
		target = int(float64(target) * w.campaignSizeFactor(app.Package))
	}

	spec := iip.CampaignSpec{
		Developer:     string(app.Developer),
		AppPackage:    app.Package,
		Description:   grammar.Describe(typ, arb),
		Type:          typ,
		Arbitrage:     arb,
		UserPayoutUSD: round2(payout),
		Target:        target,
		Window:        dates.Range{Start: start, End: end},
	}

	// Fund the account for the full campaign plus mediator fees.
	cost := platform.GrossCostPerInstall(spec.UserPayoutUSD)*float64(target) + w.Mediator.FeePerUser*float64(target)
	deposit := cost * 1.05
	if deposit < platform.MinDepositUSD {
		deposit = platform.MinDepositUSD
	}
	if err := platform.Deposit(spec.Developer, deposit); err != nil {
		return fmt.Errorf("funding %s on %s: %w", spec.Developer, platform.Name, err)
	}
	if err := w.Ledger.Post(mediator.ExternalWorld, mediator.DeveloperAccount(spec.Developer), deposit, "campaign funding"); err != nil {
		return err
	}

	c, err := platform.LaunchCampaign(spec)
	if err != nil {
		return fmt.Errorf("launching for %s on %s: %w", app.Package, platform.Name, err)
	}
	w.Mediator.RegisterOffer(c.OfferID, typ)

	// Daily uptake: user demand for the offer, heavier for higher
	// payouts. Unvetted platforms carry small cheap campaigns; vetted
	// platforms serve established apps whose campaign volumes scale with
	// the existing user base (a 1M-install app buys proportionally more
	// completions than a 100-install one).
	base := 1.0
	sizeFactor := 1.0
	if platform.Vetted {
		base = 2.2
		sizeFactor = w.campaignSizeFactor(app.Package)
	}
	uptake := base * sizeFactor * r.LogNormal(0, 1.1) * (0.5 + math.Min(payout, 3.0))
	// A slice of unvetted campaigns is fulfilled by outright bot farms,
	// whose device reputation is bad enough for Play's install filter to
	// occasionally catch (the ~2% of unvetted apps whose counts dropped
	// in Section 5.2).
	botness := 0.0
	if !platform.Vetted && r.Bool(0.12) {
		botness = 0.3
		// Bot farms deliver in volume: fraudulent fulfillment is fast.
		uptake *= 4
	}
	w.Campaigns = append(w.Campaigns, &PlannedCampaign{
		IIP:         name,
		OfferID:     c.OfferID,
		App:         app.Package,
		Spec:        spec,
		DailyUptake: uptake,
		Botness:     botness,
	})
	return nil
}

// campaignSizeFactor scales vetted campaign volume with the app's user
// base so purchased engagement stays a meaningful fraction of organic
// engagement — a 1M-install app buys campaigns sized for a 1M-install app.
func (w *World) campaignSizeFactor(pkg string) float64 {
	installs, err := w.Store.ExactInstalls(pkg)
	if err != nil {
		return 1
	}
	return math.Min(3000, math.Max(1, math.Pow(float64(installs), 0.72)/450))
}

func basePayoutFor(t offers.Type) float64 {
	switch t {
	case offers.NoActivity:
		return BasePayout["noactivity"]
	case offers.Usage:
		return BasePayout["usage"]
	case offers.Registration:
		return BasePayout["registration"]
	default:
		return BasePayout["purchase"]
	}
}

func round2(x float64) float64 {
	return math.Round(x*100) / 100
}

// buildCrunchbase creates the funding database: matched developers for
// advertised and baseline apps, funding rounds after campaign windows, and
// public-company flags.
func (w *World) buildCrunchbase() {
	r := randx.Derive(w.Cfg.Seed, "crunchbase")
	orgSeq := 0

	roundTypes := []crunchbase.RoundType{
		crunchbase.Seed, crunchbase.Angel, crunchbase.SeriesA,
		crunchbase.SeriesB, crunchbase.SeriesC, crunchbase.SeriesD,
		crunchbase.SeriesF,
	}

	// Advertised apps.
	publicLeft := 28
	for _, a := range w.Advertised {
		dev, err := w.Store.Developer(a.Developer)
		if err != nil {
			continue
		}
		matchP := w.Cfg.CrunchbaseMatchUnvetted
		fundP := w.Cfg.FundedAfterUnvetted
		if a.OnVetted() {
			matchP = w.Cfg.CrunchbaseMatchVetted
			fundP = w.Cfg.FundedAfterVetted
		}
		if !r.Bool(matchP) {
			continue
		}
		if dev.Website == "" {
			// Unmatched: profile too sparse to resolve, mirroring the
			// paper's unmatched unvetted developers.
			continue
		}
		public := publicLeft > 0 && r.Bool(0.035)
		if public {
			publicLeft--
		}
		orgSeq++
		orgID := fmt.Sprintf("org-%05d", orgSeq)
		w.Crunch.AddOrganization(crunchbase.Organization{
			ID: orgID, Name: dev.Name, Website: dev.Website,
			Country: dev.Country, Public: public,
		})
		if r.Bool(fundP) {
			// Round lands a couple of weeks after the app's last
			// campaign, as in the Dashlane/Droom case studies.
			end := w.lastCampaignEnd(a.Package)
			w.Crunch.AddRound(crunchbase.Round{
				OrgID:     orgID,
				Date:      end.AddDays(r.IntBetween(10, 30)),
				Type:      randx.Choice(r, roundTypes),
				AmountUSD: r.LogUniform(1e6, 120e6),
				Investor:  w.gen.CompanyName() + " Ventures",
			})
		}
	}

	// Baseline apps.
	for _, pkg := range w.Baseline {
		dev, err := w.Store.Developer(w.devOfApp[pkg])
		if err != nil || !r.Bool(w.Cfg.CrunchbaseMatchBaseline) || dev.Website == "" {
			continue
		}
		orgSeq++
		orgID := fmt.Sprintf("org-%05d", orgSeq)
		w.Crunch.AddOrganization(crunchbase.Organization{
			ID: orgID, Name: dev.Name, Website: dev.Website, Country: dev.Country,
		})
		if r.Bool(w.Cfg.FundedAfterBaseline) {
			w.Crunch.AddRound(crunchbase.Round{
				OrgID:     orgID,
				Date:      w.Cfg.Window.Start.AddDays(r.IntN(w.Cfg.Window.Days() + 60)),
				Type:      randx.Choice(r, roundTypes),
				AmountUSD: r.LogUniform(1e6, 120e6),
				Investor:  w.gen.CompanyName() + " Ventures",
			})
		}
	}
}

// lastCampaignEnd returns the latest campaign end for an app (or the
// window start when the app has no campaigns yet).
func (w *World) lastCampaignEnd(pkg string) dates.Date {
	end := w.Cfg.Window.Start
	for _, c := range w.Campaigns {
		if c.App == pkg && c.Spec.Window.End > end {
			end = c.Spec.Window.End
		}
	}
	return end
}

// buildAPKs assembles an APK for every advertised and baseline app, with
// ad-library counts conditioned on offer behaviour to match Figure 6.
func (w *World) buildAPKs() error {
	r := randx.Derive(w.Cfg.Seed, "apks")
	adLibs := apk.AdLibraryNames()
	nonAd := []string{"OkHttp", "Gson", "Glide", "Firebase", "AppsFlyer", "EventBus"}

	hasActivity := map[string]bool{}
	for _, c := range w.Campaigns {
		if c.Spec.Type.IsActivity() {
			hasActivity[c.App] = true
		}
	}

	build := func(pkg string, lambda float64) error {
		nAds := r.Poisson(lambda)
		if nAds > len(adLibs) {
			nAds = len(adLibs)
		}
		libs := randx.Sample(r, adLibs, nAds)
		libs = append(libs, randx.Sample(r, nonAd, r.IntBetween(1, 4))...)
		a, err := apk.Build(r, pkg, libs, w.Cfg.Obfuscation)
		if err != nil {
			return err
		}
		w.APKs[pkg] = a
		return nil
	}

	for _, a := range w.Advertised {
		// Activity-offer apps integrate more ad SDKs (60% with >= 5 in
		// Figure 6a); no-activity apps fewer; young unvetted-only apps
		// the fewest (Figure 6b's 20% for unvetted).
		lambda := 4.0 // vetted-class, no-activity
		switch {
		case hasActivity[a.Package] && a.OnVetted():
			lambda = 5.9
		case hasActivity[a.Package]:
			lambda = 4.4 // unvetted-only activity apps stay lean
		case !a.OnVetted():
			lambda = 3.2 // young unvetted-only apps carry few SDKs
		}
		if err := build(a.Package, lambda); err != nil {
			return err
		}
	}
	for _, pkg := range w.Baseline {
		if err := build(pkg, 4.4); err != nil { // baseline: 35% with >= 5
			return err
		}
	}
	return nil
}

// buildPool generates one IIP's crowd-worker pool from the pool's own
// stream, so pools build independently of each other and of the world.
func (w *World) buildPool(name string) []*device.Worker {
	defaults := device.DefaultPools()
	cfg, ok := defaults[name]
	if !ok {
		cfg = defaults["generic"]
		cfg.IIP = name
	}
	r := randx.Derive(w.Cfg.Seed, "pool-"+name)
	return device.GeneratePool(r, textgen.New(r), cfg, w.Cfg.WorkerPoolSize)
}
