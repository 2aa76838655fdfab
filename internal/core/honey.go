package core

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/dates"
	"repro/internal/device"
	"repro/internal/honeyapp"
	"repro/internal/iip"
	"repro/internal/offers"
	"repro/internal/playstore"
	"repro/internal/randx"
	"repro/internal/textgen"
)

// HoneyAppPackage is the package name of the instrumented voice-memos app.
const HoneyAppPackage = "edu.research.voicememos"

// honeyTarget is the number of installs purchased per IIP (paper: 500).
const honeyTarget = 500

// honeyIIPs are the platforms the paper purchased from: one vetted
// (Fyber) and two unvetted (ayeT-Studios, RankApp).
var honeyIIPs = []string{iip.Fyber, iip.AyetStudios, iip.RankApp}

// overdelivery is the ratio of delivered to purchased installs per
// platform (626 / 550 / 503 out of 500 in the paper).
var overdelivery = map[string]float64{
	iip.Fyber:       1.252,
	iip.AyetStudios: 1.100,
	iip.RankApp:     1.006,
}

// HoneyCampaign summarizes one purchased campaign, with every field
// derived the way the paper derived it: console analytics for delivery,
// collected telemetry for engagement and automation signals.
type HoneyCampaign struct {
	IIP    string
	Vetted bool
	// ConsoleInstalls is what the Play developer console reports.
	ConsoleInstalls int
	// TelemetryInstalls is how many installs ever sent telemetry (opened
	// the app at least once); the RankApp gap is the paper's missing 45%.
	TelemetryInstalls int
	// Engaged is how many telemetry installs clicked the record button.
	Engaged int
	// DayAfterEngaged is how many clicked the record button a day or
	// more after their first open (retention).
	DayAfterEngaged int
	// CompletionHours is how long the platform took to deliver.
	CompletionHours float64
	// Automation signals from telemetry.
	EmulatorInstalls int
	CloudASNInstalls int
	// Device farm: largest group of telemetry installs sharing a /24
	// block, and how many of those are rooted devices on a single SSID.
	FarmInstalls       int
	FarmRootedSameSSID int
	// Affiliate-app analysis over workers' installed-package lists.
	MoneyKeywordShare float64
	TopAffiliate      string
	TopAffiliateShare float64
}

// HoneyResults aggregates the Section 3 experiment.
type HoneyResults struct {
	Campaigns []HoneyCampaign
	// TotalInstalls across all campaigns (paper: 1,679).
	TotalInstalls int
	// PublicInstallBin is the honey app's public install count after the
	// campaigns (paper: 0 -> 1,000+).
	PublicInstallBin int64
	// OrganicDuringCampaigns verifies attribution: the console reported
	// no organic installs while campaigns ran.
	OrganicDuringCampaigns int64
	// UniqueInstalledApps observed across workers' devices (paper:
	// 17,454 across its 1,679 installs).
	UniqueInstalledApps int
}

// runHoneyExperiment publishes the honey app, purchases 500 no-activity
// installs from each of the three IIPs through the normal platform flow,
// and reproduces the Section 3 analyses from the collected telemetry plus
// developer-console analytics.
func (s *Study) runHoneyExperiment() (*HoneyResults, error) {
	w := s.World
	r := randx.Derive(w.Cfg.Seed, "honey")

	w.Store.AddDeveloper(playstore.Developer{
		ID: "research", Name: "University Research Group", Country: "USA",
	})
	if err := w.Store.Publish(playstore.Listing{
		Package: HoneyAppPackage, Title: "Voice Memos Saver", Genre: "Tools",
		Developer: "research", Released: w.Cfg.Window.Start.AddDays(-7),
	}); err != nil {
		return nil, err
	}

	collect := honeyapp.NewServer()
	client := &honeyapp.Client{
		BaseURL: s.surfaces.Serve(collect.Handler()),
		HTTP:    &http.Client{Transport: &s.surfaces},
	}

	results := &HoneyResults{}
	uniqueApps := map[string]bool{}
	type campaignMeta struct {
		name      string
		vetted    bool
		delivered int
		hours     float64
		pool      []*device.Worker
		perm      []int
	}
	var metas []campaignMeta

	// Purchase and deliver, one campaign at a time (the paper spreads
	// campaigns so no two deliver simultaneously).
	campaignDay := w.Cfg.Window.Start
	for _, name := range honeyIIPs {
		platform := w.Platforms[name]
		docs := iip.Documentation{}
		if platform.Vetted {
			docs = iip.Documentation{TaxID: "TAX-research", BankAccount: "IBAN-research"}
		}
		if err := platform.RegisterDeveloper("research", docs); err != nil {
			return nil, err
		}
		delivered := int(float64(honeyTarget) * overdelivery[name])
		deposit := platform.GrossCostPerInstall(0.06)*float64(delivered)*1.2 + platform.MinDepositUSD
		if err := platform.Deposit("research", deposit); err != nil {
			return nil, err
		}
		spec := honeyOfferSpec(w.Cfg.Window)
		spec.Target = delivered
		campaign, err := platform.LaunchCampaign(spec)
		if err != nil {
			return nil, err
		}

		hours := float64(delivered) / platform.PacePerHour
		pool := w.Pools[name]
		perm := r.Perm(len(pool))
		for i := 0; i < delivered; i++ {
			worker := pool[perm[i%len(perm)]]
			day := campaignDay.AddDays(int(hours) / 24 * i / maxInt(1, delivered))
			if _, err := platform.RecordCompletion(campaign.OfferID, day); err != nil {
				return nil, fmt.Errorf("honey completion on %s: %w", name, err)
			}
			if err := w.Store.RecordInstall(HoneyAppPackage, playstore.Install{
				Day:        day,
				Source:     playstore.SourceReferral,
				FraudScore: worker.FraudScore(),
			}); err != nil {
				return nil, err
			}
			for _, pkg := range worker.InstalledApps {
				uniqueApps[pkg] = true
			}

			// Telemetry arrives only from installs that actually open
			// the app. Automated devices (emulators, cloud VMs, device
			// farms) always open — that is how they trigger the
			// attribution postback — so the missing telemetry comes
			// from spoofed completions elsewhere in the crowd.
			openP := worker.OpenProb
			if worker.Emulator || worker.ASN == device.ASNCloud || worker.FarmID > 0 {
				openP = 1
			}
			if !r.Bool(openP) {
				continue
			}
			hour := int(hours * float64(i) / float64(delivered))
			app := honeyapp.Install(client, fmt.Sprintf("%s-i%04d", name, i), name, honeyapp.DeviceInfo{
				Build:         worker.Build,
				Rooted:        worker.Rooted,
				Emulator:      worker.Emulator,
				SSIDHash:      worker.SSIDHash,
				IPBlock:       worker.IPBlock + ".99", // client truncates to /24
				ASNName:       worker.ASNName,
				CloudASN:      worker.ASN == device.ASNCloud,
				InstalledApps: worker.InstalledApps,
			})
			if err := app.Open(hour); err != nil {
				return nil, err
			}
			if r.Bool(worker.EngageProb) {
				if err := app.ClickRecord(hour); err != nil {
					return nil, err
				}
			}
			if r.Bool(worker.ReturnProb) {
				if err := app.ClickRecord(hour + 24); err != nil {
					return nil, err
				}
			}
		}
		metas = append(metas, campaignMeta{
			name: name, vetted: platform.Vetted, delivered: delivered,
			hours: hours, pool: pool, perm: perm,
		})
		results.TotalInstalls += delivered
		campaignDay = campaignDay.AddDays(2 + int(hours)/24)
	}

	// Analyze the collected telemetry, per campaign.
	events := collect.Events()
	for _, meta := range metas {
		c := HoneyCampaign{
			IIP:             meta.name,
			Vetted:          meta.vetted,
			ConsoleInstalls: meta.delivered,
			CompletionHours: meta.hours,
		}
		analyzeTelemetry(&c, events)
		c.MoneyKeywordShare, c.TopAffiliate, c.TopAffiliateShare =
			affiliateShares(meta.pool, meta.perm, meta.delivered)
		results.Campaigns = append(results.Campaigns, c)
	}

	exact, err := w.Store.ExactInstalls(HoneyAppPackage)
	if err != nil {
		return nil, err
	}
	results.PublicInstallBin = playstore.InstallBin(exact)
	results.UniqueInstalledApps = len(uniqueApps)

	console, err := w.Store.Console(HoneyAppPackage, w.Cfg.Window.Start, campaignDay)
	if err != nil {
		return nil, err
	}
	for _, d := range console {
		results.OrganicDuringCampaigns += d.Organic
	}
	return results, nil
}

// analyzeTelemetry fills a campaign's engagement and automation fields
// from the collected events, exactly as the paper's server-side analysis
// did.
func analyzeTelemetry(c *HoneyCampaign, events []honeyapp.Event) {
	firstOpen := map[string]int{}
	clicked := map[string]bool{}
	dayAfter := map[string]bool{}
	emulator := map[string]bool{}
	cloud := map[string]bool{}
	blocks := map[string]map[string]bool{}       // /24 -> install IDs
	rootedBySSID := map[string]map[string]bool{} // block|ssid -> rooted install IDs
	for _, ev := range events {
		if ev.IIP != c.IIP {
			continue
		}
		switch ev.Kind {
		case honeyapp.KindOpen:
			if _, ok := firstOpen[ev.InstallID]; !ok {
				firstOpen[ev.InstallID] = ev.HourOffset
			}
			if ev.Device.Emulator {
				emulator[ev.InstallID] = true
			}
			if ev.Device.CloudASN {
				cloud[ev.InstallID] = true
			}
			b := blocks[ev.Device.IPBlock]
			if b == nil {
				b = map[string]bool{}
				blocks[ev.Device.IPBlock] = b
			}
			b[ev.InstallID] = true
			if ev.Device.Rooted {
				key := ev.Device.IPBlock + "|" + ev.Device.SSIDHash
				rb := rootedBySSID[key]
				if rb == nil {
					rb = map[string]bool{}
					rootedBySSID[key] = rb
				}
				rb[ev.InstallID] = true
			}
		case honeyapp.KindRecordClick:
			clicked[ev.InstallID] = true
			if open, ok := firstOpen[ev.InstallID]; ok && ev.HourOffset >= open+24 {
				dayAfter[ev.InstallID] = true
			}
		}
	}
	c.TelemetryInstalls = len(firstOpen)
	c.Engaged = len(clicked)
	c.DayAfterEngaged = len(dayAfter)
	c.EmulatorInstalls = len(emulator)
	c.CloudASNInstalls = len(cloud)
	for _, ids := range blocks {
		if len(ids) >= 10 && len(ids) > c.FarmInstalls {
			c.FarmInstalls = len(ids)
		}
	}
	for _, ids := range rootedBySSID {
		if len(ids) > c.FarmRootedSameSSID {
			c.FarmRootedSameSSID = len(ids)
		}
	}
}

// affiliateShares computes the money-keyword and top-affiliate-app shares
// over the workers who delivered a campaign.
func affiliateShares(pool []*device.Worker, perm []int, delivered int) (moneyShare float64, top string, topShare float64) {
	if delivered == 0 {
		return 0, "", 0
	}
	money := 0
	counts := map[string]int{}
	for i := 0; i < delivered; i++ {
		w := pool[perm[i%len(perm)]]
		if w.HasMoneyApp() {
			money++
		}
		seen := map[string]bool{}
		for _, pkg := range w.InstalledApps {
			if textgen.HasMoneyKeyword(pkg) && !seen[pkg] {
				counts[pkg]++
				seen[pkg] = true
			}
		}
	}
	type kv struct {
		pkg string
		n   int
	}
	arr := make([]kv, 0, len(counts))
	for pkg, n := range counts {
		arr = append(arr, kv{pkg, n})
	}
	sort.Slice(arr, func(i, j int) bool {
		if arr[i].n != arr[j].n {
			return arr[i].n > arr[j].n
		}
		return arr[i].pkg < arr[j].pkg
	})
	if len(arr) > 0 {
		top = arr[0].pkg
		topShare = float64(arr[0].n) / float64(delivered)
	}
	return float64(money) / float64(delivered), top, topShare
}

// honeyOfferSpec is the no-activity offer purchased for the honey app.
func honeyOfferSpec(window dates.Range) iip.CampaignSpec {
	return iip.CampaignSpec{
		Developer:     "research",
		AppPackage:    HoneyAppPackage,
		Description:   "Install and Launch",
		Type:          offers.NoActivity,
		UserPayoutUSD: 0.06,
		Target:        honeyTarget,
		Window:        window,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
