// Package device models the population of users who complete incentivized
// offers: semi-professional crowd workers with money/reward affiliate apps
// on their phones, bots on emulators, devices connecting from cloud ASNs,
// and device farms sharing a /24 network and a WiFi SSID — the automation
// signals the paper's honey app detects in Section 3.
package device

import (
	"fmt"

	"repro/internal/randx"
	"repro/internal/textgen"
)

// ASNType classifies the network a device connects from.
type ASNType int

const (
	// ASNEyeball is a residential/mobile carrier network, expected for
	// real users.
	ASNEyeball ASNType = iota
	// ASNCloud is a datacenter network (e.g. Digital Ocean), a strong
	// automation signal.
	ASNCloud
)

func (a ASNType) String() string {
	if a == ASNCloud {
		return "cloud"
	}
	return "eyeball"
}

// CloudProviders are the datacenter ASNs observed in the paper.
var CloudProviders = []string{"DigitalOcean", "AWS", "OVH", "Hetzner", "Linode"}

// Worker is one participant in the incentivized install economy, with the
// device/network attributes the honey app's telemetry captures.
type Worker struct {
	ID      string
	Country string

	// Network attributes.
	IPBlock  string // /24 prefix, e.g. "203.0.113"
	ASN      ASNType
	ASNName  string
	SSIDHash string // hashed WiFi SSID, as the honey app stores it

	// Device attributes.
	Build    string
	Emulator bool
	Rooted   bool
	FarmID   int // > 0 when the device belongs to a device farm

	// InstalledApps is the package list the honey app uploads; it is how
	// the study identifies affiliate apps on workers' devices.
	InstalledApps []string

	// BaseFraud is the pool's baseline device-reputation penalty; lax
	// platforms attract worker bases that look worse to install
	// filtering even before emulator/farm signals.
	BaseFraud float64

	// Behaviour parameters.
	// OpenProb is the probability the worker actually opens an installed
	// app (RankApp workers often collect the reward via fake postbacks
	// without ever opening it — 45% of the paper's RankApp installs sent
	// no telemetry).
	OpenProb float64
	// EngageProb is the probability of exercising app functionality
	// beyond the offer requirement (clicking the honey app's record
	// button).
	EngageProb float64
	// ReturnProb is the per-day probability of coming back after the
	// offer is complete; engagement "quickly fades over time".
	ReturnProb float64
}

// HasMoneyApp reports whether any installed app carries a money/reward
// keyword (the paper's affiliate-app fingerprint).
func (w *Worker) HasMoneyApp() bool {
	for _, pkg := range w.InstalledApps {
		if textgen.HasMoneyKeyword(pkg) {
			return true
		}
	}
	return false
}

// HasApp reports whether the worker's device carries the named package.
func (w *Worker) HasApp(pkg string) bool {
	for _, p := range w.InstalledApps {
		if p == pkg {
			return true
		}
	}
	return false
}

// FraudScore summarizes how suspicious the device looks to an install
// filtering system, in [0, 1]. It is consumed as playstore.Install's
// FraudScore.
func (w *Worker) FraudScore() float64 {
	score := w.BaseFraud
	if score <= 0 {
		score = 0.30 // baseline: incentivized devices install many promoted apps
	}
	if w.Emulator {
		score += 0.45
	}
	if w.ASN == ASNCloud {
		score += 0.35
	}
	if w.FarmID > 0 {
		score += 0.30
	}
	if w.Rooted {
		score += 0.10
	}
	if score > 1 {
		score = 1
	}
	return score
}

// PoolConfig calibrates a per-IIP worker pool to the behaviour the paper
// measured for that platform's users.
type PoolConfig struct {
	IIP string
	// OpenProb, EngageProb, ReturnProb are the behaviour parameters
	// assigned to every worker in the pool.
	OpenProb, EngageProb, ReturnProb float64
	// MoneyAppProb is the fraction of workers with at least one
	// money-keyword affiliate app installed.
	MoneyAppProb float64
	// TopAffiliate is the pool's most popular affiliate app and the
	// fraction of workers carrying it.
	TopAffiliate     string
	TopAffiliateProb float64
	// EmulatorCount / CloudCount are the expected numbers of automated
	// devices per 500 workers.
	EmulatorCount, CloudCount int
	// FarmSize > 0 plants one device farm of that size in the pool:
	// devices sharing a /24 block and SSID, mostly rooted.
	FarmSize       int
	FarmRootedFrac float64
	// BaseFraud seeds every worker's baseline fraud score.
	BaseFraud float64
}

// DefaultPools returns per-IIP pool configurations calibrated to the
// paper's Section 3 measurements for the three purchased campaigns, plus a
// generic crowd for the remaining IIPs.
func DefaultPools() map[string]PoolConfig {
	return map[string]PoolConfig{
		"Fyber": {
			IIP:      "Fyber",
			OpenProb: 1.0, EngageProb: 0.44, ReturnProb: 0.006,
			BaseFraud:    0.30,
			MoneyAppProb: 0.42,
			TopAffiliate: "proxima.makemoney.android", TopAffiliateProb: 0.09,
			EmulatorCount: 2, CloudCount: 2,
		},
		"ayeT-Studios": {
			IIP:      "ayeT-Studios",
			OpenProb: 1.0, EngageProb: 0.44, ReturnProb: 0.003,
			BaseFraud:    0.42,
			MoneyAppProb: 0.72,
			TopAffiliate: "com.ayet.cashpirate", TopAffiliateProb: 0.20,
			EmulatorCount: 0, CloudCount: 4,
		},
		"RankApp": {
			IIP:      "RankApp",
			OpenProb: 0.55, EngageProb: 0.06, ReturnProb: 0.005,
			BaseFraud:    0.48,
			MoneyAppProb: 0.98,
			TopAffiliate: "eu.gcashapp", TopAffiliateProb: 0.37,
			EmulatorCount: 2, CloudCount: 1,
			FarmSize: 20, FarmRootedFrac: 0.9,
		},
		"generic": {
			IIP:      "generic",
			OpenProb: 0.9, EngageProb: 0.3, ReturnProb: 0.01,
			BaseFraud:    0.32,
			MoneyAppProb: 0.6,
			TopAffiliate: "com.mobvantage.cashforapps", TopAffiliateProb: 0.15,
			EmulatorCount: 1, CloudCount: 1,
		},
	}
}

// otherAffiliates are additional reward apps sprinkled across worker
// devices.
var otherAffiliates = []string{
	"com.mobvantage.cashforapps",
	"proxima.makemoney.android",
	"proxima.moneyapp.android",
	"com.bigcash.app",
	"com.ayet.cashpirate",
	"eu.makemoney",
	"com.growrich.makemoney",
	"make.money.easy",
	"eu.gcashapp",
}

// GeneratePool builds n workers according to cfg. The generator is
// deterministic for a given RNG state.
func GeneratePool(r *randx.Rand, gen *textgen.Gen, cfg PoolConfig, n int) []*Worker {
	workers := make([]*Worker, 0, n)
	// Scale the automation counts to the pool size (configs are per 500);
	// a nonzero configured count always yields at least one device so
	// small test pools keep every signal class.
	scale := float64(n) / 500.0
	emulators := scaleCount(cfg.EmulatorCount, scale)
	clouds := scaleCount(cfg.CloudCount, scale)

	farmBlock := fmt.Sprintf("10.%d.%d", r.IntN(256), r.IntN(256))
	farmSSID := hashSSID(gen.SSID())

	for i := 0; i < n; i++ {
		w := &Worker{
			ID:         fmt.Sprintf("%s-w%05d", cfg.IIP, i),
			BaseFraud:  cfg.BaseFraud,
			Country:    gen.Country(),
			IPBlock:    fmt.Sprintf("%d.%d.%d", 1+r.IntN(223), r.IntN(256), r.IntN(256)),
			ASN:        ASNEyeball,
			ASNName:    "carrier",
			SSIDHash:   hashSSID(gen.SSID()),
			OpenProb:   cfg.OpenProb,
			EngageProb: cfg.EngageProb,
			ReturnProb: cfg.ReturnProb,
		}
		switch {
		case i < emulators:
			w.Emulator = true
			w.Build = gen.DeviceBuild(true)
		case i < emulators+clouds:
			w.ASN = ASNCloud
			w.ASNName = randx.Choice(r, CloudProviders)
			w.Build = gen.DeviceBuild(false)
		case cfg.FarmSize > 0 && i < emulators+clouds+cfg.FarmSize:
			w.FarmID = 1
			w.IPBlock = farmBlock
			w.SSIDHash = farmSSID
			w.Rooted = r.Bool(cfg.FarmRootedFrac)
			w.Build = gen.DeviceBuild(false)
		default:
			w.Build = gen.DeviceBuild(false)
			w.Rooted = r.Bool(0.05)
		}
		w.InstalledApps = installedApps(r, gen, cfg)
		workers = append(workers, w)
	}
	return workers
}

// scaleCount scales a per-500 count to the pool size, keeping nonzero
// configured counts at one or more.
func scaleCount(base int, scale float64) int {
	if base == 0 {
		return 0
	}
	n := int(float64(base)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// installedApps samples a worker's package list.
func installedApps(r *randx.Rand, gen *textgen.Gen, cfg PoolConfig) []string {
	n := r.IntBetween(8, 35)
	apps := make([]string, 0, n+2)
	for i := 0; i < n; i++ {
		apps = append(apps, gen.PackageName(gen.AppName()))
	}
	// A MoneyAppProb fraction of the pool carries at least one
	// money-keyword affiliate app; within that group, the pool's top
	// affiliate appears with conditional probability so its overall share
	// matches TopAffiliateProb.
	if r.Bool(cfg.MoneyAppProb) {
		topCond := 0.0
		if cfg.MoneyAppProb > 0 {
			topCond = cfg.TopAffiliateProb / cfg.MoneyAppProb
		}
		if r.Bool(topCond) {
			apps = append(apps, cfg.TopAffiliate)
		} else {
			apps = append(apps, randx.Choice(r, otherAffiliates))
		}
	}
	return apps
}

// hashSSID reproduces the honey app's privacy transform: only a hash of
// the WiFi network name is stored.
func hashSSID(ssid string) string {
	const offset = 0xcbf29ce484222325
	const prime = 0x100000001b3
	h := uint64(offset)
	for i := 0; i < len(ssid); i++ {
		h ^= uint64(ssid[i])
		h *= prime
	}
	return fmt.Sprintf("ssid:%016x", h)
}

// HashSSID exposes the telemetry SSID transform for the honey-app client.
func HashSSID(ssid string) string { return hashSSID(ssid) }
