package repro

// Massive-world benchmarks (DESIGN.md E12): the order-of-magnitude
// scale-up the SoA store columns, the lockstep detector, and the
// spill-to-disk install log were built for. By default they run a
// mid-size world so `go test -bench` stays tractable; the -massive flag
// switches to the full sim.MassiveConfig population (~100k apps, ~1M
// devices). Both are skipped under -short (CI's budget smoke runs the
// engine through TestEngine*, not through these).
//
// Each sub-benchmark reports, beyond ns/op:
//
//	peakRSS-MB     the process peak RSS over the measured section
//	               (VmHWM from /proc/self/status, reset per variant via
//	               /proc/self/clear_refs; 0 off Linux)
//	devices        the world's device population
//	ns/device-day  ns/op normalized by devices×days — comparable across
//	               world sizes, and the number the E12 "within 1.5x of
//	               ScaleConfig" target reads
//
// BENCH_PR10.json records these columns with the derived
// max_world_devices_at_budget (how many devices fit a fixed 2 GiB
// budget, extrapolating the measured peak linearly) per spill variant.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/iip"
	"repro/internal/lockstep"
	"repro/internal/randx"
	"repro/internal/sim"
)

var massiveFlag = flag.Bool("massive", false,
	"run the massive benchmarks at full sim.MassiveConfig scale (~1M devices) instead of the mid-size default")

// massiveWorldConfig is the benchmark world: full MassiveConfig under
// -massive, otherwise the same shape at a tenth of the population so a
// default bench run finishes in minutes rather than tens of minutes.
// Both sizes keep the paper's full 121-day March-June monitoring window:
// the unbounded variant's install-log and ledger terms grow with every
// simulated day, so the window length IS the experiment.
func massiveWorldConfig() sim.Config {
	cfg := sim.MassiveConfig()
	if !*massiveFlag {
		if err := cfg.Resize(20_000, 100_000, 0); err != nil {
			panic(err)
		}
	}
	return cfg
}

// resetPeakRSS resets the kernel's peak-RSS watermark for this process
// (Linux: write "5" to /proc/self/clear_refs). Best-effort: on other
// platforms the subsequent read reports 0 and the metric is omitted.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status in MB (0 if unavailable).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// benchMassiveRun replays the massive world once per iteration and
// reports the peak-RSS and per-device-day metrics. spill toggles the
// bounded-memory model: off clears InstallLogWindow and re-enables the
// ledger's transaction history (the old everything-resident behavior,
// where both grow O(run)); on keeps MassiveConfig's O(window) bounds.
func benchMassiveRun(b *testing.B, spill bool) {
	cfg := massiveWorldConfig()
	if !spill {
		cfg.InstallLogWindow = 0
		cfg.LedgerBalancesOnly = false
	}
	devices := cfg.WorkerPoolSize * len(iip.StandardNames)
	deviceDays := float64(devices) * float64(cfg.Window.Days())

	// A deployment holding a fixed memory budget runs with tightened GC
	// (GOGC well below 100, or GOMEMLIMIT at the budget); measure both
	// variants under that same discipline so peakRSS-MB reflects each
	// memory model's footprint rather than default-GOGC headroom, which
	// would double whichever variant's live heap is smaller.
	defer debug.SetGCPercent(debug.SetGCPercent(30))

	// Return the previous variant's freed memory to the OS before
	// resetting the watermark, so each variant's peak is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cfg
		c.Seed += uint64(i)
		w, err := sim.NewWorld(c)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := w.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(peakRSSMB(), "peakRSS-MB")
	b.ReportMetric(float64(devices), "devices")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/deviceDays, "ns/device-day")
}

// BenchmarkMassiveWorld is the E12 headline: the full engine at massive
// scale, with the install log unbounded (spill=off — resident memory
// grows with the run) versus windowed to disk (spill=on — resident
// memory O(window)). Identical simulation results either way; only the
// peak-RSS column differs.
func BenchmarkMassiveWorld(b *testing.B) {
	if testing.Short() {
		b.Skip("massive world benchmark skipped in -short")
	}
	b.Run("spill=off", func(b *testing.B) { benchMassiveRun(b, false) })
	b.Run("spill=on", func(b *testing.B) { benchMassiveRun(b, true) })
}

// BenchmarkMassiveLockstepIngest drives the detector's online ingest at
// massive device counts: one million devices under -massive, one hundred
// thousand by default. The stream mixes background noise with planted
// lockstep groups so both the cell fan-out and the bucket-population cap
// are exercised; ns/op is the cost of one full pass over the synthesized
// stream, and peakRSS-MB the peak of one pass (each pass's detector is
// collected before the next is built). After the timed passes, one
// Groups call off the clock must recover exactly the planted groups.
func BenchmarkMassiveLockstepIngest(b *testing.B) {
	if testing.Short() {
		b.Skip("massive lockstep benchmark skipped in -short")
	}
	devices := 100_000
	if *massiveFlag {
		devices = 1_000_000
	}
	const appsPerDevice = 4
	cfg := lockstep.Config{
		DayBucket:           3,
		MinCommonApps:       3,
		MinGroupSize:        3,
		MaxBucketPopulation: 500,
	}
	// Synthesize the event stream once, off the clock: mostly uniform
	// background installs, plus planted 20-device groups marching through
	// the same apps on the same days.
	type ev struct {
		dev, app string
		day      dates.Date
	}
	r := randx.New(97)
	events := make([]ev, 0, devices*appsPerDevice)
	for d := 0; d < devices; d++ {
		dev := fmt.Sprintf("device-%07d", d)
		// Every hundredth device also installs the same viral app the same
		// day: one (app, bucket) cell far over MaxBucketPopulation, so the
		// retraction path runs inside the measured pass.
		if d%100 == 0 {
			events = append(events, ev{dev, "viral-app", dates.Date(1)})
		}
		if d%1000 < 20 { // one planted group per thousand devices
			g := d / 1000
			for k := 0; k < appsPerDevice; k++ {
				events = append(events, ev{dev, fmt.Sprintf("lockstep-app-%d-%d", g, k), dates.Date(k * 3)})
			}
			continue
		}
		for k := 0; k < appsPerDevice; k++ {
			app := fmt.Sprintf("bg-app-%d", r.IntN(devices/10))
			events = append(events, ev{dev, app, dates.Date(r.IntN(30))})
		}
	}

	debug.FreeOSMemory()
	resetPeakRSS()
	b.ResetTimer()
	var det *lockstep.Detector
	for i := 0; i < b.N; i++ {
		if det != nil {
			// Collect the previous pass's detector off the clock, so the
			// next pass reuses its memory and peakRSS-MB stays one pass's
			// peak for any b.N.
			b.StopTimer()
			det = nil
			runtime.GC()
			b.StartTimer()
		}
		det = lockstep.NewDetector(cfg)
		det.Grow(len(events))
		for _, e := range events {
			det.Ingest(e.dev, e.app, e.day)
		}
		if got := det.Stats(); got.BucketsRetracted == 0 {
			b.Fatal("stream never crossed the bucket cap")
		}
	}
	b.StopTimer()
	b.ReportMetric(peakRSSMB(), "peakRSS-MB")
	groups := det.Groups()
	if len(groups) != devices/1000 {
		b.Fatalf("Groups found %d groups, want the %d planted", len(groups), devices/1000)
	}
	for _, g := range groups {
		if len(g.Devices) != 20 || len(g.Apps) != appsPerDevice {
			b.Fatalf("group of %d devices over %d apps, want a planted group of 20 over %d",
				len(g.Devices), len(g.Apps), appsPerDevice)
		}
	}
	b.ReportMetric(float64(devices), "devices")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/install")
}
