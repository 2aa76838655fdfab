package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark times the
// analysis that produces one artifact against a fully built and simulated
// world; the world itself is constructed once per benchmark binary.
//
// Run with: go test -bench=. -benchmem .

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dates"
	"repro/internal/iip"
	"repro/internal/lockstep"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/offers"
	"repro/internal/playstore"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stream"
)

var (
	benchOnce     sync.Once
	benchStudy    *core.Study
	benchAnalysis *core.Analysis
	benchErr      error
)

// benchFixture runs the full study once (small world, full pipeline).
func benchFixture(b *testing.B) (*core.Study, *core.Analysis) {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = core.Run(sim.TinyConfig(), core.Options{MilkEveryDays: 4})
		if benchErr == nil {
			benchAnalysis = benchStudy.NewAnalysis()
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy, benchAnalysis
}

// --- Tables ---

func BenchmarkTable1IIPCharacterization(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := a.Table1(); len(rows) != 7 {
			b.Fatal("table 1 wrong size")
		}
	}
}

func BenchmarkTable2AffiliateMatrix(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := a.Table2(); len(rows) != 8 {
			b.Fatal("table 2 wrong size")
		}
	}
}

func BenchmarkTable3OfferTypes(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := a.Table3(); len(rows) == 0 {
			b.Fatal("table 3 empty")
		}
	}
}

func BenchmarkTable4IIPSummary(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := a.Table4(); len(rows) == 0 {
			b.Fatal("table 4 empty")
		}
	}
}

func BenchmarkTable5InstallIncrease(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6TopCharts(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Table6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7Funding(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Table7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8FundedOffers(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Table8()
	}
}

// --- Figures ---

// BenchmarkFigure1Workflow times one complete offer lifecycle through the
// Figure 1 money/offer flow: campaign launch, click tracking, completion
// certification, and settlement.
func BenchmarkFigure1Workflow(b *testing.B) {
	platform := iip.StandardPlatforms()[iip.Fyber]
	if err := platform.RegisterDeveloper("dev", iip.Documentation{TaxID: "T", BankAccount: "B"}); err != nil {
		b.Fatal(err)
	}
	if err := platform.Deposit("dev", 1e9); err != nil {
		b.Fatal(err)
	}
	window := dates.Range{Start: dates.StudyStart, End: dates.StudyEnd}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := platform.LaunchCampaign(iip.CampaignSpec{
			Developer: "dev", AppPackage: "bench.app",
			Description: "Install and Launch", UserPayoutUSD: 0.06,
			Target: 1, Window: window,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := platform.RecordCompletion(c.OfferID, dates.StudyStart); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2RankAppClaims(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := a.Figure2()
		found := false
		for _, r := range rows {
			if r.AdvertisesRankBoost {
				found = true
			}
		}
		if !found {
			b.Fatal("manipulation claim not detected")
		}
	}
}

// BenchmarkFigure3Infrastructure times one full milking pass — UI fuzzing
// of every instrumented affiliate app through the recording proxy from all
// eight vantage countries.
func BenchmarkFigure3Infrastructure(b *testing.B) {
	s, _ := benchFixture(b)
	day := s.World.Cfg.Window.End
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Milker.MilkDay(day); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4BaselineHistogram(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bins := a.Figure4(); len(bins) != 8 {
			b.Fatal("figure 4 wrong size")
		}
	}
}

func BenchmarkFigure5CaseStudies(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Figure5()
	}
}

func BenchmarkFigure6AdLibraryCDF(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section experiments ---

// BenchmarkSection3HoneyExperiment times the full honey-app experiment:
// publishing, purchasing three campaigns, delivering 1,679 installs with
// HTTP telemetry, and analyzing the collected events.
func BenchmarkSection3HoneyExperiment(b *testing.B) {
	cfg := sim.TinyConfig()
	cfg.BackgroundApps, cfg.BaselineApps = 10, 10
	cfg.TotalAdvertised, cfg.OffersTarget = 7, 7
	for name := range cfg.AppsPerIIP {
		cfg.AppsPerIIP[name] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		if _, err := core.RunHoneyOnly(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection5Enforcement(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Enforcement()
	}
}

// BenchmarkSection5LockstepDetector times the proposed-defense detector
// over the study's device-resolved install stream plus organic decoys.
func BenchmarkSection5LockstepDetector(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := a.Lockstep()
		if err != nil {
			b.Fatal(err)
		}
		if l.Groups == 0 {
			b.Fatal("detector found nothing")
		}
	}
}

// BenchmarkAblationLockstepThreshold sweeps the detector's MinCommonApps
// threshold (looser thresholds trade precision for recall and cost).
func BenchmarkAblationLockstepThreshold(b *testing.B) {
	s, _ := benchFixture(b)
	var events []lockstep.Event
	for rec := range s.World.InstallLog.All() {
		events = append(events, lockstep.Event{Device: rec.Device, App: rec.App, Day: rec.Day})
	}
	for _, min := range []int{2, 3, 5} {
		b.Run(fmt.Sprintf("minCommon=%d", min), func(b *testing.B) {
			cfg := lockstep.DefaultConfig()
			cfg.MinCommonApps = min
			for i := 0; i < b.N; i++ {
				lockstep.Detect(events, cfg)
			}
		})
	}
}

func BenchmarkArbitrageAnalysis(b *testing.B) {
	_, a := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Arbitrage()
	}
}

// --- End-to-end ---

// BenchmarkFullStudy times the entire pipeline on the small world: world
// build, honey experiment, 41 simulated days with crawling and milking
// over live HTTP, and all analyses.
func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.TinyConfig()
		cfg.Seed += uint64(i)
		if _, err := core.Run(cfg, core.Options{MilkEveryDays: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine scaling (DESIGN.md: "Sharded store + parallel day engine") ---

// benchSimRun times the day engine alone: world construction happens off
// the clock, each iteration replays the full window at the given worker
// count. Results are identical for every worker count (asserted by
// TestEngineDeterministicAcrossWorkerCounts); only wall-clock differs.
// The ns/device-day metric normalizes by world size, making the number
// comparable against the massive-scale benchmarks (DESIGN.md E12).
func benchSimRun(b *testing.B, cfg sim.Config, workers int) {
	b.Helper()
	cfg.Workers = workers
	deviceDays := float64(cfg.WorkerPoolSize*len(iip.StandardNames)) * float64(cfg.Window.Days())
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
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/deviceDays, "ns/device-day")
}

// BenchmarkSimRunTiny is the small-world engine baseline (DESIGN.md E1).
// The pooled sub-benchmark is named "workers=max" (not the numeric
// GOMAXPROCS) so names are stable across machines and never collide with
// "workers=1" on single-core hosts.
func BenchmarkSimRunTiny(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchSimRun(b, sim.TinyConfig(), 1) })
	b.Run("workers=max", func(b *testing.B) { benchSimRun(b, sim.TinyConfig(), 0) })
}

// BenchmarkSimRunScale replays the ~20x world sequentially and with the
// full worker pool (workers=max, i.e. GOMAXPROCS); the ratio between the
// two sub-benchmarks is the engine's parallel speedup on this machine
// (DESIGN.md E2).
func BenchmarkSimRunScale(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchSimRun(b, sim.ScaleConfig(), 1) })
	b.Run("workers=max", func(b *testing.B) { benchSimRun(b, sim.ScaleConfig(), 0) })
}

// benchSimRunEvents replays the ~20x world with and without the
// event-sourced run log attached (DESIGN.md E6). The log drains into a
// buffered discard writer, so the measured delta is the engine-side cost
// the subsystem adds — per-unit event encoding plus the ordered barrier
// concatenation — independent of disk speed. events=off must match
// BenchmarkSimRunScale/workers=1 (the nil-writer paths compile to a
// branch), and events=on is the <5% overhead target.
func benchSimRunEvents(b *testing.B, events bool) {
	cfg := sim.ScaleConfig()
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cfg
		c.Seed += uint64(i)
		w, err := sim.NewWorld(c)
		if err != nil {
			b.Fatal(err)
		}
		var opts sim.RunOptions
		if events {
			runLog, err := w.NewRunLog(bufio.NewWriterSize(io.Discard, 1<<20))
			if err != nil {
				b.Fatal(err)
			}
			opts.Log = runLog
		}
		b.StartTimer()
		if _, err := w.RunOpts(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimRunEvents(b *testing.B) {
	b.Run("events=off", func(b *testing.B) { benchSimRunEvents(b, false) })
	b.Run("events=on", func(b *testing.B) { benchSimRunEvents(b, true) })
}

// benchSimRunMetrics replays the ~20x world with and without the full
// observability surface attached (DESIGN.md E11): registry, every
// engine/run-loop histogram, and the run-phase tracer ring. Metrics take
// their timestamps only at day-phase boundaries (~8 time.Now calls per
// simulated day), so the metrics=on line must stay within 1% of
// metrics=off: the E11 acceptance bar pins metrics_on_off_overhead_pct,
// derived from the two lines' samples (BENCH_PR9.json), below 1.
func benchSimRunMetrics(b *testing.B, metrics bool) {
	cfg := sim.ScaleConfig()
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cfg
		c.Seed += uint64(i)
		w, err := sim.NewWorld(c)
		if err != nil {
			b.Fatal(err)
		}
		var opts sim.RunOptions
		if metrics {
			opts.Metrics = sim.NewMetrics(obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCap))
		}
		b.StartTimer()
		if _, err := w.RunOpts(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimRunMetrics(b *testing.B) {
	b.Run("metrics=off", func(b *testing.B) { benchSimRunMetrics(b, false) })
	b.Run("metrics=on", func(b *testing.B) { benchSimRunMetrics(b, true) })
}

// seekBench lazily builds a segmented ~20x-world run log in memory (about
// a dozen 4MiB segments), shared by the seek benchmark's sub-benchmarks.
var seekBench struct {
	once sync.Once
	log  []byte
	err  error
}

func seekBenchLog(b *testing.B) []byte {
	b.Helper()
	seekBench.once.Do(func() {
		cfg := sim.ScaleConfig()
		cfg.Workers = 1
		w, err := sim.NewWorld(cfg)
		if err != nil {
			seekBench.err = err
			return
		}
		var buf bytes.Buffer
		runLog, err := w.NewRunLog(&buf)
		if err != nil {
			seekBench.err = err
			return
		}
		runLog.SetSegmentBytes(4 << 20)
		if _, err := w.RunOpts(sim.RunOptions{Log: runLog}); err != nil {
			seekBench.err = err
			return
		}
		seekBench.log = buf.Bytes()
	})
	if seekBench.err != nil {
		b.Fatal(seekBench.err)
	}
	return seekBench.log
}

// BenchmarkRunLogSeek times rebuilding the state at the last day of a
// month-scale segmented log two ways: a full verifying replay of every
// event, and ScanIndex + ReplayDay, which restores the last segment's
// embedded checkpoint and replays only that segment (DESIGN.md E8). The
// ratio is the seek speedup the v3 format buys; it grows linearly with
// the number of segments in the log.
func BenchmarkRunLogSeek(b *testing.B) {
	data := seekBenchLog(b)
	idx, err := stream.ScanIndex(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	last, ok := idx.LastDay()
	if !ok || len(idx.Segments) < 2 {
		b.Fatalf("bench log unusable: lastDay=%v segments=%d", ok, len(idx.Segments))
	}
	b.Run("mode=full-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stream.Replay(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=seek-last-day", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stream.ReplayDay(bytes.NewReader(data), last); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRecordParallel hammers the sharded write path from all
// procs at once; before sharding, every RecordInstallBatch serialized on
// one store-wide mutex (DESIGN.md E3).
func BenchmarkStoreRecordParallel(b *testing.B) {
	store := playstore.New(dates.StudyStart)
	store.AddDeveloper(playstore.Developer{ID: "d"})
	const apps = 512
	pkgs := make([]string, apps)
	for i := range pkgs {
		pkgs[i] = fmt.Sprintf("bench.app.n%04d", i)
		if err := store.Publish(playstore.Listing{
			Package: pkgs[i], Title: "B", Genre: "Puzzle", Developer: "d",
		}); err != nil {
			b.Fatal(err)
		}
	}
	var goroutineSeq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger goroutines across the package space so they mostly hit
		// different shards, the pattern the day engine produces.
		i := int(goroutineSeq.Add(1)) * 7919
		for pb.Next() {
			pkg := pkgs[i%apps]
			// b.Error, not b.Fatal: FailNow must not be called from
			// RunParallel worker goroutines.
			if err := store.RecordInstallBatch(pkg, dates.StudyStart, 3, playstore.SourceReferral, 0.3); err != nil {
				b.Error(err)
				return
			}
			if err := store.RecordSessionBatch(pkg, dates.StudyStart, 2, 120); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationClassifierRule vs ...Bayes compare the rule-based
// description classifier against the trained naive-Bayes variant.
func BenchmarkAblationClassifierRule(b *testing.B) {
	_, a := benchFixture(b)
	ds := a.RawOffers()
	cls := offers.RuleClassifier{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range ds {
			cls.Classify(o.Description)
		}
	}
}

func BenchmarkAblationClassifierBayes(b *testing.B) {
	_, a := benchFixture(b)
	ds := a.RawOffers()
	nb := offers.NewBayesClassifier()
	for _, o := range ds {
		nb.Train(o.Description, o.Truth)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range ds {
			nb.Classify(o.Description)
		}
	}
}

// Chart-scoring ablation: engagement-weighted (paper-faithful) vs
// installs-only ranking over a day's chart computation.
func benchChartScoring(b *testing.B, mode playstore.ChartScoring) {
	s, _ := benchFixture(b)
	s.World.Store.SetChartScoring(mode)
	defer s.World.Store.SetChartScoring(playstore.EngagementScoring)
	day := s.World.Cfg.Window.End
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.World.Store.StepDay(day)
	}
}

func BenchmarkAblationChartScoringEngagement(b *testing.B) {
	benchChartScoring(b, playstore.EngagementScoring)
}

func BenchmarkAblationChartScoringInstallsOnly(b *testing.B) {
	benchChartScoring(b, playstore.InstallsOnlyScoring)
}

// Proxy ablation: offer collection through the recording MITM proxy versus
// scraping the walls directly (no interception layer).
func BenchmarkAblationProxyVsDirect_Proxy(b *testing.B) {
	s, _ := benchFixture(b)
	day := s.World.Cfg.Window.End
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Milker.MilkDay(day); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationProxyVsDirect_Direct(b *testing.B) {
	// A direct scrape against one live wall without the proxy hop.
	platform := iip.StandardPlatforms()[iip.Fyber]
	if err := platform.RegisterDeveloper("dev", iip.Documentation{TaxID: "T", BankAccount: "B"}); err != nil {
		b.Fatal(err)
	}
	if err := platform.Deposit("dev", 1e6); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := platform.LaunchCampaign(iip.CampaignSpec{
			Developer: "dev", AppPackage: "bench.app",
			Description: "Install and Launch", UserPayoutUSD: 0.06,
			Target: 10, Window: dates.Range{Start: dates.StudyStart, End: dates.StudyEnd},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := platform.ActiveOffers(dates.StudyStart, "USA"); len(got) != 40 {
			b.Fatal("wrong offer count")
		}
	}
}

// Enforcement ablation: detection sensitivity sweep over a bot-heavy
// install stream (subbenchmarks per sensitivity).
func BenchmarkAblationEnforcement(b *testing.B) {
	for _, sens := range []float64{0.0, 0.4, 1.0} {
		name := "sens=0.0"
		switch sens {
		case 0.4:
			name = "sens=0.4"
		case 1.0:
			name = "sens=1.0"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := playstore.New(dates.StudyStart)
				store.AddDeveloper(playstore.Developer{ID: "d"})
				if err := store.Publish(playstore.Listing{Package: "x", Title: "x", Genre: "Tools", Developer: "d"}); err != nil {
					b.Fatal(err)
				}
				store.SetEnforcer(playstore.NewEnforcer(randx.New(uint64(i)), sens))
				for d := 0; d < 30; d++ {
					day := dates.StudyStart.AddDays(d)
					if err := store.RecordInstallBatch("x", day, 80, playstore.SourceReferral, 0.9); err != nil {
						b.Fatal(err)
					}
					store.StepDay(day)
				}
			}
		})
	}
}

// BenchmarkMonitorParseWall isolates the offer-wall JSON parsing hot path.
func BenchmarkMonitorParseWall(b *testing.B) {
	rec := monitor.Record{
		Status:      200,
		ContentType: "application/json",
		Body: []byte(`{"network":"Fyber","affiliate":"com.ayet.cashpirate","country":"USA",` +
			`"offers":[{"offer_id":"f-1","app_package":"com.a.b","store_url":"https://play.google.com/store/apps/details?id=com.a.b",` +
			`"description":"Install and Register","points":340}]}`),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := monitor.ParseWall(rec); !ok {
			b.Fatal("parse failed")
		}
	}
}

// BenchmarkChiSquare isolates the statistical test.
func BenchmarkChiSquare(b *testing.B) {
	t := stats.Table2x2{A0: 294, A1: 6, B0: 431, B1: 61}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.ChiSquareIndependence(t); err != nil {
			b.Fatal(err)
		}
	}
}
