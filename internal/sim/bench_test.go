package sim

import (
	"io"
	"testing"

	"repro/internal/dates"
	"repro/internal/device"
	"repro/internal/iip"
	"repro/internal/mediator"
	"repro/internal/offers"
	"repro/internal/playstore"
	"repro/internal/stream"
)

// benchDeliveryFixture hand-assembles the smallest world that can run the
// full deliverOne flow (click, install, postbacks, settlement, payout
// postings) with a campaign target and balance big enough to never
// exhaust under any b.N.
func benchDeliveryFixture(b *testing.B, typ offers.Type) (*World, *campUnit, dates.Date) {
	b.Helper()
	day := dates.StudyStart
	const pkg = "bench.delivery.app"

	store := playstore.New(day)
	store.AddDeveloper(playstore.Developer{ID: "bench-dev"})
	if err := store.Publish(playstore.Listing{
		Package: pkg, Title: "B", Genre: "Puzzle", Developer: "bench-dev", Released: day,
	}); err != nil {
		b.Fatal(err)
	}

	platform := &iip.Platform{
		Name: "benchiip", FeeFraction: 0.30, AffiliateFraction: 0.30,
		PacePerHour: 1e9,
	}
	if err := platform.RegisterDeveloper("bench-dev", iip.Documentation{}); err != nil {
		b.Fatal(err)
	}
	if err := platform.Deposit("bench-dev", 1e12); err != nil {
		b.Fatal(err)
	}
	spec := iip.CampaignSpec{
		Developer: "bench-dev", AppPackage: pkg,
		Description: "Install and Register", Type: typ,
		UserPayoutUSD: 0.06, Target: 1 << 30,
		Window: dates.Range{Start: day, End: day.AddDays(1 << 20)},
	}
	c, err := platform.LaunchCampaign(spec)
	if err != nil {
		b.Fatal(err)
	}

	med := mediator.New("bench")
	med.RegisterOffer(c.OfferID, typ)

	pool := make([]*device.Worker, 64)
	for i := range pool {
		pool[i] = &device.Worker{
			ID: "bench-worker", OpenProb: 1, EngageProb: 0.5, ReturnProb: 0.1,
		}
	}

	w := &World{
		Cfg:       TinyConfig(),
		Store:     store,
		Platforms: map[string]*iip.Platform{platform.Name: platform},
		Mediator:  med,
		Ledger:    mediator.NewLedger(),
		Pools:     map[string][]*device.Worker{platform.Name: pool},
		Campaigns: []*PlannedCampaign{{
			IIP: platform.Name, OfferID: c.OfferID, App: pkg, Spec: spec,
			DailyUptake: 5,
		}},
	}
	w.medAcct = mediator.MediatorAccount(med.Name)

	e := &engine{w: w, organic: make([]organicUnit, 1)}
	u, err := e.resolveUnit(w.Campaigns[0], newRunNames(w).camps[0])
	if err != nil {
		b.Fatal(err)
	}
	return w, u, day
}

// BenchmarkDeliverOne times the full-fidelity delivery flow the campaign
// phase runs per completion (DESIGN.md E5): worker pick, click session,
// store install/session records through the app handle, postback
// certification, lock-free settlement, and four buffered ledger postings.
func BenchmarkDeliverOne(b *testing.B) {
	for _, tc := range []struct {
		name string
		typ  offers.Type
	}{
		{"noactivity", offers.NoActivity},
		{"registration", offers.Registration},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w, u, day := benchDeliveryFixture(b, tc.typ)
			sink := &unitSink{}
			u.app.Lock()
			defer u.app.Unlock()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done, err := w.deliverOne(u, day, sink)
				if err != nil || !done {
					b.Fatalf("deliverOne = (%v, %v)", done, err)
				}
				// Drain the sink the way the day barrier does, keeping
				// steady-state memory bounded at any b.N.
				if sink.txs.Len() >= 4096 {
					if err := sink.txs.FlushTo(w.Ledger); err != nil {
						b.Fatal(err)
					}
					sink.log = sink.log[:0]
					if w.Ledger.NumTransactions() >= 1<<20 {
						w.Ledger = mediator.NewLedger()
					}
				}
			}
		})
	}
}

// BenchmarkCheckpointRoundTrip times one full checkpoint round trip of
// the TinyConfig world at day 35 (a few hundred thousand install
// records): stream it out (WriteTo into io.Discard), then decode the same
// bytes and iterate the decoded install list, which is what Restore
// consumes. Run with -benchmem: the allocations are the point.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	w, err := NewWorld(TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var cp *stream.Checkpoint
	if _, err := w.RunOpts(RunOptions{
		CheckpointEvery: 35,
		Checkpoint: func(c *stream.Checkpoint) error {
			cp = c
			return nil
		},
	}); err != nil {
		b.Fatal(err)
	}
	enc := cp.Encode()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
		dec, err := stream.DecodeCheckpoint(enc)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, err := range dec.Installs.All() {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != cp.Installs.Len() {
			b.Fatalf("decoded %d installs, want %d", n, cp.Installs.Len())
		}
	}
}

// newWorldBenchCases are the two worlds BenchmarkNewWorld and
// BenchmarkNewEngine build: the tiny world on one worker and a
// study-sized one (6,000 devices) on two.
func newWorldBenchCases(b *testing.B) []struct {
	name string
	cfg  Config
} {
	study := TinyConfig()
	if err := study.Resize(0, 6000, 0); err != nil {
		b.Fatal(err)
	}
	study.Workers = 2
	tiny := TinyConfig()
	tiny.Workers = 1
	return []struct {
		name string
		cfg  Config
	}{
		{"tiny/workers=1", tiny},
		{"study/workers=2", study},
	}
}

// BenchmarkNewWorld times a whole world build: the catalog chain plus
// the seven crowd-worker pools and their devices' package names. Run
// with -benchmem: the allocations are the point.
func BenchmarkNewWorld(b *testing.B) {
	for _, tc := range newWorldBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := NewWorld(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				w.Close()
			}
		})
	}
}

// BenchmarkNewEngine times the engine build a run starts with: the work
// units, their streams and store handles, and the name of every package,
// device and account the day loop writes. The world is built once,
// outside the timer. Run with -benchmem: the allocations are the point.
func BenchmarkNewEngine(b *testing.B) {
	for _, tc := range newWorldBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			w, err := NewWorld(tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := newEngine(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
