package sim

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/playstore"
	"repro/internal/stream"
)

// runFingerprint captures everything the determinism contract covers: the
// run stats, the device-resolved install log, every ledger balance and the
// full transaction sequence, the final charts, and per-app exact installs.
type runFingerprint struct {
	stats    RunStats
	installs []InstallRecord
	balances map[string]float64
	numTxs   int
	txDigest uint64
	charts   map[string][]playstore.ChartEntry
	exact    map[string]int64
}

func fingerprintRun(t *testing.T, workers, maxProcs int) runFingerprint {
	t.Helper()
	if maxProcs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxProcs))
	}
	cfg := TinyConfig()
	cfg.Workers = workers
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	fp := runFingerprint{
		stats:    stats,
		installs: collect(t, &w.InstallLog),
		balances: w.Ledger.Balances(),
		numTxs:   w.Ledger.NumTransactions(),
		charts:   map[string][]playstore.ChartEntry{},
		exact:    map[string]int64{},
	}
	// Order-sensitive digest of the transaction log: the ordered flush
	// must make even the posting sequence identical across worker counts.
	// Shares the fnvMix accumulator with the equivalence goldens so both
	// tests hash transactions identically.
	h := newFnv()
	for _, tx := range w.Ledger.Transactions() {
		h.str(tx.From)
		h.str(tx.To)
		h.str(tx.Memo)
		h.u64(math.Float64bits(tx.Amount))
	}
	fp.txDigest = uint64(h)
	for _, name := range playstore.ChartNames {
		fp.charts[name] = w.Store.Chart(name)
	}
	for _, pkg := range w.Store.Packages() {
		n, err := w.Store.ExactInstalls(pkg)
		if err != nil {
			t.Fatal(err)
		}
		fp.exact[pkg] = n
	}
	return fp
}

func diffFingerprints(t *testing.T, label string, a, b runFingerprint) {
	t.Helper()
	if a.stats != b.stats {
		t.Errorf("%s: run stats differ: %+v vs %+v", label, a.stats, b.stats)
	}
	if len(a.installs) != len(b.installs) {
		t.Fatalf("%s: install log length %d vs %d", label, len(a.installs), len(b.installs))
	}
	for i := range a.installs {
		if a.installs[i] != b.installs[i] {
			t.Fatalf("%s: install log diverges at %d: %+v vs %+v", label, i, a.installs[i], b.installs[i])
		}
	}
	if a.numTxs != b.numTxs {
		t.Errorf("%s: transaction counts differ: %d vs %d", label, a.numTxs, b.numTxs)
	}
	if a.txDigest != b.txDigest {
		t.Errorf("%s: transaction logs differ (order or amounts)", label)
	}
	if len(a.balances) != len(b.balances) {
		t.Errorf("%s: balance account counts differ: %d vs %d", label, len(a.balances), len(b.balances))
	}
	for acct, bal := range a.balances {
		if other, ok := b.balances[acct]; !ok || other != bal {
			t.Fatalf("%s: balance %q differs: %v vs %v (bit-exact required)", label, acct, bal, other)
		}
	}
	for name, entries := range a.charts {
		other := b.charts[name]
		if len(entries) != len(other) {
			t.Fatalf("%s: chart %s size %d vs %d", label, name, len(entries), len(other))
		}
		for i := range entries {
			if entries[i] != other[i] {
				t.Fatalf("%s: chart %s diverges at rank %d: %+v vs %+v", label, name, i+1, entries[i], other[i])
			}
		}
	}
	for pkg, n := range a.exact {
		if other, ok := b.exact[pkg]; !ok || other != n {
			t.Fatalf("%s: exact installs for %s differ: %d vs %d", label, pkg, n, other)
		}
	}
}

// TestEngineDeterministicAcrossWorkerCounts is the core contract of the
// parallel engine: the sequential path (Workers=1) and parallel paths of
// any width produce identical RunStats, install logs, ledger state, and
// charts — independent of GOMAXPROCS.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	baseline := fingerprintRun(t, 1, 0)
	if baseline.stats.IncentivizedInstalls == 0 || baseline.stats.OrganicInstalls == 0 {
		t.Fatal("baseline run delivered nothing; fingerprint would be vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		fp := fingerprintRun(t, workers, 0)
		diffFingerprints(t, "workers=1 vs workers="+string(rune('0'+workers)), baseline, fp)
	}
	// Same worker count, repeated: run-to-run stability.
	again := fingerprintRun(t, 4, 0)
	diffFingerprints(t, "workers=4 repeat", fingerprintRun(t, 4, 0), again)
	// GOMAXPROCS must not leak into results.
	restricted := fingerprintRun(t, 4, 2)
	diffFingerprints(t, "GOMAXPROCS=2", baseline, restricted)
}

// TestEngineWorkersConfig checks the pool-width plumbing: explicit widths,
// the GOMAXPROCS default, and widths exceeding the unit count all run.
func TestEngineWorkersConfig(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		cfg := TinyConfig()
		cfg.Workers = workers
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := w.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Days != cfg.Window.Days() {
			t.Errorf("workers=%d: days = %d, want %d", workers, stats.Days, cfg.Window.Days())
		}
	}
}

// TestEngineGroupsPartitionCampaigns verifies the write-partition
// invariant the determinism model relies on: every campaign appears in
// exactly one developer group, no developer spans two groups, and every
// unit is fully resolved to handles at construction.
func TestEngineGroupsPartitionCampaigns(t *testing.T) {
	w := buildTiny(t)
	eng, err := newEngine(w)
	if err != nil {
		t.Fatal(err)
	}
	seenOffer := map[string]bool{}
	devGroup := map[string]int{}
	total := 0
	for g, group := range eng.groups {
		for _, u := range group {
			c := u.c
			total++
			if seenOffer[c.OfferID] {
				t.Fatalf("offer %s appears in two groups", c.OfferID)
			}
			seenOffer[c.OfferID] = true
			if prev, ok := devGroup[c.Spec.Developer]; ok && prev != g {
				t.Fatalf("developer %s split across groups %d and %d", c.Spec.Developer, prev, g)
			}
			devGroup[c.Spec.Developer] = g
			if u.r == nil || u.session == nil || u.offer == nil || !u.app.Valid() {
				t.Fatalf("unit %s not fully resolved: %+v", c.OfferID, u)
			}
			if u.session.OfferID() != c.OfferID || u.offer.OfferID() != c.OfferID {
				t.Fatalf("unit %s wired to wrong handles (%s / %s)",
					c.OfferID, u.session.OfferID(), u.offer.OfferID())
			}
			if len(u.poolAccts) != len(u.pool) || len(u.devs) != len(u.pool) {
				t.Fatalf("unit %s: %d pool accounts and %d devices for %d workers",
					c.OfferID, len(u.poolAccts), len(u.devs), len(u.pool))
			}
			if u.devAcct.S == "" || u.iipAcct.S == "" || u.poolAcct.S == "" || u.noAffAcct.S == "" {
				t.Fatalf("unit %s missing interned ledger accounts", c.OfferID)
			}
		}
	}
	if total != len(w.Campaigns) {
		t.Errorf("groups cover %d campaigns, want %d", total, len(w.Campaigns))
	}
}

// TestEngineRefsMatchRunLogTables checks the table IDs the engine gives
// its names against the run log's own tables, for a fresh log, for one
// ResumeRunLog continues, and for an engine whose run has no log: every
// Ref a unit writes (packages, pool devices, offer IDs, and the
// developer, IIP, pool, affiliate, no-affiliate and per-worker accounts)
// must equal what Encoder.Intern / InternDevice on the writer's tables
// return, right after newEngine and before any enableLog, and again after
// it. The checkpointed world published an app before its run, so the
// resumed store's catalog outgrows the build.
func TestEngineRefsMatchRunLogTables(t *testing.T) {
	cfg := microConfig()
	check := func(label string, w *World, lw *stream.Writer) *engine {
		t.Helper()
		eng, err := newEngine(w)
		if err != nil {
			t.Fatal(err)
		}
		var enc stream.Encoder
		enc.SetDeviceTable(lw.DeviceTable())
		enc.SetStringTable(lw.StringTable())
		same := func(what string, got stream.Ref, want stream.Ref) {
			t.Helper()
			if got != want || got.ID == 0 {
				t.Fatalf("%s: %s = %+v, the log's tables give %+v", label, what, got, want)
			}
		}
		refs := func() {
			for i := range eng.organic {
				same("organic package", eng.organic[i].pkg, enc.Intern(eng.organic[i].pkg.S))
			}
			for _, g := range eng.groups {
				for _, u := range g {
					for _, r := range []stream.Ref{u.pkg, u.offerID, u.devAcct, u.iipAcct, u.poolAcct, u.noAffAcct} {
						same("campaign name", r, enc.Intern(r.S))
					}
					for _, accts := range [][]stream.Ref{u.poolAccts, u.affAccts} {
						for _, r := range accts {
							same("account", r, enc.Intern(r.S))
						}
					}
					for _, d := range u.devs {
						same("pool device", d, enc.InternDevice(d.S))
					}
				}
			}
		}
		refs()
		if err := eng.enableLog(lw); err != nil {
			t.Fatal(err)
		}
		refs()
		return eng
	}
	lateApp := func(w *World) {
		t.Helper()
		if err := w.Store.Publish(playstore.Listing{Package: "late.published.app", Title: "Late",
			Genre: "Puzzle", Developer: w.Advertised[0].Developer, Released: cfg.Window.Start}); err != nil {
			t.Fatal(err)
		}
	}

	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lateApp(w)
	lw, err := w.NewRunLog(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check("fresh log", w, lw)
	var cp *stream.Checkpoint
	if _, err := w.RunOpts(RunOptions{Log: lw, CheckpointEvery: 4, Checkpoint: func(c *stream.Checkpoint) error {
		if cp == nil {
			cp, err = stream.DecodeCheckpoint(c.Encode())
		}
		return err
	}}); err != nil {
		t.Fatal(err)
	}

	w2, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	check("resumed log", w2, w2.ResumeRunLog(io.Discard, cp))

	// A world that never opens a log gives its names the IDs a twin
	// world's log does, here after a whole log-less run.
	w3, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lateApp(w3)
	if _, err := w3.Run(); err != nil {
		t.Fatal(err)
	}
	w4, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lateApp(w4)
	twin, err := w4.NewRunLog(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check("no log", w3, twin)
}

// TestEngineRejectsForeignLogTables: a log opened before the last app was
// published puts the engine's package IDs where its tables have other
// names, and the run refuses it instead of writing wrong references. So
// does a log whose tables hold this world's names in another order: two
// middle devices swapped, or two middle accounts, each continued from the
// lists of a NewRunLog base.
func TestEngineRejectsForeignLogTables(t *testing.T) {
	w := buildTiny(t)
	lw, err := w.NewRunLog(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Store.Publish(playstore.Listing{Package: "late.published.app", Title: "Late",
		Genre: "Puzzle", Developer: w.Advertised[0].Developer, Released: dates.StudyStart}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunOpts(RunOptions{Log: lw}); err == nil {
		t.Fatal("a run accepted a log whose tables miss a package")
	}

	// swapped runs a fresh microConfig world on a log continued from its
	// own base, with the lists edited by swap.
	swapped := func(what string, swap func(devs, strs []string)) {
		t.Helper()
		w, err := NewWorld(microConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := w.NewRunLog(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := stream.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		devs, strs := slices.Clone(r.Base().Devices), slices.Clone(r.Base().Strings)
		swap(devs, strs)
		lw := stream.ResumeWriter(io.Discard, int64(buf.Len()), devs, strs)
		if _, err := w.RunOpts(RunOptions{Log: lw}); err == nil {
			t.Errorf("a run accepted a log whose %s", what)
		}
	}
	swapped("device table has two middle entries swapped", func(devs, _ []string) {
		n := len(devs)
		devs[n/3], devs[2*n/3] = devs[2*n/3], devs[n/3]
	})
	swapped("string table has two middle accounts swapped", func(_, strs []string) {
		var accts []int
		for i, s := range strs {
			if strings.HasPrefix(s, "user:") {
				accts = append(accts, i)
			}
		}
		i, j := accts[len(accts)/3], accts[2*len(accts)/3]
		strs[i], strs[j] = strs[j], strs[i]
	})
}

// TestEngineRefusesCampaignWithoutPool: the run's name tables list
// accounts per worker pool, so a campaign on an IIP with no pool has no
// names to write (and no worker to deliver); the engine build refuses it.
func TestEngineRefusesCampaignWithoutPool(t *testing.T) {
	w, err := NewWorld(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	delete(w.Pools, w.Campaigns[0].IIP)
	if _, err := newEngine(w); err == nil {
		t.Fatalf("the engine resolved campaign %s on %s, which has no worker pool", w.Campaigns[0].OfferID, w.Campaigns[0].IIP)
	}
}
