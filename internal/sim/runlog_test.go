package sim

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"repro/internal/iip"
	"repro/internal/playstore"
	"repro/internal/stream"
)

// microConfig is a further-shrunken world for the resume matrix: the
// kill-at-every-day test replays O(days^2 / 2) simulated days, so the
// window and catalog stay small while every subsystem (all seven IIPs,
// batch and full-fidelity deliveries, enforcement, charts) stays active.
func microConfig() Config {
	cfg := TinyConfig()
	cfg.BaselineApps = 12
	cfg.BackgroundApps = 18
	cfg.AppsPerIIP = map[string]int{
		iip.RankApp:      4,
		iip.AyetStudios:  8,
		iip.Fyber:        8,
		iip.AdscendMedia: 3,
		iip.AdGem:        2,
		iip.HangMyAds:    2,
		iip.OfferToro:    4,
	}
	cfg.TotalAdvertised = 24
	cfg.OffersTarget = 50
	cfg.WorkerPoolSize = 60
	cfg.ChartSize = 10
	cfg.Window.End = cfg.Window.Start.AddDays(11)
	return cfg
}

// loggedRun executes a fresh world with an event log attached, returning
// the log bytes, the stats, and the world for state comparison.
func loggedRun(t *testing.T, cfg Config, o RunOptions) ([]byte, RunStats, *World) {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	log, err := w.NewRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	o.Log = log
	stats, err := w.RunOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats, w
}

// loggedInstalls walks a run log with a Reader and returns the install
// records its events carry, in log order.
func loggedInstalls(t *testing.T, logBytes []byte) []InstallRecord {
	t.Helper()
	r, err := stream.NewReader(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	var out []InstallRecord
	var ev stream.Event
	for {
		err := r.Next(&ev)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		for in := range ev.Installs(r.Day()) {
			out = append(out, InstallRecord{Device: in.Device, App: in.App, Day: in.Day})
		}
	}
}

// TestRunLogIdenticalAcrossWorkerCounts extends the engine's determinism
// contract to the event log: the bytes on disk are bit-identical no
// matter how many workers produced them.
func TestRunLogIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := microConfig()
	cfg.Workers = 1
	serial, serialStats, _ := loggedRun(t, cfg, RunOptions{})
	cfg.Workers = 5
	parallel, parallelStats, _ := loggedRun(t, cfg, RunOptions{})
	if serialStats != parallelStats {
		t.Errorf("stats differ across worker counts: %+v vs %+v", serialStats, parallelStats)
	}
	if !bytes.Equal(serial, parallel) {
		for i := range serial {
			if i >= len(parallel) || serial[i] != parallel[i] {
				t.Fatalf("log bytes diverge at offset %d of %d/%d", i, len(serial), len(parallel))
			}
		}
		t.Fatalf("log lengths differ: %d vs %d", len(serial), len(parallel))
	}
}

// TestReplayMatchesLive is the replay-equivalence golden: a logged
// TinyConfig run is rebuilt from the log alone, and the result must
// reproduce the live run bit-for-bit — including the PR-1/PR-2 golden
// constants (RunStats, install log, transaction sequence, balances,
// charts) and byte-identical store/ledger snapshots.
func TestReplayMatchesLive(t *testing.T) {
	logBytes, stats, w := loggedRun(t, TinyConfig(), RunOptions{})

	res, err := stream.Replay(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}

	// Live equality, bit-exact and whole-state.
	if res.Stats.Days != stats.Days ||
		res.Stats.OrganicInstalls != stats.OrganicInstalls ||
		res.Stats.IncentivizedInstalls != stats.IncentivizedInstalls ||
		res.Stats.CertifiedCompletions != stats.CertifiedCompletions ||
		math.Float64bits(res.Stats.RevenueUSD) != math.Float64bits(stats.RevenueUSD) {
		t.Errorf("replayed stats %+v, live %+v", res.Stats, stats)
	}
	if !bytes.Equal(res.Store.EncodeSnapshot(), w.Store.EncodeSnapshot()) {
		t.Error("replayed store snapshot differs from live store")
	}
	if !bytes.Equal(res.Ledger.EncodeSnapshot(), w.Ledger.EncodeSnapshot()) {
		t.Error("replayed ledger snapshot differs from live ledger")
	}
	// The install records are the log's own: a walk of it must yield the
	// live install log, and the replay must have applied that many.
	live := collect(t, &w.InstallLog)
	logged := loggedInstalls(t, logBytes)
	if res.InstallRecords != int64(len(live)) {
		t.Errorf("replay applied %d install records, live %d", res.InstallRecords, len(live))
	}
	if len(logged) != len(live) {
		t.Fatalf("logged install records: %d, live %d", len(logged), len(live))
	}
	for i := range logged {
		if logged[i] != live[i] {
			t.Fatalf("install log diverges at %d: %+v vs %+v", i, logged[i], live[i])
		}
	}

	// Golden equality: the same constants the storage-refactor equivalence
	// test locks (TinyConfig, default seed), recomputed from the replayed
	// state alone.
	check := func(what string, got, want uint64) {
		if got != want {
			t.Errorf("replayed %s = %#x, want golden %#x", what, got, want)
		}
	}
	check("days", uint64(res.Stats.Days), goldenDays)
	check("organic installs", uint64(res.Stats.OrganicInstalls), goldenOrganic)
	check("incentivized installs", uint64(res.Stats.IncentivizedInstalls), goldenIncentivized)
	check("certified completions", uint64(res.Stats.CertifiedCompletions), goldenCertified)
	check("revenue bits", math.Float64bits(res.Stats.RevenueUSD), goldenRevenueBits)

	installHash := newFnv()
	for _, rec := range logged {
		installHash.str(rec.Device)
		installHash.str(rec.App)
		installHash.u64(uint64(rec.Day))
	}
	check("install log length", uint64(res.InstallRecords), goldenInstallLogLen)
	check("install log hash", uint64(installHash), goldenInstallLogHash)

	txHash := newFnv()
	for _, tx := range res.Ledger.Transactions() {
		txHash.str(tx.From)
		txHash.str(tx.To)
		txHash.str(tx.Memo)
		txHash.u64(math.Float64bits(tx.Amount))
	}
	check("num transactions", uint64(res.Ledger.NumTransactions()), goldenNumTxs)
	check("transaction hash", uint64(txHash), goldenTxHash)

	balances := res.Ledger.Balances()
	accounts := make([]string, 0, len(balances))
	for acct := range balances {
		accounts = append(accounts, acct)
	}
	sort.Strings(accounts)
	balHash := newFnv()
	for _, acct := range accounts {
		balHash.str(acct)
		balHash.u64(math.Float64bits(balances[acct]))
	}
	check("balances hash", uint64(balHash), goldenBalancesHash)

	wantChart := map[string][2]uint64{
		playstore.ChartTopFree:     {goldenTopFreeLen, goldenTopFreeHash},
		playstore.ChartTopGames:    {goldenTopGamesLen, goldenTopGamesHash},
		playstore.ChartTopGrossing: {goldenTopGrossingLen, goldenTopGrossingHash},
	}
	for _, name := range playstore.ChartNames {
		entries := res.Store.Chart(name)
		h := newFnv()
		for _, e := range entries {
			h.u64(uint64(e.Rank))
			h.str(e.Package)
			h.u64(math.Float64bits(e.Score))
		}
		check("chart "+name+" length", uint64(len(entries)), wantChart[name][0])
		check("chart "+name+" hash", uint64(h), wantChart[name][1])
	}
}

// TestResumeBitIdentical kills the run at every day boundary: resuming
// from each day's checkpoint must produce (a) the exact remaining event
// log bytes the uninterrupted run wrote, (b) identical final stats, and
// (c) byte-identical final store/ledger snapshots.
func TestResumeBitIdentical(t *testing.T) {
	cfg := microConfig()
	var cps []*stream.Checkpoint
	liveLog, liveStats, liveWorld := loggedRun(t, cfg, RunOptions{
		CheckpointEvery: 1,
		Checkpoint: func(cp *stream.Checkpoint) error {
			// Round-trip through the codec so the matrix also exercises
			// encode/decode of real checkpoints.
			decoded, err := stream.DecodeCheckpoint(cp.Encode())
			if err != nil {
				return err
			}
			cps = append(cps, decoded)
			return nil
		},
	})
	liveStore := liveWorld.Store.EncodeSnapshot()
	liveLedger := liveWorld.Ledger.EncodeSnapshot()
	liveInstalls := collect(t, &liveWorld.InstallLog)
	if len(cps) != liveStats.Days {
		t.Fatalf("captured %d checkpoints, want %d", len(cps), liveStats.Days)
	}

	for _, cp := range cps {
		w2, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rest bytes.Buffer
		stats2, err := w2.RunOpts(RunOptions{
			Resume: cp,
			Log:    w2.ResumeRunLog(&rest, cp),
		})
		if err != nil {
			t.Fatalf("resume from %s: %v", cp.Day, err)
		}
		if stats2 != liveStats {
			t.Errorf("resume from %s: stats %+v, want %+v", cp.Day, stats2, liveStats)
		}
		if !bytes.Equal(rest.Bytes(), liveLog[cp.LogOffset:]) {
			t.Errorf("resume from %s: remaining log bytes differ (%d vs %d bytes)",
				cp.Day, rest.Len(), int64(len(liveLog))-cp.LogOffset)
		}
		if !bytes.Equal(w2.Store.EncodeSnapshot(), liveStore) {
			t.Errorf("resume from %s: final store differs", cp.Day)
		}
		if !bytes.Equal(w2.Ledger.EncodeSnapshot(), liveLedger) {
			t.Errorf("resume from %s: final ledger differs", cp.Day)
		}
		if diff := installLogDiff(collect(t, &w2.InstallLog), liveInstalls); diff != "" {
			t.Errorf("resume from %s: final install log %s", cp.Day, diff)
		}
	}

	// The killed-run story end to end: a log truncated at a checkpoint
	// boundary plus the resumed suffix replays cleanly.
	mid := cps[len(cps)/2]
	w3, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rest bytes.Buffer
	if _, err := w3.RunOpts(RunOptions{Resume: mid, Log: w3.ResumeRunLog(&rest, mid)}); err != nil {
		t.Fatal(err)
	}
	stitched := append(append([]byte(nil), liveLog[:mid.LogOffset]...), rest.Bytes()...)
	res, err := stream.Replay(bytes.NewReader(stitched))
	if err != nil {
		t.Fatalf("replaying stitched log: %v", err)
	}
	if int64(res.Stats.OrganicInstalls) != liveStats.OrganicInstalls || res.Stats.Days != liveStats.Days {
		t.Errorf("stitched replay stats %+v, want %+v", res.Stats, liveStats)
	}
}

// TestRunLogDisabledIsNoop guards the zero-overhead path: a run without a
// log writer produces identical results to one with it (the log changes
// nothing observable) and the engine allocates no encoders.
func TestRunLogDisabledIsNoop(t *testing.T) {
	cfg := microConfig()
	_, loggedStats, loggedWorld := loggedRun(t, cfg, RunOptions{})
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats != loggedStats {
		t.Errorf("logging changed run stats: %+v vs %+v", stats, loggedStats)
	}
	if !bytes.Equal(w.Store.EncodeSnapshot(), loggedWorld.Store.EncodeSnapshot()) {
		t.Error("logging changed store state")
	}
}

// TestResumeRejectsForeignCheckpoint: a checkpoint from a different
// config/seed must fail loudly, not resume silently wrong.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	cfg := microConfig()
	var cps []*stream.Checkpoint
	_, _, _ = loggedRun(t, cfg, RunOptions{
		CheckpointEvery: 1,
		Checkpoint: func(cp *stream.Checkpoint) error {
			if len(cps) == 0 {
				cps = append(cps, cp)
			}
			return nil
		},
	})
	other := microConfig()
	other.Seed = cfg.Seed + 1
	w, err := NewWorld(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunOpts(RunOptions{Resume: cps[0]}); err == nil {
		t.Error("resuming a different world from this checkpoint must fail")
	}
}

// TestResumeTwiceFromSameCheckpoint: a world object reused for a second
// resume from the same checkpoint must restore afresh (not replay days on
// top of the first resume's mutations) — the retry-after-failure path.
func TestResumeTwiceFromSameCheckpoint(t *testing.T) {
	cfg := microConfig()
	var cp *stream.Checkpoint
	_, liveStats, _ := loggedRun(t, cfg, RunOptions{
		CheckpointEvery: 5,
		Checkpoint: func(c *stream.Checkpoint) error {
			cp = c
			return nil
		},
	})
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats1, err := w.RunOpts(RunOptions{Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	snap1 := w.Store.EncodeSnapshot()
	stats2, err := w.RunOpts(RunOptions{Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	if stats1 != liveStats || stats2 != stats1 {
		t.Errorf("stats: live %+v, first resume %+v, second resume %+v", liveStats, stats1, stats2)
	}
	if !bytes.Equal(w.Store.EncodeSnapshot(), snap1) {
		t.Error("second resume from the same checkpoint diverged (stale restore marker?)")
	}
}

// installLogDiff describes the first difference between two install
// logs, or returns "" when they are element-wise equal.
func installLogDiff(got, want []InstallRecord) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("differs at record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("has %d records, want %d", len(got), len(want))
	}
	return ""
}

// TestCheckpointIdenticalAcrossSpillWindow: a checkpoint streams its
// install history from the live log, so a spilled log (records read back
// from the spill file) must checkpoint the exact bytes the in-RAM log
// does, through WriteTo and Encode alike, and a spilled world resumed
// from one of them must end with the in-RAM run's install log.
func TestCheckpointIdenticalAcrossSpillWindow(t *testing.T) {
	const window = 512
	config := func(window int) Config {
		cfg := TinyConfig()
		cfg.InstallLogWindow = window
		cfg.InstallLogDir = t.TempDir()
		return cfg
	}
	run := func(window int) ([][]byte, RunStats, *World) {
		w, err := NewWorld(config(window))
		if err != nil {
			t.Fatal(err)
		}
		var encs [][]byte
		stats, err := w.RunOpts(RunOptions{
			CheckpointEvery: 7,
			Checkpoint: func(cp *stream.Checkpoint) error {
				var buf bytes.Buffer
				if _, err := cp.WriteTo(&buf); err != nil {
					return err
				}
				if !bytes.Equal(cp.Encode(), buf.Bytes()) {
					return fmt.Errorf("checkpoint on %s: Encode and WriteTo disagree", cp.Day)
				}
				encs = append(encs, buf.Bytes())
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return encs, stats, w
	}

	ramEncs, ramStats, wRAM := run(0)
	defer wRAM.Close()
	spillEncs, spillStats, wSpill := run(window)
	defer wSpill.Close()
	if wSpill.InstallLog.Len() <= window {
		t.Fatalf("world too small to exercise spilling: %d records", wSpill.InstallLog.Len())
	}
	if spillStats != ramStats {
		t.Errorf("run stats diverge: in-RAM %+v, spill %+v", ramStats, spillStats)
	}
	if len(ramEncs) != 5 || len(spillEncs) != len(ramEncs) {
		t.Fatalf("checkpoints: %d in RAM, %d spilled; want 5 each", len(ramEncs), len(spillEncs))
	}
	for i := range ramEncs {
		if !bytes.Equal(spillEncs[i], ramEncs[i]) {
			t.Errorf("checkpoint %d differs between the in-RAM and the spilled log (%d vs %d bytes)",
				i, len(ramEncs[i]), len(spillEncs[i]))
		}
	}

	mid, err := stream.DecodeCheckpoint(spillEncs[len(spillEncs)/2])
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWorld(config(window))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	stats2, err := w2.RunOpts(RunOptions{Resume: mid})
	if err != nil {
		t.Fatal(err)
	}
	if stats2 != ramStats {
		t.Errorf("resumed spilled run: stats %+v, want %+v", stats2, ramStats)
	}
	if diff := installLogDiff(collect(t, &w2.InstallLog), collect(t, &wRAM.InstallLog)); diff != "" {
		t.Errorf("resumed spilled run: install log %s", diff)
	}
}
