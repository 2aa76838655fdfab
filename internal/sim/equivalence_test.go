package sim

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/playstore"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// The goldens below were captured from the seed engine (map-based per-app
// day storage, full-sort chart ranking) at PR 1, running TinyConfig with
// the default seed. The dense-storage/top-K refactor must reproduce every
// one of them bit-for-bit: same RunStats (RevenueUSD to the bit), same
// charts (ranks, packages, score bits), same install log, and the same
// ledger transaction sequence and balances. Regenerate with:
//
//	go test ./internal/sim/ -run TestStorageRefactorEquivalence -v -print-goldens
const (
	goldenDays            = 41
	goldenOrganic         = 314091172
	goldenIncentivized    = 324114
	goldenCertified       = 324114
	goldenRevenueBits     = 0x41835ab289197188
	goldenInstallLogLen   = 324114
	goldenInstallLogHash  = 0x25c90634a020219b
	goldenNumTxs          = 78024
	goldenTxHash          = 0x8f6bbb453a6b9bc1
	goldenBalancesHash    = 0x40bab5e4f06b0fd9
	goldenTopFreeLen      = 18
	goldenTopFreeHash     = 0x70862ffa8b463ebd
	goldenTopGamesLen     = 18
	goldenTopGamesHash    = 0x0f5fd4fbb9464b70
	goldenTopGrossingLen  = 18
	goldenTopGrossingHash = 0x7567a4241d7f54e7
)

var printGoldens = flag.Bool("print-goldens", false, "print current equivalence goldens")

// fnvMix is a tiny order-sensitive FNV-1a accumulator shared by the
// equivalence digests.
type fnvMix uint64

func newFnv() fnvMix { return 0xcbf29ce484222325 }

func (h *fnvMix) str(s string) {
	const prime = 0x100000001b3
	for i := 0; i < len(s); i++ {
		*h ^= fnvMix(s[i])
		*h *= prime
	}
	*h ^= '|'
	*h *= prime
}

func (h *fnvMix) u64(v uint64) {
	const prime = 0x100000001b3
	*h ^= fnvMix(v)
	*h *= prime
}

// TestStorageRefactorEquivalence locks the simulated world's observable
// output to the seed engine: any storage or chart-selection change that
// alters a single float bit, rank, or transaction shows up here.
func TestStorageRefactorEquivalence(t *testing.T) {
	w, err := NewWorld(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}

	installHash := newFnv()
	for rec := range w.InstallLog.All() {
		installHash.str(rec.Device)
		installHash.str(rec.App)
		installHash.u64(uint64(rec.Day))
	}
	txHash := newFnv()
	for _, tx := range w.Ledger.Transactions() {
		txHash.str(tx.From)
		txHash.str(tx.To)
		txHash.str(tx.Memo)
		txHash.u64(math.Float64bits(tx.Amount))
	}
	balances := w.Ledger.Balances()
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
	chartHash := map[string]fnvMix{}
	chartLen := map[string]int{}
	for _, name := range playstore.ChartNames {
		h := newFnv()
		entries := w.Store.Chart(name)
		for _, e := range entries {
			h.u64(uint64(e.Rank))
			h.str(e.Package)
			h.u64(math.Float64bits(e.Score))
		}
		chartHash[name] = h
		chartLen[name] = len(entries)
	}

	if *printGoldens {
		t.Logf("goldenDays            = %d", stats.Days)
		t.Logf("goldenOrganic         = %d", stats.OrganicInstalls)
		t.Logf("goldenIncentivized    = %d", stats.IncentivizedInstalls)
		t.Logf("goldenCertified       = %d", stats.CertifiedCompletions)
		t.Logf("goldenRevenueBits     = %#x", math.Float64bits(stats.RevenueUSD))
		t.Logf("goldenInstallLogLen   = %d", w.InstallLog.Len())
		t.Logf("goldenInstallLogHash  = %#x", uint64(installHash))
		t.Logf("goldenNumTxs          = %d", w.Ledger.NumTransactions())
		t.Logf("goldenTxHash          = %#x", uint64(txHash))
		t.Logf("goldenBalancesHash    = %#x", uint64(balHash))
		for _, name := range playstore.ChartNames {
			t.Logf("golden %-14s len = %d hash = %#x", name, chartLen[name], uint64(chartHash[name]))
		}
	}

	check := func(what string, got, want uint64) {
		if got != want {
			t.Errorf("%s = %#x, want %#x (storage refactor changed observable output)", what, got, want)
		}
	}
	check("days", uint64(stats.Days), goldenDays)
	check("organic installs", uint64(stats.OrganicInstalls), goldenOrganic)
	check("incentivized installs", uint64(stats.IncentivizedInstalls), goldenIncentivized)
	check("certified completions", uint64(stats.CertifiedCompletions), goldenCertified)
	check("revenue bits", math.Float64bits(stats.RevenueUSD), goldenRevenueBits)
	check("install log length", uint64(w.InstallLog.Len()), goldenInstallLogLen)
	check("install log hash", uint64(installHash), goldenInstallLogHash)
	check("num transactions", uint64(w.Ledger.NumTransactions()), goldenNumTxs)
	check("transaction hash", uint64(txHash), goldenTxHash)
	check("balances hash", uint64(balHash), goldenBalancesHash)
	wantChart := map[string][2]uint64{
		playstore.ChartTopFree:     {goldenTopFreeLen, goldenTopFreeHash},
		playstore.ChartTopGames:    {goldenTopGamesLen, goldenTopGamesHash},
		playstore.ChartTopGrossing: {goldenTopGrossingLen, goldenTopGrossingHash},
	}
	for _, name := range playstore.ChartNames {
		check(fmt.Sprintf("chart %s length", name), uint64(chartLen[name]), wantChart[name][0])
		check(fmt.Sprintf("chart %s hash", name), uint64(chartHash[name]), wantChart[name][1])
	}
}

// Store-bytes goldens: the TinyConfig world's Store.EncodeSnapshot at the
// end of its run, and the Store section of the checkpoint taken after its
// 20th day through RunOptions.Checkpoint. They pin the snapshot wire
// format and every value it carries, so a change to the store's day
// columns that alters one byte shows here. The world's referral and
// enforcement counts keep the goldens covering the referral columns. A
// mismatch prints the new value; nothing rewrites a golden.
const (
	goldenStoreSnapLen    = 305400
	goldenStoreSnapHash   = 0x74e636da096df2ff
	goldenCkptStoreLen    = 163485
	goldenCkptStoreHash   = 0xb92f286e3039eb10
	goldenReferralApps    = 79
	goldenRemovedApps     = 1
	goldenRemovedInstalls = 182
)

func TestStoreBytesGolden(t *testing.T) {
	cfg := TinyConfig()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt []byte
	ckptDay := cfg.Window.Start.AddDays(19)
	if _, err := w.RunOpts(RunOptions{
		CheckpointEvery: 20,
		Checkpoint: func(cp *stream.Checkpoint) error {
			if cp.Day == ckptDay {
				ckpt = append([]byte(nil), cp.Store...)
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if ckpt == nil {
		t.Fatalf("no checkpoint taken on %s", ckptDay)
	}
	digest := func(b []byte) uint64 {
		h := newFnv()
		h.str(string(b))
		return uint64(h)
	}
	check := func(what string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %#x (%d), want %#x", what, got, got, want)
		}
	}
	snap := w.Store.EncodeSnapshot()
	check("store snapshot length", uint64(len(snap)), goldenStoreSnapLen)
	check("store snapshot hash", digest(snap), goldenStoreSnapHash)
	check("checkpoint store length", uint64(len(ckpt)), goldenCkptStoreLen)
	check("checkpoint store hash", digest(ckpt), goldenCkptStoreHash)

	var referralApps, removedApps, removed int64
	for _, pkg := range w.Store.Packages() {
		days, err := w.Store.Console(pkg, cfg.Window.Start, cfg.Window.End)
		if err != nil {
			t.Fatal(err)
		}
		var ref, rem int64
		for _, d := range days {
			ref += d.Referral
			rem += d.Removed
		}
		if ref > 0 {
			referralApps++
		}
		if rem > 0 {
			removedApps++
			removed += rem
		}
	}
	check("apps with referral installs", uint64(referralApps), goldenReferralApps)
	check("apps with enforcement removals", uint64(removedApps), goldenRemovedApps)
	check("installs removed by enforcement", uint64(removed), goldenRemovedInstalls)
}

// Run-log goldens: three run logs and one checkpoint, each pinned by its
// length and digest. The microConfig world publishes one app before its
// log opens, as the study's honey app is, so the log's string table holds
// a package the build did not. Its log is pinned unsegmented and with
// 16 KiB segments, together with the segmented run's checkpoint after
// day 6; the device-churn scenario's 16-day log writes its rotated
// devices inline. They pin the run log's name tables and every reference
// the engine writes, so a change to either that alters one byte shows
// here. A mismatch prints the new value; nothing rewrites a golden.
const (
	goldenMicroLogLen     = 557952
	goldenMicroLogHash    = 0x01750219213249c5
	goldenMicroSegLogLen  = 939196
	goldenMicroSegLogHash = 0x8305a2f5c26be1c4
	goldenMicroCkptLen    = 3899926
	goldenMicroCkptHash   = 0xe67873efe45222bc
	goldenChurnLogLen     = 5408852
	goldenChurnLogHash    = 0x94edd16159c1f163
)

func TestRunLogBytesGolden(t *testing.T) {
	digest := func(b []byte) uint64 {
		h := newFnv()
		h.str(string(b))
		return uint64(h)
	}
	check := func(what string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %#x (%d), want %#x", what, got, got, want)
		}
	}
	// microLog runs the microConfig world with its late app published,
	// returning the log and the encoded checkpoint after day 6.
	microLog := func(segBytes int64) (log, ckpt []byte) {
		t.Helper()
		cfg := microConfig()
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Store.Publish(playstore.Listing{Package: "late.published.app", Title: "Late",
			Genre: "Puzzle", Developer: w.Advertised[0].Developer, Released: cfg.Window.Start}); err != nil {
			t.Fatal(err)
		}
		var buf writableBuffer
		lw, err := w.NewRunLog(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if segBytes > 0 {
			lw.SetSegmentBytes(segBytes)
		}
		ckptDay := cfg.Window.Start.AddDays(5)
		if _, err := w.RunOpts(RunOptions{Log: lw, CheckpointEvery: 6, Checkpoint: func(cp *stream.Checkpoint) error {
			if cp.Day == ckptDay {
				ckpt = cp.Encode()
			}
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		if ckpt == nil {
			t.Fatalf("no checkpoint taken on %s", ckptDay)
		}
		return buf.b, ckpt
	}
	log, _ := microLog(0)
	check("micro log length", uint64(len(log)), goldenMicroLogLen)
	check("micro log hash", digest(log), goldenMicroLogHash)
	log, ckpt := microLog(16 << 10)
	check("micro segmented log length", uint64(len(log)), goldenMicroSegLogLen)
	check("micro segmented log hash", digest(log), goldenMicroSegLogHash)
	check("micro checkpoint length", uint64(len(ckpt)), goldenMicroCkptLen)
	check("micro checkpoint hash", digest(ckpt), goldenMicroCkptHash)

	sp, _ := scenario.Lookup("device-churn")
	sp.World.WindowDays = 16
	cfg, err := ConfigForSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf writableBuffer
	lw, err := w.NewRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunOpts(RunOptions{Log: lw}); err != nil {
		t.Fatal(err)
	}
	check("device-churn log length", uint64(len(buf.b)), goldenChurnLogLen)
	check("device-churn log hash", digest(buf.b), goldenChurnLogHash)
}
