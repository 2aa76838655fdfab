package sim

import (
	"fmt"
	"testing"

	"repro/internal/dates"
	"repro/internal/randx"
	"repro/internal/stream"
)

// collect drains All into a slice, failing the test on a spill I/O error.
func collect(t *testing.T, l *InstallLog) []InstallRecord {
	t.Helper()
	out := make([]InstallRecord, 0, l.Len())
	for rec := range l.All() {
		out = append(out, rec)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInstallLogSpillRoundTrip drives a spilling log and an unbounded
// reference with the same random append pattern (single records, bursts
// larger than the window, day changes, mid-stream reads, a Reset) and
// checks the logical streams never diverge.
func TestInstallLogSpillRoundTrip(t *testing.T) {
	r := randx.New(321)
	var ref []InstallRecord
	var l InstallLog
	if err := l.EnableSpill(t.TempDir(), 16); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	day := dates.Date(1000)
	next := func() InstallRecord {
		if r.Bool(0.25) {
			day += dates.Date(r.IntN(3)) // days move forward, sometimes by 0
		}
		return InstallRecord{
			Device: fmt.Sprintf("dev-%03d", r.IntN(400)),
			App:    fmt.Sprintf("app.%d", r.IntN(40)),
			Day:    day,
		}
	}
	check := func() {
		t.Helper()
		if l.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(ref))
		}
		got := collect(t, &l)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], ref[i])
			}
		}
	}

	for round := 0; round < 30; round++ {
		if r.Bool(0.3) {
			// Burst append crossing the window, possibly several times over.
			n := r.IntBetween(10, 70)
			batch := make([]InstallRecord, n)
			for i := range batch {
				batch[i] = next()
			}
			l.Append(batch...)
			ref = append(ref, batch...)
		} else {
			for i, n := 0, r.IntBetween(1, 9); i < n; i++ {
				rec := next()
				l.Append(rec)
				ref = append(ref, rec)
			}
		}
		// Interleaved reads must see the full prefix and not perturb the
		// writer (the engine reads at day barriers mid-run).
		if r.Bool(0.4) {
			check()
		}
	}
	check()
	if l.Len() <= 16 {
		t.Fatalf("test never spilled: %d records", l.Len())
	}

	// Reset and refill, as Restore does: prior spill state must vanish.
	keep := append([]InstallRecord(nil), ref[:20]...)
	l.Reset(len(keep))
	l.Append(keep...)
	ref = keep
	check()
}

// TestInstallLogSpillWorldEquivalence is the end-to-end contract: a world
// run with a tiny spill window produces bit-identical run stats and an
// identical install stream — and therefore identical detector input and
// golden hashes — to the unbounded in-RAM log.
func TestInstallLogSpillWorldEquivalence(t *testing.T) {
	run := func(window int) (RunStats, []InstallRecord, *World) {
		cfg := TinyConfig()
		cfg.Workers = 2
		cfg.InstallLogWindow = window
		cfg.InstallLogDir = t.TempDir()
		// The bounded-memory ledger rides the same contract: identical
		// balances with or without the retained transaction history.
		cfg.LedgerBalancesOnly = window > 0
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats, collect(t, &w.InstallLog), w
	}

	statsRAM, logRAM, wRAM := run(0)
	defer wRAM.Close()
	statsSpill, logSpill, wSpill := run(512)
	defer wSpill.Close()

	if statsRAM != statsSpill {
		t.Errorf("run stats diverge: in-RAM %+v, spill %+v", statsRAM, statsSpill)
	}
	if len(logRAM) != len(logSpill) {
		t.Fatalf("install log length diverges: %d vs %d", len(logRAM), len(logSpill))
	}
	if wSpill.InstallLog.Len() <= 512 {
		t.Fatalf("world too small to exercise spilling: %d records", wSpill.InstallLog.Len())
	}
	for i := range logRAM {
		if logRAM[i] != logSpill[i] {
			t.Fatalf("install log diverges at %d: %+v vs %+v", i, logRAM[i], logSpill[i])
		}
	}

	// Ground-truth labels flow through All too; they must agree.
	truthRAM, truthSpill := wRAM.TruthLabels(), wSpill.TruthLabels()
	if len(truthRAM) != len(truthSpill) {
		t.Fatalf("truth labels diverge: %d vs %d", len(truthRAM), len(truthSpill))
	}
	for dev := range truthRAM {
		if !truthSpill[dev] {
			t.Fatalf("device %s missing from spill-mode truth labels", dev)
		}
	}

	// Balances must be bit-identical despite the spill world dropping the
	// ledger's transaction history.
	balRAM, balSpill := wRAM.Ledger.Balances(), wSpill.Ledger.Balances()
	if len(balRAM) != len(balSpill) {
		t.Fatalf("ledger accounts diverge: %d vs %d", len(balRAM), len(balSpill))
	}
	for acct, want := range balRAM {
		if got := balSpill[acct]; got != want {
			t.Errorf("balance %s = %g, want %g", acct, got, want)
		}
	}
	if n := wSpill.Ledger.NumTransactions(); n != 0 {
		t.Errorf("balances-only world retained %d ledger transactions", n)
	}
}

// TestInstallLogCheckpointView: a checkpoint's view of a spilling log
// yields exactly the records present when it was taken, however many are
// appended (and spilled) afterwards, and fails, rather than reading
// another history, once the log is reset or closed.
func TestInstallLogCheckpointView(t *testing.T) {
	var l InstallLog
	if err := l.EnableSpill(t.TempDir(), 4); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := func(i int) InstallRecord {
		return InstallRecord{Device: fmt.Sprintf("dev-%d", i), App: "app", Day: dates.Date(100 + i/3)}
	}
	for i := 0; i < 10; i++ {
		l.Append(rec(i))
	}
	view := l.CheckpointView()
	for i := 10; i < 30; i++ {
		l.Append(rec(i))
	}
	i := 0
	for in, err := range view.All() {
		if err != nil {
			t.Fatal(err)
		}
		if got := (InstallRecord{Device: in.Device, App: in.App, Day: in.Day}); got != rec(i) {
			t.Fatalf("view record %d = %+v, want %+v", i, got, rec(i))
		}
		i++
	}
	if i != 10 || view.Len() != 10 {
		t.Fatalf("view yielded %d records, Len %d; want 10", i, view.Len())
	}

	viewErr := func(v stream.Installs) error {
		for _, err := range v.All() {
			if err != nil {
				return err
			}
		}
		return nil
	}
	l.Reset(0)
	if viewErr(view) == nil {
		t.Error("a view taken before Reset still iterates")
	}
	for i := 0; i < 10; i++ {
		l.Append(rec(i))
	}
	view = l.CheckpointView()
	l.Close()
	if viewErr(view) == nil {
		t.Error("a view of a closed spilled log still iterates")
	}
}
