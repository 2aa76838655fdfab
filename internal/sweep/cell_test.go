package sweep

import (
	"context"
	"fmt"
	"maps"
	"os"
	"testing"

	"repro/internal/dates"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestSpooledKillResumeEveryScenario: for every built-in scenario, a
// spooled cell killed at a day barrier and resumed by a successor from
// its last checkpoint equals the in-memory cell. The resume crosses each
// adversary strategy's MarshalState, the stateful jitter, burst and
// organic-mimic ones included. Each scenario is killed on one day, and
// the days are spread over the window to keep the test short.
func TestSpooledKillResumeEveryScenario(t *testing.T) {
	const seed = 20190301
	const windowDays = 20
	for i, b := range scenario.Builtins() {
		sp, ok := scenario.Lookup(microName(t, b.Name))
		if !ok {
			t.Fatalf("micro %s missing", b.Name)
		}
		killAt := 2 + (i*5)%(windowDays-3) // the barrier of day killAt; the checkpoint of day killAt-1 survives
		t.Run(b.Name, func(t *testing.T) {
			want, _, err := (&CellRunner{}).Run(context.Background(), sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			spool := t.TempDir()
			days := 0
			first := CellRunner{
				SpoolDir:        spool,
				CheckpointEvery: 1,
				PerDay: func(dates.Date) error {
					if days++; days == killAt {
						return fmt.Errorf("killed at day barrier %d: %w", days, fault.ErrInjected)
					}
					return nil
				},
			}
			if _, _, err := first.Run(context.Background(), sp, seed); !IsInjected(err) {
				t.Fatalf("killed run returned %v, want an injected fault", err)
			}
			got, info, err := (&CellRunner{SpoolDir: spool, CheckpointEvery: 1}).Run(context.Background(), sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Resumed || info.ResumedAfterDays != killAt-1 || info.DaysExecuted != windowDays-(killAt-1) {
				t.Fatalf("successor info = %+v, want a resume after day %d", info, killAt-1)
			}
			if CellDigest(&got) != CellDigest(&want) {
				t.Fatalf("killed at day %d and resumed, the cell diverged:\n got %+v\nwant %+v", killAt, got, want)
			}
		})
	}
}

// TestSpooledForeignLogRestartsCell: a spool whose checkpoint belongs to
// the cell but whose log is another seed's (readable, long enough, and
// salvageable) is not continued. OpenRunLogFile refuses the log's
// header, and the cell restarts from day 1 instead of resuming onto
// another run's prefix.
func TestSpooledForeignLogRestartsCell(t *testing.T) {
	sp, ok := scenario.Lookup(microName(t, "paper-baseline"))
	if !ok {
		t.Fatal("micro scenario missing")
	}
	const seed, otherSeed = 20190301, 20190401
	killAt := func(day int) CellRunner {
		days := 0
		return CellRunner{SpoolDir: t.TempDir(), CheckpointEvery: 1, PerDay: func(dates.Date) error {
			if days++; days == day {
				return fmt.Errorf("killed at day barrier %d: %w", days, fault.ErrInjected)
			}
			return nil
		}}
	}
	mine, other := killAt(5), killAt(12)
	for _, run := range []struct {
		cr   CellRunner
		seed uint64
	}{{mine, seed}, {other, otherSeed}} {
		if _, _, err := run.cr.Run(context.Background(), sp, run.seed); !IsInjected(err) {
			t.Fatalf("killed run returned %v, want an injected fault", err)
		}
	}
	logPath, _ := mine.spoolPaths(sp.Name, seed)
	otherLog, _ := other.spoolPaths(sp.Name, otherSeed)
	raw, err := os.ReadFile(otherLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	want, _, err := (&CellRunner{}).Run(context.Background(), sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := (&CellRunner{SpoolDir: mine.SpoolDir, CheckpointEvery: 1}).Run(context.Background(), sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed || info.DaysExecuted != 20 {
		t.Fatalf("successor info = %+v, want a fresh 20-day run", info)
	}
	if CellDigest(&got) != CellDigest(&want) {
		t.Fatalf("restarted cell diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestTapTruthMatchesTruthLabels: for every built-in scenario, the truth
// set a cell scores against (its detector's device table, fed at the day
// barriers) equals World.TruthLabels of a same-seed run that keeps its
// install records, both for an in-memory cell, whose install log keeps
// only a count, and for a spooled cell killed at a day barrier and
// resumed, whose detector re-ingests the salvaged log prefix.
func TestTapTruthMatchesTruthLabels(t *testing.T) {
	const seed = 20190301
	for i, b := range scenario.Builtins() {
		sp, ok := scenario.Lookup(microName(t, b.Name))
		if !ok {
			t.Fatalf("micro %s missing", b.Name)
		}
		killAt := 3 + (i*7)%15
		t.Run(b.Name, func(t *testing.T) {
			cfg, err := sim.ConfigForSpec(sp)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed, cfg.Workers = seed, 1
			w, err := sim.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, err := w.Run(); err != nil {
				t.Fatal(err)
			}
			want := w.TruthLabels()
			if err := w.InstallLog.Err(); err != nil || len(want) == 0 {
				t.Fatalf("reference truth: %d devices, err %v", len(want), err)
			}
			check := func(what string, cell Cell, truth map[string]bool) {
				t.Helper()
				if !maps.Equal(truth, want) || cell.Truth != len(want) {
					t.Errorf("%s: the cell's truth set (%d devices, cell reports %d) differs from TruthLabels (%d)",
						what, len(truth), cell.Truth, len(want))
				}
			}

			cell, _, truth, err := (&CellRunner{}).run(context.Background(), sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			check("in-memory", cell, truth)

			spool := t.TempDir()
			days := 0
			first := CellRunner{SpoolDir: spool, CheckpointEvery: 1, PerDay: func(dates.Date) error {
				if days++; days == killAt {
					return fmt.Errorf("killed at day barrier %d: %w", days, fault.ErrInjected)
				}
				return nil
			}}
			if _, _, err := first.Run(context.Background(), sp, seed); !IsInjected(err) {
				t.Fatalf("killed run returned %v, want an injected fault", err)
			}
			cell, info, truth, err := (&CellRunner{SpoolDir: spool, CheckpointEvery: 1}).run(context.Background(), sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Resumed || info.ResumedAfterDays != killAt-1 {
				t.Fatalf("successor info = %+v, want a resume after day %d", info, killAt-1)
			}
			check("spooled, killed and resumed", cell, truth)
		})
	}
}
