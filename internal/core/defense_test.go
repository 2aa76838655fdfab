package core

import (
	"reflect"
	"testing"

	"repro/internal/lockstep"
	"repro/internal/sim"
)

// TestLockstepFailsOnClosedSpill: the defense evaluation on a spilling
// world whose install log is closed fails instead of scoring the partial
// detection stream and truth set a closed spill reads back.
func TestLockstepFailsOnClosedSpill(t *testing.T) {
	cfg := sim.TinyConfig()
	cfg.Window.End = cfg.Window.Start.AddDays(19)
	cfg.InstallLogWindow = 256
	cfg.InstallLogDir = t.TempDir()
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if n := w.InstallLog.Len(); n <= cfg.InstallLogWindow {
		t.Fatalf("world too small to spill: %d records", n)
	}
	s := &Study{World: w}
	if _, err := s.buildLockstep(); err != nil {
		t.Fatal(err)
	}
	if err := w.InstallLog.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := s.buildLockstep(); err == nil {
		t.Fatalf("scored a closed spill: %+v", res)
	}
}

// TestLockstepMatchesDetectionEvents: the study's evaluation feeds the
// detector straight from the install log and collects the truth set in
// the same walk, so its detector must end where lockstep.Detect's does
// over World.DetectionEvents (same events, accounting and groups; the
// decoys are never flagged on this world, so only the event count shows
// them), with the same truth set and score, with the log resident and
// with it spilled to disk. Once the spill is closed it must fail, not
// score the part it can still read.
func TestLockstepMatchesDetectionEvents(t *testing.T) {
	for _, window := range []int{0, 512} {
		cfg := sim.TinyConfig()
		if window > 0 {
			cfg.InstallLogWindow = window
			cfg.InstallLogDir = t.TempDir()
		}
		w, err := sim.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.InstallLog.Spilling() != (window > 0) || w.InstallLog.Len() <= 2*window {
			t.Fatalf("window %d: spilling %v with %d records", window, w.InstallLog.Spilling(), w.InstallLog.Len())
		}
		s := &Study{World: w}
		det, truth, err := s.detectLockstep()
		if err != nil {
			t.Fatal(err)
		}
		events, wantTruth := w.DetectionEvents()
		ref := lockstep.NewDetector(lockstep.DefaultConfig())
		for _, ev := range events {
			ref.IngestEvent(ev)
		}
		if got, want := det.Events(), ref.Events(); got != want {
			t.Fatalf("window %d: detector ingested %d events, Detect's %d", window, got, want)
		}
		if got, want := det.Stats(), ref.Stats(); got != want {
			t.Fatalf("window %d: detector stats %+v, Detect's %+v", window, got, want)
		}
		groups := ref.Groups()
		if got := det.Groups(); !reflect.DeepEqual(got, groups) {
			t.Fatalf("window %d: %d groups, Detect over DetectionEvents %d", window, len(got), len(groups))
		}
		if !reflect.DeepEqual(truth, wantTruth) {
			t.Fatalf("window %d: %d truth labels, TruthLabels %d", window, len(truth), len(wantTruth))
		}
		got, err := s.buildLockstep()
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for _, g := range groups {
			flagged += len(g.Devices)
		}
		want := LockstepResult{Groups: len(groups), FlaggedDevices: flagged, Eval: lockstep.Evaluate(groups, wantTruth)}
		if got != want || want.Eval.TruePositives == 0 {
			t.Fatalf("window %d: study scored %+v, Detect over DetectionEvents %+v", window, got, want)
		}
		if window == 0 {
			continue
		}
		if err := w.InstallLog.Close(); err != nil {
			t.Fatal(err)
		}
		if res, err := s.buildLockstep(); err == nil {
			t.Fatalf("window %d: scored a closed spill: %+v", window, res)
		}
	}
}
