package core

import (
	"reflect"
	"testing"

	"repro/internal/lockstep"
	"repro/internal/sim"
)

// lockstepReference scores lockstep.Detect's groups over
// World.DetectionEvents against World.TruthLabels: the post-hoc reference
// the barrier-fed detector must reproduce.
func lockstepReference(t *testing.T, w *sim.World) (*lockstep.Detector, map[string]bool, LockstepResult) {
	t.Helper()
	events, truth := w.DetectionEvents()
	if err := w.InstallLog.Err(); err != nil {
		t.Fatal(err)
	}
	ref := lockstep.NewDetector(lockstep.DefaultConfig())
	for _, ev := range events {
		ref.IngestEvent(ev)
	}
	groups := ref.Groups()
	flagged := 0
	for _, g := range groups {
		flagged += len(g.Devices)
	}
	return ref, truth, LockstepResult{Groups: len(groups), FlaggedDevices: flagged, Eval: lockstep.Evaluate(groups, truth)}
}

// TestLockstepMatchesDetectionEvents: a detector fed at the day barriers
// (RunOptions.Installs) and scored by lockstep.Score, as the study scores
// its own, must end where lockstep.Detect's does over
// World.DetectionEvents (same events, accounting and groups; the decoys
// are never flagged on this world, so only the event count shows them),
// with the same truth set and score, with the install log resident and
// with it spilled to disk. The study's stored score matches the same
// reference over its own world.
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
		det := lockstep.NewDetector(lockstep.DefaultConfig())
		_, err = w.RunOpts(sim.RunOptions{Installs: func(recs []sim.InstallRecord) error {
			for _, in := range recs {
				det.Ingest(in.Device, in.App, in.Day)
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if w.InstallLog.Spilling() != (window > 0) || w.InstallLog.Len() <= 2*window {
			t.Fatalf("window %d: spilling %v with %d records", window, w.InstallLog.Spilling(), w.InstallLog.Len())
		}
		res, truth := lockstep.Score(det, w.DecoyEvents())
		ref, wantTruth, want := lockstepReference(t, w)
		if got, want := det.Events(), ref.Events(); got != want {
			t.Fatalf("window %d: detector ingested %d events, Detect's %d", window, got, want)
		}
		if got, want := det.Stats(), ref.Stats(); got != want {
			t.Fatalf("window %d: detector stats %+v, Detect's %+v", window, got, want)
		}
		if got, groups := det.Groups(), ref.Groups(); !reflect.DeepEqual(got, groups) {
			t.Fatalf("window %d: %d groups, Detect over DetectionEvents %d", window, len(got), len(groups))
		}
		if !reflect.DeepEqual(truth, wantTruth) || res.Truth != len(wantTruth) {
			t.Fatalf("window %d: %d truth labels (score says %d), TruthLabels %d", window, len(truth), res.Truth, len(wantTruth))
		}
		got := LockstepResult{Groups: res.Groups, FlaggedDevices: res.Flagged, Eval: res.Eval}
		if got != want || want.Eval.TruePositives == 0 {
			t.Fatalf("window %d: barrier-fed detector scored %+v, Detect over DetectionEvents %+v", window, got, want)
		}
	}

	s := tinyStudy(t)
	if _, _, want := lockstepReference(t, s.World); s.Results.Lockstep != want {
		t.Fatalf("study scored %+v, Detect over its DetectionEvents %+v", s.Results.Lockstep, want)
	}
}
