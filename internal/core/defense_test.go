package core

import (
	"testing"

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
