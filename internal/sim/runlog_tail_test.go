package sim

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dates"
	"repro/internal/lockstep"
	"repro/internal/stream"
)

// TestTailFeedsLockstepOnline runs a world with the event log on a real
// file while a tail consumer follows it day by day, feeding the
// incremental lockstep detector exactly as an out-of-process analytics
// job would. The online result must match the post-hoc batch detector
// over the same install stream, and detections must form while the run is
// still executing (the Section 5.2 "during the run" property).
func TestTailFeedsLockstepOnline(t *testing.T) {
	cfg := microConfig()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := w.NewRunLog(f)
	if err != nil {
		t.Fatal(err)
	}

	tail := stream.NewTail(f)
	det := lockstep.NewDetector(lockstep.DefaultConfig())
	var (
		ev             stream.Event
		curDay         dates.Date
		daysDrained    int
		firstDetection dates.Date = -1
	)
	drain := func() error {
		for {
			ok, err := tail.Next(&ev)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			switch ev.Kind {
			case stream.KindDayStart:
				curDay = ev.Day
			case stream.KindInstall:
				det.Ingest(ev.Device, ev.Pkg, curDay)
			case stream.KindInstallBatch:
				for _, dev := range ev.Devices {
					det.Ingest(dev, ev.Pkg, curDay)
				}
			}
		}
	}
	_, err = w.RunOpts(RunOptions{Log: log, Hook: func(day dates.Date) error {
		if err := drain(); err != nil {
			return err
		}
		daysDrained++
		if curDay != day {
			t.Errorf("tail lags: saw day %s inside hook for %s", curDay, day)
		}
		if firstDetection < 0 && len(det.Groups()) > 0 {
			firstDetection = day
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if daysDrained != cfg.Window.Days() {
		t.Errorf("drained %d days, want %d", daysDrained, cfg.Window.Days())
	}
	if firstDetection < 0 {
		t.Fatal("no lockstep groups formed during the run")
	}
	if firstDetection > cfg.Window.End {
		t.Errorf("first detection only after the window: %s", firstDetection)
	}

	// Online == post-hoc: the batch detector over the world's own install
	// log must report exactly the same groups.
	events := make([]lockstep.Event, w.InstallLog.Len())
	for i, rec := range collect(t, &w.InstallLog) {
		events[i] = lockstep.Event{Device: rec.Device, App: rec.App, Day: rec.Day}
	}
	want := lockstep.Detect(events, lockstep.DefaultConfig())
	got := det.Groups()
	if len(got) != len(want) {
		t.Fatalf("online found %d groups, batch %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i].Devices) != len(want[i].Devices) {
			t.Fatalf("group %d: %d devices online vs %d batch", i, len(got[i].Devices), len(want[i].Devices))
		}
		for j := range want[i].Devices {
			if got[i].Devices[j] != want[i].Devices[j] {
				t.Fatalf("group %d member %d differs: %s vs %s", i, j, got[i].Devices[j], want[i].Devices[j])
			}
		}
	}
}
