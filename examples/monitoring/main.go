// Monitoring: follow a live run through its event-sourced log instead of
// polling end-of-run aggregates. The simulation writes its append-only
// run log to disk while a tail consumer — which could just as well live
// in another process — reads complete frames as each day barrier flushes,
// feeds the device-resolved install stream into the incremental lockstep
// detector (the Section 5.2 defense), and reports detections as they
// form, day by day, while the run is still executing.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dates"
	"repro/internal/lockstep"
	"repro/internal/sim"
	"repro/internal/stream"
)

func main() {
	cfg := sim.TinyConfig()
	w, err := sim.NewWorld(cfg)
	must(err)

	dir, err := os.MkdirTemp("", "runlog-*")
	must(err)
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.log")
	f, err := os.Create(path)
	must(err)
	defer f.Close()

	runLog, err := w.NewRunLog(f)
	must(err)

	// The online consumer: a tail over the same file (ReadAt-addressed,
	// so it never trips over a partially written frame) plus the
	// incremental detector.
	tail := stream.NewTail(f)
	det := lockstep.NewDetector(lockstep.DefaultConfig())
	var (
		ev       stream.Event
		installs int
		flagged  = map[string]bool{}
		active   = map[string]bool{} // every device seen installing
	)
	drain := func() {
		for {
			ok, err := tail.Next(&ev)
			must(err)
			if !ok {
				return
			}
			for in := range ev.Installs(tail.Day()) {
				det.Ingest(in.Device, in.App, in.Day)
				active[in.Device] = true
				installs++
			}
		}
	}

	// The base name only: the temporary directory differs per run, and
	// the output should not.
	fmt.Printf("monitoring %s (%d-day window) via %s\n\n", "tiny world", cfg.Window.Days(), filepath.Base(path))
	fmt.Printf("%-12s %10s %8s %8s %9s\n", "day", "installs", "groups", "flagged", "new")
	_, err = w.RunOpts(sim.RunOptions{
		Log: runLog,
		Hook: func(day dates.Date) error {
			drain()
			groups := det.Groups()
			newDevices := 0
			total := 0
			for _, g := range groups {
				for _, d := range g.Devices {
					total++
					if !flagged[d] {
						flagged[d] = true
						newDevices++
					}
				}
			}
			marker := ""
			if newDevices > 0 {
				marker = fmt.Sprintf("+%d", newDevices)
			}
			fmt.Printf("%-12s %10d %8d %8d %9s\n", day, installs, len(groups), total, marker)
			return nil
		},
	})
	must(err)

	// Score the online detections against the simulator's ground truth,
	// exactly as the post-hoc Section 5.2 analysis does (only workers that
	// actually appear in the install stream can be recalled). The stream
	// the tail read is the world's whole incentivized install stream.
	truth := map[string]bool{}
	for _, pool := range w.Pools {
		for _, worker := range pool {
			if active[worker.ID] {
				truth[worker.ID] = true
			}
		}
	}
	eval := lockstep.Evaluate(det.Groups(), truth)
	fmt.Printf("\nonline lockstep detection after %d streamed installs: %s\n", installs, eval)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
