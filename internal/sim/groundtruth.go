package sim

import (
	"fmt"

	"repro/internal/lockstep"
	"repro/internal/randx"
)

// Ground truth for detector evaluation. The world records exactly which
// (device, install) pairs were incentivized: InstallLog is the store-side
// device-resolved stream of incentivized deliveries, and nothing else
// writes to it — so the device identities appearing there (including
// rotated identities under the device-churn adversary) are the labels a
// Section 5.2 lockstep detector should recover. RunOptions.Installs hands
// a consumer the same records, so a detector fed there (the study's, a
// sweep cell's) collects the same labels in its device table
// (lockstep.Score), and a world whose every reader is fed there may keep
// only a count (InstallLog.CountOnly); TruthLabels and DetectionEvents
// then fail through InstallLog.Err. They stay as the post-hoc reference
// that tests and benchmarks check the barrier-fed detector against.

// TruthLabels returns every device identity that fulfilled an
// incentivized install during the run, keyed by the identity the store
// observed (device-churn adversaries present rotated identities; each
// rotation is its own label, since that is all the defender can see).
// Check InstallLog.Err after the call: a failed or closed spill, or a
// count-only log, leaves the set partial or empty.
func (w *World) TruthLabels() map[string]bool {
	truth := make(map[string]bool, 1024)
	for rec := range w.InstallLog.All() {
		truth[rec.Device] = true
	}
	return truth
}

// DecoyEvents generates the organic background a store-side detector
// would see alongside the incentivized stream: independent devices
// installing catalog apps on random days, which the detector must not
// flag. Google would have the full organic stream; a deterministic
// sample — one decoy device per pool worker — suffices to measure
// precision. The stream depends only on the world seed and build, never
// on the run, so scenario evaluations are comparable across adversaries.
func (w *World) DecoyEvents() []lockstep.Event {
	r := randx.Derive(w.Cfg.Seed, "lockstep-decoys")
	catalog := append(append([]string(nil), w.Baseline...), w.Background...)
	window := w.Cfg.Window
	nDecoys := 0
	for _, pool := range w.Pools {
		nDecoys += len(pool)
	}
	events := make([]lockstep.Event, 0, nDecoys*7)
	for i := 0; i < nDecoys; i++ {
		dev := fmt.Sprintf("organic-%05d", i)
		n := r.IntBetween(3, 12)
		for j := 0; j < n; j++ {
			events = append(events, lockstep.Event{
				Device: dev,
				App:    catalog[r.IntN(len(catalog))],
				Day:    window.Start.AddDays(r.IntN(window.Days())),
			})
		}
	}
	return events
}

// DetectionEvents returns the labeled event stream for post-hoc detector
// evaluation: the incentivized install log followed by the organic
// decoys, plus the ground-truth labels (true only for devices that
// appear in the incentivized stream). The study's evaluation ingests the
// same events in the same order straight from the log; this slice is the
// reference it is tested against and what a re-timed detection reads.
func (w *World) DetectionEvents() ([]lockstep.Event, map[string]bool) {
	events := make([]lockstep.Event, 0, w.InstallLog.Len())
	for rec := range w.InstallLog.All() {
		events = append(events, lockstep.Event{Device: rec.Device, App: rec.App, Day: rec.Day})
	}
	events = append(events, w.DecoyEvents()...)
	return events, w.TruthLabels()
}
