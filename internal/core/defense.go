package core

import (
	"fmt"
	"sort"

	"repro/internal/lockstep"
)

// LockstepResult is the Section 5.2 defense evaluation: the paper proposes
// that its measurements provide ground truth for training lockstep-
// behaviour detectors; here the detector runs over the store-side
// device-resolved install stream and is scored against the simulator's
// known worker population.
type LockstepResult struct {
	Groups         int
	FlaggedDevices int
	Eval           lockstep.Evaluation
}

// buildLockstep runs the lockstep detector over the incentivized install
// log followed by organic decoy traffic and scores its groups against the
// devices that log names.
func (s *Study) buildLockstep() (LockstepResult, error) {
	det, truth, err := s.detectLockstep()
	if err != nil {
		return LockstepResult{}, err
	}
	groups := det.Groups()
	flagged := 0
	for _, g := range groups {
		flagged += len(g.Devices)
	}
	return LockstepResult{
		Groups:         len(groups),
		FlaggedDevices: flagged,
		Eval:           lockstep.Evaluate(groups, truth),
	}, nil
}

// detectLockstep feeds a detector the install log and then the decoys,
// and returns it with the truth set. One walk of the log both ingests
// each install and collects its device, in the order
// World.DetectionEvents lists the same events, so the detector ends in
// the state lockstep.Detect reaches over that slice without the log
// being copied into it. An install log whose spill failed or was closed
// yields a partial stream, so it fails instead of returning one.
func (s *Study) detectLockstep() (*lockstep.Detector, map[string]bool, error) {
	w := s.World
	decoys := w.DecoyEvents()
	det := lockstep.NewDetector(lockstep.DefaultConfig())
	det.Grow(w.InstallLog.Len() + len(decoys))
	truth := make(map[string]bool, 1024)
	for rec := range w.InstallLog.All() {
		det.Ingest(rec.Device, rec.App, rec.Day)
		truth[rec.Device] = true
	}
	if err := w.InstallLog.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: reading the install log: %w", err)
	}
	for _, ev := range decoys {
		det.IngestEvent(ev)
	}
	return det, truth, nil
}

// DisclosureRow is one entry of the Section 5.1 responsible-disclosure
// list: a popular advertised app (5M+ installs) and the contact address
// scraped from its store profile.
type DisclosureRow struct {
	Package     string
	InstallBin  int64
	Developer   string
	ContactMail string
}

// buildDisclosure reproduces the paper's disclosure selection: of the
// advertised apps, contact those with 5M+ public installs (136 of 922 in
// the paper).
func (s *Study) buildDisclosure(views []*appView) []DisclosureRow {
	ds := s.Crawler.Dataset()
	var rows []DisclosureRow
	for _, v := range views {
		profile, ok := ds.Profile(v.pkg)
		if !ok || profile.InstallBin < 5_000_000 {
			continue
		}
		rows = append(rows, DisclosureRow{
			Package:     v.pkg,
			InstallBin:  profile.InstallBin,
			Developer:   profile.DeveloperName,
			ContactMail: profile.Email,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].InstallBin != rows[j].InstallBin {
			return rows[i].InstallBin > rows[j].InstallBin
		}
		return rows[i].Package < rows[j].Package
	})
	return rows
}
