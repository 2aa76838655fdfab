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

// buildLockstep mixes the incentivized install log with organic decoy
// traffic (World.DetectionEvents, the shared ground-truth path the
// scenario sweep also scores against) and runs the lockstep detector. An
// install log whose spill failed or was closed yields a partial stream,
// so it fails instead of scoring one.
func (s *Study) buildLockstep() (LockstepResult, error) {
	events, truth := s.World.DetectionEvents()
	if err := s.World.InstallLog.Err(); err != nil {
		return LockstepResult{}, fmt.Errorf("core: reading the install log: %w", err)
	}
	groups := lockstep.Detect(events, lockstep.DefaultConfig())
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
