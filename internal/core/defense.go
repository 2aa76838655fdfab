package core

import (
	"sort"

	"repro/internal/lockstep"
)

// LockstepResult is the Section 5.2 defense evaluation: the paper proposes
// that its measurements provide ground truth for training lockstep-
// behaviour detectors; here the detector takes the store-side
// device-resolved install stream at the engine's day barriers, and
// lockstep.Score scores it, with organic decoy traffic added, against
// the devices that stream names.
type LockstepResult struct {
	Groups         int
	FlaggedDevices int
	Eval           lockstep.Evaluation
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
