package core

import "strings"

// analyze derives every table and figure from the collected measurements.
func (s *Study) analyze() error {
	raw := s.Milker.Offers()
	cos := classifyOffers(raw)
	views := buildAppViews(cos)
	vetted, unvetted := groupViews(views)

	descs := map[string]bool{}
	for _, o := range cos {
		descs[strings.ToLower(o.Description)] = true
	}
	s.Results.Dataset = DatasetSummary{
		Offers:             len(cos),
		UniqueApps:         len(views),
		UniqueDescriptions: len(descs),
		MilkDays:           len(s.Milker.MilkDays()),
		CrawlDays:          len(s.Crawler.Dataset().Days()),
	}

	s.Results.Table1 = s.probeTable1()
	s.Results.Table2 = s.buildTable2()
	s.Results.Table3 = buildTable3(cos)
	s.Results.Table4 = s.buildTable4(cos)

	var err error
	if s.Results.Table5, err = s.buildTable5(vetted, unvetted); err != nil {
		return err
	}
	if s.Results.Table6, err = s.buildTable6(vetted, unvetted); err != nil {
		return err
	}
	if s.Results.Table7, err = s.buildTable7(vetted, unvetted); err != nil {
		return err
	}
	s.Results.Table8 = s.buildTable8(vetted)

	s.Results.Figure2 = s.buildFigure2()
	s.Results.Figure4 = s.buildFigure4()
	s.Results.Figure5 = s.buildFigure5(views)
	if s.Results.Figure6, err = s.buildFigure6(views); err != nil {
		return err
	}

	s.Results.Enforcement = s.buildEnforcement(vetted, unvetted)
	s.Results.Arbitrage = buildArbitrage(views, vetted, unvetted)
	if s.Results.Lockstep, err = s.buildLockstep(); err != nil {
		return err
	}
	s.Results.Disclosure = s.buildDisclosure(views)
	return nil
}
