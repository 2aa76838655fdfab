package core

import "strings"

// analyze derives every table and figure from the collected measurements,
// through the same Analysis the benchmark harness times artifact by
// artifact.
func (s *Study) analyze() error {
	a := s.NewAnalysis()
	r := &s.Results

	descs := map[string]bool{}
	for _, o := range a.cos {
		descs[strings.ToLower(o.Description)] = true
	}
	r.Dataset = DatasetSummary{
		Offers:             len(a.cos),
		UniqueApps:         len(a.views),
		UniqueDescriptions: len(descs),
		MilkDays:           len(s.Milker.MilkDays()),
		CrawlDays:          len(s.Crawler.Dataset().Days()),
	}

	r.Table1 = a.Table1()
	r.Table2 = a.Table2()
	r.Table3 = a.Table3()
	r.Table4 = a.Table4()

	var err error
	if r.Table5, err = a.Table5(); err != nil {
		return err
	}
	if r.Table6, err = a.Table6(); err != nil {
		return err
	}
	if r.Table7, err = a.Table7(); err != nil {
		return err
	}
	r.Table8 = a.Table8()

	r.Figure2 = a.Figure2()
	r.Figure4 = a.Figure4()
	r.Figure5 = a.Figure5()
	if r.Figure6, err = a.Figure6(); err != nil {
		return err
	}

	r.Enforcement = a.Enforcement()
	r.Arbitrage = a.Arbitrage()
	if r.Lockstep, err = a.Lockstep(); err != nil {
		return err
	}
	r.Disclosure = a.Disclosure()
	return nil
}
