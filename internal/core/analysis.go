package core

import (
	"repro/internal/offers"
	"repro/internal/stats"
)

// Analysis is a reusable view over a completed study's raw measurements
// (classified offers, per-app aggregations) that can recompute each table
// and figure independently. The benchmark harness uses it to time every
// artifact's analysis in isolation; callers can also use it to re-derive
// artifacts with different parameters.
type Analysis struct {
	study    *Study
	cos      []ClassifiedOffer
	views    []*appView
	vetted   []*appView
	unvetted []*appView
}

// NewAnalysis classifies the milked offers and groups them by app.
func (s *Study) NewAnalysis() *Analysis {
	cos := classifyOffers(s.Milker.Offers())
	views := buildAppViews(cos)
	vetted, unvetted := groupViews(views)
	return &Analysis{study: s, cos: cos, views: views, vetted: vetted, unvetted: unvetted}
}

// Offers returns the classified offer dataset.
func (a *Analysis) Offers() []ClassifiedOffer { return a.cos }

// RawOffers returns the unclassified milked offers.
func (a *Analysis) RawOffers() []offers.Offer { return a.study.Milker.Offers() }

// Table1 recomputes the IIP characterization probe.
func (a *Analysis) Table1() []Table1Row { return a.study.probeTable1() }

// Table2 recomputes the affiliate integration matrix.
func (a *Analysis) Table2() []Table2Row { return a.study.buildTable2() }

// Table3 recomputes offer-type prevalence and payouts.
func (a *Analysis) Table3() []Table3Row { return buildTable3(a.cos) }

// Table4 recomputes the per-IIP summary.
func (a *Analysis) Table4() []Table4Row { return a.study.buildTable4(a.cos) }

// Table5 recomputes the install-count-increase comparison.
func (a *Analysis) Table5() (GroupOutcome, error) {
	return a.study.buildTable5(a.vetted, a.unvetted)
}

// Table6 recomputes the top-chart-appearance comparison.
func (a *Analysis) Table6() (GroupOutcome, error) {
	return a.study.buildTable6(a.vetted, a.unvetted)
}

// Table7 recomputes the funding comparison.
func (a *Analysis) Table7() (GroupOutcome, error) {
	return a.study.buildTable7(a.vetted, a.unvetted)
}

// Table8 recomputes the funded-app offer breakdown.
func (a *Analysis) Table8() Table8 { return a.study.buildTable8(a.vetted) }

// Figure2 recomputes the manipulation-claims probe.
func (a *Analysis) Figure2() []Figure2Row { return a.study.buildFigure2() }

// Figure4 recomputes the baseline install histogram.
func (a *Analysis) Figure4() []stats.HistogramBin { return a.study.buildFigure4() }

// Figure5 recomputes the chart-rank case studies.
func (a *Analysis) Figure5() []CaseStudy { return a.study.buildFigure5(a.views) }

// Figure6 recomputes the ad-library CDFs (downloads APKs over HTTP).
func (a *Analysis) Figure6() (Figure6, error) { return a.study.buildFigure6(a.views) }

// Enforcement recomputes the Section 5.2 scan.
func (a *Analysis) Enforcement() EnforcementResult {
	return a.study.buildEnforcement(a.vetted, a.unvetted)
}

// Arbitrage recomputes the arbitrage shares.
func (a *Analysis) Arbitrage() ArbitrageResult {
	return buildArbitrage(a.views, a.vetted, a.unvetted)
}

// Disclosure recomputes the Section 5.1 contact list.
func (a *Analysis) Disclosure() []DisclosureRow { return a.study.buildDisclosure(a.views) }
