package playstore

import (
	"math"

	"repro/internal/dates"
)

// Chart names exposed by the store. The paper's case studies involve the
// top-games chart (TREBEL) and the top-grossing chart (World on Fire).
const (
	ChartTopFree     = "top-free"
	ChartTopGames    = "top-games"
	ChartTopGrossing = "top-grossing"
)

// ChartNames lists all charts the store computes, in a stable order.
var ChartNames = []string{ChartTopFree, ChartTopGames, ChartTopGrossing}

// DefaultChartSize is how many entries each chart carries by default;
// Play's public charts show a few hundred apps.
const DefaultChartSize = 200

// ChartSize is retained as the historical name for the default size.
const ChartSize = DefaultChartSize

// chartWindowDays is the trailing engagement window feeding chart scores.
const chartWindowDays = 7

// gameGenres identifies listings eligible for the top-games chart.
var gameGenres = map[string]bool{
	"Action": true, "Adventure": true, "Arcade": true, "Board": true,
	"Card": true, "Casino": true, "Casual": true, "Educational": true,
	"Music": true, "Puzzle": true, "Racing": true, "Role Playing": true,
	"Simulation": true, "Sports": true, "Strategy": true, "Trivia": true,
	"Word": true,
}

// ChartScoring selects how chart scores are computed. EngagementScoring is
// the default and mirrors the paper's observation that "Google Play Store
// places apps in top charts based on user engagement metrics";
// InstallsOnlyScoring is the ablation variant that ranks purely on install
// velocity.
type ChartScoring int

const (
	// EngagementScoring blends install velocity, active users, and
	// session length.
	EngagementScoring ChartScoring = iota
	// InstallsOnlyScoring ranks purely by trailing install volume.
	InstallsOnlyScoring
)

// SetChartScoring selects the store-wide chart scoring mode; set it before
// stepping days.
func (s *Store) SetChartScoring(m ChartScoring) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scoring = m
}

// SetChartSize overrides how many entries each chart carries; set it
// before stepping days. Sizes below 1 are ignored.
func (s *Store) SetChartSize(n int) {
	if n < 1 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chartSize = n
}

// ChartSizeNow returns the configured chart size.
func (s *Store) ChartSizeNow() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.effectiveChartSizeLocked()
}

func (s *Store) effectiveChartSizeLocked() int {
	if s.chartSize > 0 {
		return s.chartSize
	}
	return DefaultChartSize
}

// freeScore computes the engagement score used by top-free and top-games.
// DAU is the window's sessions: every session is one active-user
// contribution. prev holds the preceding window's sessions and
// sessionSec, feeding a trend term: the store's public charts list
// "trending" apps, so recent engagement growth counts beyond absolute
// volume. That trend term is what lets an activity campaign lift a
// mid-size app over larger static apps — the mechanism behind the paper's
// Table 6 finding that activity offers (vetted IIPs) push apps into top
// charts while pure install bursts do not.
func freeScore(w windowMetrics, prev trendInts, mode ChartScoring) float64 {
	installs := math.Log1p(float64(w.installs))
	if mode == InstallsOnlyScoring {
		return installs
	}
	dau := math.Log1p(float64(w.sessions))
	avgSess := 0.0
	if w.sessions > 0 {
		avgSess = float64(w.sessionSec) / float64(w.sessions)
	}
	engNow := float64(w.sessions) + 0.02*float64(w.sessionSec)
	engPrev := float64(prev.sessions) + 0.02*float64(prev.sessionSec)
	trend := 0.0
	if engNow > engPrev {
		trend = math.Log1p(engNow/(engPrev+1) - 1)
	}
	return 1.0*installs + 2.0*dau + 0.01*avgSess + 2.5*trend
}

// grossScore computes the revenue score for the top-grossing chart.
func grossScore(w windowMetrics) float64 {
	return math.Log1p(w.revenue)
}

// Chart returns the latest computed entries for a chart name (nil if the
// chart has never been computed or is unknown).
func (s *Store) Chart(name string) []ChartEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]ChartEntry(nil), s.charts[name]...)
}

// ChartOn returns the chart as computed on a specific (previously stepped)
// day.
func (s *Store) ChartOn(name string, day dates.Date) []ChartEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := s.history[name]
	if h == nil {
		return nil
	}
	return append([]ChartEntry(nil), h[day]...)
}

// ChartRank returns the 1-based rank of pkg in the named chart on day, or
// 0 when absent. The lookup is O(1): StepDay stores a package->rank index
// alongside each day's entries.
func (s *Store) ChartRank(name string, day dates.Date, pkg string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ranks[name][day][pkg]
}

// ChartPercentile converts a rank to the percentile-rank representation of
// Figure 5 (100 = top of the chart, 0 = absent/bottom).
func ChartPercentile(rank, size int) float64 {
	if rank <= 0 || size <= 0 {
		return 0
	}
	return 100 * (1 - float64(rank-1)/float64(size))
}
