// Package playstore simulates the observable surface of the Google Play
// Store that the paper's measurements touch: an app catalog with developer
// metadata, Google-style binned public install counts, engagement-driven
// top charts recomputed daily, per-developer console analytics, and a
// policy-enforcement module that (imperfectly) filters fraudulent installs.
//
// The simulator intentionally models only what the study can observe —
// profile pages, top charts, and the developer console — plus the internal
// engagement state needed to drive chart ranking the way the paper
// describes ("Google Play Store places apps in top charts based on user
// engagement metrics").
package playstore

import (
	"repro/internal/dates"
)

// DeveloperID uniquely identifies a developer account, mirroring the
// paper's note that developers are identified by their developer ID.
type DeveloperID string

// Developer is a Play Store developer account with the public metadata the
// paper crawls (company name, website, mailing address/country, email).
type Developer struct {
	ID      DeveloperID
	Name    string
	Country string
	Website string
	Email   string
	// Public marks developers that are publicly traded companies
	// (Section 4.3.3 identifies 28 advertised apps from public
	// companies).
	Public bool
}

// InstallSource is the acquisition channel recorded by the developer
// console. The store itself cannot tell incentivized installs apart from
// other referrals; the console only distinguishes organic (store search /
// browse) from third-party referral traffic.
type InstallSource int

const (
	// SourceOrganic is an install originating from store search or
	// top-chart browsing.
	SourceOrganic InstallSource = iota
	// SourceReferral is an install arriving through a third-party
	// referrer (which is how incentivized installs appear).
	SourceReferral
)

func (s InstallSource) String() string {
	switch s {
	case SourceOrganic:
		return "organic"
	case SourceReferral:
		return "referral"
	default:
		return "unknown"
	}
}

// Install is one install event as the store records it. FraudScore in
// [0, 1] abstracts the device/network reputation signals Google's install
// filtering systems consume (device reuse, emulator fingerprints,
// datacenter ASNs); the simulator's users populate it.
type Install struct {
	Day        dates.Date
	Source     InstallSource
	FraudScore float64
}

// Session is an app-usage session contributing to engagement metrics.
type Session struct {
	Day     dates.Date
	Seconds int64
}

// Purchase is an in-app purchase contributing to revenue (and hence to the
// top-grossing chart).
type Purchase struct {
	Day dates.Date
	USD float64
}

// Profile is the public store listing as seen by a crawler: exactly what
// the paper's Play Store crawl collects.
type Profile struct {
	Package       string
	Title         string
	Genre         string
	Released      dates.Date
	InstallBin    int64  // lower bound of the public install bin
	InstallLabel  string // e.g. "1,000+"
	DeveloperID   DeveloperID
	DeveloperName string
	Country       string
	Website       string
	Email         string
}

// ChartEntry is one row of a top chart.
type ChartEntry struct {
	Rank    int // 1-based
	Package string
	Score   float64
}

// ConsoleDay is one day of developer-console analytics for an app.
type ConsoleDay struct {
	Day      dates.Date
	Organic  int64
	Referral int64
	Removed  int64 // installs retroactively filtered by enforcement
}

// colArena is a shard's struct-of-arrays backing store for every app's
// per-day metrics: five dense columns, one slot per app-day, and a
// referral pair beside them. Each app owns one contiguous [off, off+room)
// range of every dense column, so the daily StepDay pass — enforcement
// scan, window roll, chart scoring — streams over flat int64/float64
// columns instead of striding an array of heterogeneous structs per app.
// At 100k+ apps that layout difference is what keeps the per-day scan
// memory-bandwidth-bound rather than cache-miss-bound: the float
// re-summation reads two packed float64 columns and nothing else.
//
// Referral installs and enforcement removals land in a few advertised
// apps only, so they live in the pair (referral, removed): an app gets a
// [pair, pair+room) range of it on its first referral install, and every
// other app reads both as 0. DAU has no column: every store writer adds
// the same amount to DAU as to sessions, so DAU is sessions.
type colArena struct {
	organic    []int64
	fraudSum   []float64
	sessions   []int64
	sessionSec []int64
	revenue    []float64

	referral []int64
	removed  []int64

	// horizon, when nonzero, is the last day the run is expected to
	// write (Store.SetHorizon). An app's first range is sized to reach
	// it, so steady forward writes never relocate and the arena carries
	// no abandoned ranges — without it, every long-lived app walks the
	// full doubling ladder and more than half the arena ends up dead.
	// Purely an allocation-sizing hint: values, iteration order, and
	// the snapshot wire format are identical with or without it.
	horizon dates.Date

	// unplaced counts the shard's apps that have not yet written (and so
	// own no range). An app's first write reserves column capacity for
	// all of them at its own range length, so a shard's columns are
	// allocated once instead of walking append's growth ladder, which
	// copies all five columns at every step and holds old and new
	// arrays at once. The referral pair has no reservation.
	unplaced int
}

// alloc extends every dense column by n zeroed slots and returns the
// starting offset of the new range; when the columns are full, it grows
// them with room for spare more slots. Ranges are never freed: an app
// that outgrows its range relocates to the tail and abandons the old one,
// so with doubling growth at most half of each column is dead — the same
// constant-factor overhead as slice append, paid arena-wide instead of
// per-app.
func (ar *colArena) alloc(n, spare int) int {
	off := len(ar.organic)
	end := off + n
	c := cap(ar.organic)
	if end > c {
		// Double at least, so relocations past the reservation stay
		// amortized O(1).
		c = max(end+spare, 2*c)
	}
	ar.organic = extendCol(ar.organic, end, c)
	ar.fraudSum = extendCol(ar.fraudSum, end, c)
	ar.sessions = extendCol(ar.sessions, end, c)
	ar.sessionSec = extendCol(ar.sessionSec, end, c)
	ar.revenue = extendCol(ar.revenue, end, c)
	return off
}

// allocPair extends the referral pair by n zeroed slots and returns the
// starting offset of the new range, doubling the pair when it is full.
// Like dense ranges, pair ranges are never freed.
func (ar *colArena) allocPair(n int) int {
	off := len(ar.referral)
	end := off + n
	c := cap(ar.referral)
	if end > c {
		c = max(end, 2*c)
	}
	ar.referral = extendCol(ar.referral, end, c)
	ar.removed = extendCol(ar.removed, end, c)
	return off
}

// extendCol extends col to length end, first moving it into an array of
// capacity c when end exceeds its capacity. Slots past len were never
// written, so the new slots are zero either way. Unlike append's growth,
// make need not clear a tail of fresh pages, so a reserved tail costs
// little resident memory until it is written.
func extendCol[T int64 | float64](col []T, end, c int) []T {
	if end > cap(col) {
		grown := make([]T, len(col), c)
		copy(grown, col)
		col = grown
	}
	return col[:end]
}

// app is the store-internal mutable state for a listing.
//
// Daily metrics live in the shard's column arena (see colArena), anchored
// at the first day the app ever recorded activity: the slot for day d is
// column[off + (d - base)], grown on write. The hot paths — every install,
// session, and purchase record, plus the per-day trailing-window
// aggregation in StepDay — are pure index arithmetic over contiguous
// memory, with no hashing and no per-day allocations.
//
// On top of the columns, a rolling 7-day window (winEnd, win) keeps the
// integer chart-window aggregates incrementally: advancing one day adds
// the entering day's totals and subtracts the leaving day's, both exact
// in int64, so the StepDay/enforcer window query is O(1) arithmetic for
// those fields. The two float fields (fraudSum, revenue) are deliberately
// NOT maintained that way: float addition is not associative, and an
// add/subtract rolling sum would drift from the bit patterns the seed
// engine produced. window() re-sums exactly those two fields over the
// dense columns in ascending day order — the same summation order as the
// seed engine — so every chart score and enforcement draw stays
// bit-identical while still never touching a map.
//
// The chart score's trend term also reads the previous window,
// (winEnd-14, winEnd-7], but only its sessions and sessionSec. Those two roll
// the same way in prev: each day that leaves win enters prev, and the day
// 14 back leaves it. So StepDay's trend query is O(1) too.
type app struct {
	pkg      string
	title    string
	genre    string
	dev      DeveloperID
	released dates.Date
	game     bool // genre is eligible for the top-games chart

	installs int64 // cumulative net installs

	ar   *colArena  // the owning shard's column arena
	off  int        // start of this app's range in every dense column
	n    int        // days in use, index = day - base
	room int        // allocated range length (n <= room)
	base dates.Date // day of slot off; meaningful only when n > 0
	// pair is the start of the app's [pair, pair+room) range in the
	// referral pair when paired; dense slot off+i pairs with pair+i.
	pair   int
	paired bool

	winEnd dates.Date // newest day the rolling window is anchored at
	win    winInts    // exact integer sums over (winEnd-7, winEnd]
	prev   trendInts  // exact trend-term sums over (winEnd-14, winEnd-7]
}

// dayMetrics is the value view of one app-day: the row the columns are
// transposed from. Snapshot framing, the developer console, and the
// AoS-reference tests read whole rows through metricsAt; the hot paths
// never materialize one.
type dayMetrics struct {
	organic    int64
	referral   int64
	removed    int64
	fraudSum   float64 // sum of fraud scores over the day's installs
	sessions   int64
	sessionSec int64
	revenue    float64
	activeUser int64 // distinct opens proxy (DAU), equal to sessions
}

// winInts are the integer fields of windowMetrics, maintained as an exact
// rolling sum (see the app doc for why the float fields are excluded).
type winInts struct {
	installs   int64
	referral   int64
	sessions   int64
	sessionSec int64
}

func (w *winInts) add(o winInts) {
	w.installs += o.installs
	w.referral += o.referral
	w.sessions += o.sessions
	w.sessionSec += o.sessionSec
}

func (w *winInts) sub(o winInts) {
	w.installs -= o.installs
	w.referral -= o.referral
	w.sessions -= o.sessions
	w.sessionSec -= o.sessionSec
}

// trendInts are the two previous-window fields freeScore's trend term
// reads, maintained as an exact rolling sum beside winInts.
type trendInts struct {
	sessions   int64
	sessionSec int64
}

func (t *trendInts) add(o trendInts) {
	t.sessions += o.sessions
	t.sessionSec += o.sessionSec
}

func (t *trendInts) sub(o trendInts) {
	t.sessions -= o.sessions
	t.sessionSec -= o.sessionSec
}

func (w winInts) trend() trendInts {
	return trendInts{sessions: w.sessions, sessionSec: w.sessionSec}
}

// initialRoom is the first column range allocated for an app on its first
// write. Small enough that a catalog where most apps see little activity
// stays cheap, large enough that a window's worth of days fits without a
// relocation.
const initialRoom = 8

// slot returns the arena index of the mutable slot for d, growing the
// app's dense range as needed and rolling the window anchor forward when
// d opens a new newest day. Callers hold the shard write lock, mutate the
// columns at the returned index immediately, and mirror integer deltas
// through winTrack.
func (a *app) slot(d dates.Date) int {
	if a.n == 0 {
		a.base = d
		a.winEnd = d
		if a.room == 0 {
			room := initialRoom
			if h := a.ar.horizon; h > d && int(h-d)+1 > room {
				room = int(h-d) + 1
			}
			// Reserve for the shard's apps still unplaced. On a run's
			// forward day path they start on this day or later, so
			// none needs a longer range; one that does just grows the
			// columns again.
			a.ar.unplaced--
			a.off = a.ar.alloc(room, room*max(a.ar.unplaced, 0))
			a.room = room
		}
		a.n = 1
		return a.off
	}
	if d > a.winEnd {
		a.rollTo(d)
	}
	idx := int(d - a.base)
	switch {
	case idx < 0:
		// A write before the first-ever active day: shift right and
		// re-anchor. Rare (never on the engine's monotonic day path).
		shift := -idx
		a.relocate(a.n+shift, shift)
		a.n += shift
		a.base = d
		idx = 0
	case idx >= a.n:
		if idx >= a.room {
			a.relocate(idx+1, 0)
		}
		a.n = idx + 1
	}
	return a.off + idx
}

// relocate moves the app's n used slots into a fresh zeroed range of at
// least need slots (grown by doubling) in all five dense columns and, when
// the app is paired, in the referral pair, placing them shift slots in —
// the backfill case re-anchors by shifting right. The old ranges are
// abandoned.
func (a *app) relocate(need, shift int) {
	room := a.room
	for room < need {
		room *= 2
	}
	ar := a.ar
	off := ar.alloc(room, 0)
	copy(ar.organic[off+shift:], ar.organic[a.off:a.off+a.n])
	copy(ar.fraudSum[off+shift:], ar.fraudSum[a.off:a.off+a.n])
	copy(ar.sessions[off+shift:], ar.sessions[a.off:a.off+a.n])
	copy(ar.sessionSec[off+shift:], ar.sessionSec[a.off:a.off+a.n])
	copy(ar.revenue[off+shift:], ar.revenue[a.off:a.off+a.n])
	if a.paired {
		pair := ar.allocPair(room)
		copy(ar.referral[pair+shift:], ar.referral[a.pair:a.pair+a.n])
		copy(ar.removed[pair+shift:], ar.removed[a.pair:a.pair+a.n])
		a.pair = pair
	}
	a.off = off
	a.room = room
}

// pairSlot returns the referral-pair index of dense slot j, placing the
// app's pair range first when it has none. Callers hold the shard write
// lock, and j is a slot of the app's dense range.
func (a *app) pairSlot(j int) int {
	if !a.paired {
		a.pair = a.ar.allocPair(a.room)
		a.paired = true
	}
	return a.pair + j - a.off
}

// pairAt returns the referral installs and enforcement removals of dense
// slot j, both 0 for an app without a pair.
func (a *app) pairAt(j int) (referral, removed int64) {
	if !a.paired {
		return 0, 0
	}
	p := a.pair + j - a.off
	return a.ar.referral[p], a.ar.removed[p]
}

// slotAt returns the arena index for day d read-only, -1 when d falls
// outside the app's dense range.
func (a *app) slotAt(d dates.Date) int {
	if a.n == 0 {
		return -1
	}
	idx := int(d - a.base)
	if idx < 0 || idx >= a.n {
		return -1
	}
	return a.off + idx
}

// metricsAt transposes day d's column slots back into a row value, false
// when d falls outside the dense range. Cold paths only (console reads,
// snapshot framing, tests).
func (a *app) metricsAt(d dates.Date) (dayMetrics, bool) {
	j := a.slotAt(d)
	if j < 0 {
		return dayMetrics{}, false
	}
	ar := a.ar
	referral, removed := a.pairAt(j)
	return dayMetrics{
		organic:    ar.organic[j],
		referral:   referral,
		removed:    removed,
		fraudSum:   ar.fraudSum[j],
		sessions:   ar.sessions[j],
		sessionSec: ar.sessionSec[j],
		revenue:    ar.revenue[j],
		activeUser: ar.sessions[j],
	}, true
}

// dayInts reads the integer window contribution of day d, zero outside the
// dense range.
func (a *app) dayInts(d dates.Date) winInts {
	j := a.slotAt(d)
	if j < 0 {
		return winInts{}
	}
	ar := a.ar
	referral, _ := a.pairAt(j)
	return winInts{
		installs:   ar.organic[j] + referral,
		referral:   referral,
		sessions:   ar.sessions[j],
		sessionSec: ar.sessionSec[j],
	}
}

// dayTrend reads the trend-term contribution of day d, zero outside the
// dense range.
func (a *app) dayTrend(d dates.Date) trendInts {
	j := a.slotAt(d)
	if j < 0 {
		return trendInts{}
	}
	return trendInts{sessions: a.ar.sessions[j], sessionSec: a.ar.sessionSec[j]}
}

// sumInts sums the integer window fields over the days [from,
// from+chartWindowDays), straight from the columns.
func (a *app) sumInts(from dates.Date) winInts {
	var w winInts
	for k := 0; k < chartWindowDays; k++ {
		w.add(a.dayInts(from.AddDays(k)))
	}
	return w
}

// rebuildWindows recomputes win and prev for the anchor winEnd from the
// columns.
func (a *app) rebuildWindows() {
	a.win = a.sumInts(a.winEnd.AddDays(-(chartWindowDays - 1)))
	a.prev = a.sumInts(a.winEnd.AddDays(-(2*chartWindowDays - 1))).trend()
}

// rollTo advances the rolling window anchor so win covers (end-7, end]
// and prev covers (end-14, end-7]. Steady-state day advances are +1: the
// day leaving win enters prev, and the day 14 back leaves prev. Gaps of a
// full window or more rebuild both from the columns directly, so the
// amortized cost per simulated day is O(1). The anchor never moves
// backward: every day newer than winEnd is guaranteed to have an all-zero
// (or absent) slot, which keeps the incremental sums exact.
func (a *app) rollTo(end dates.Date) {
	if gap := end - a.winEnd; gap < 0 || gap >= chartWindowDays {
		// A negative gap is an overflowed one, so it is a large gap.
		a.winEnd = end
		a.rebuildWindows()
		return
	}
	for e := a.winEnd + 1; e <= end; e++ {
		leaving := a.dayInts(e.AddDays(-chartWindowDays))
		a.win.sub(leaving)
		a.win.add(a.dayInts(e))
		a.prev.add(leaving.trend())
		a.prev.sub(a.dayTrend(e.AddDays(-2 * chartWindowDays)))
	}
	a.winEnd = end
}

// winTrack mirrors an integer delta just applied to day d into the rolling
// windows. The record paths call it after mutating the slot returned by
// slot(), which has already anchored the window at the newest written day.
func (a *app) winTrack(d dates.Date, delta winInts) {
	switch {
	case d > a.winEnd:
	case d > a.winEnd.AddDays(-chartWindowDays):
		a.win.add(delta)
	case d > a.winEnd.AddDays(-2*chartWindowDays):
		a.prev.add(delta.trend())
	}
}

// trend returns the trend-term fields of the window ending
// chartWindowDays before end. The caller has just queried
// window(end, chartWindowDays), so the anchor is at or past end; at the
// anchor — StepDay's once-per-app-per-day case — the rolling prev answers
// in O(1), and any other end scans the columns.
func (a *app) trend(end dates.Date) trendInts {
	if a.n == 0 {
		return trendInts{}
	}
	if end == a.winEnd {
		return a.prev
	}
	return a.window(end.AddDays(-chartWindowDays), chartWindowDays).trend()
}

// windowMetrics aggregates the trailing-window activity used for chart
// scoring and enforcement.
type windowMetrics struct {
	installs   int64
	referral   int64
	fraudSum   float64
	sessions   int64
	sessionSec int64
	revenue    float64
	dau        int64 // equal to sessions
}

// window aggregates the trailing days ending at end (inclusive).
//
// The chart-window query at the rolling anchor — the once-per-app-per-day
// StepDay and enforcement pattern — takes the fast path: integer fields
// are O(1) copies of the incremental sums, and only the two float fields
// are re-summed, in ascending day order over the dense float columns,
// preserving the seed engine's float bit patterns (see the app doc). Every
// other query (the enforcer's 30-day clawback, a trend window off the
// anchor, arbitrary test queries) scans the dense range directly — still
// pure contiguous arithmetic, never map probes.
//
// Callers hold the shard lock. A chart-window query with end beyond the
// current anchor advances the anchor and therefore requires the shard
// write lock; every current caller (StepDay's shard scan, the enforcer)
// already holds it.
func (a *app) window(end dates.Date, days int) windowMetrics {
	var w windowMetrics
	if a.n == 0 {
		return w
	}
	ar := a.ar
	if days == chartWindowDays {
		if end > a.winEnd {
			a.rollTo(end)
		}
		if end == a.winEnd {
			lo, hi := a.clamp(end.AddDays(-(chartWindowDays - 1)), end)
			fs, rev := ar.fraudSum, ar.revenue
			for j := a.off + lo; j <= a.off+hi; j++ {
				w.fraudSum += fs[j]
				w.revenue += rev[j]
			}
			w.installs = a.win.installs
			w.referral = a.win.referral
			w.sessions = a.win.sessions
			w.sessionSec = a.win.sessionSec
			w.dau = a.win.sessions
			return w
		}
	}
	lo, hi := a.clamp(end.AddDays(-(days - 1)), end)
	for j := a.off + lo; j <= a.off+hi; j++ {
		w.installs += ar.organic[j]
		w.fraudSum += ar.fraudSum[j]
		w.sessions += ar.sessions[j]
		w.sessionSec += ar.sessionSec[j]
		w.revenue += ar.revenue[j]
	}
	if a.paired {
		for i := a.pair + lo; i <= a.pair+hi; i++ {
			w.referral += ar.referral[i]
		}
	}
	w.installs += w.referral
	w.dau = w.sessions
	return w
}

func (w windowMetrics) trend() trendInts {
	return trendInts{sessions: w.sessions, sessionSec: w.sessionSec}
}

// clamp converts an inclusive day range to inclusive range-relative
// indexes, intersected with the dense range (lo > hi when the
// intersection is empty).
func (a *app) clamp(from, to dates.Date) (lo, hi int) {
	lo = int(from - a.base)
	hi = int(to - a.base)
	if lo < 0 {
		lo = 0
	}
	if last := a.n - 1; hi > last {
		hi = last
	}
	return lo, hi
}
