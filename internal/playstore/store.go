package playstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/conc"
	"repro/internal/dates"
	"repro/internal/randx"
)

// EnforceAction records one enforcement decision taken by StepDay: the
// scanned app and the net installs clawed back (0 when the detection fired
// but nothing was removable).
type EnforceAction struct {
	Package string
	Removed int64
}

// Common store errors.
var (
	ErrUnknownApp       = errors.New("playstore: unknown app")
	ErrUnknownDeveloper = errors.New("playstore: unknown developer")
	ErrDuplicateApp     = errors.New("playstore: duplicate package name")
)

// NumShards is how many independently locked shards the catalog is split
// into. Writes to apps on different shards never contend, which is what
// lets the parallel day engine record millions of installs per simulated
// day across all cores.
const NumShards = 32

// shard holds one slice of the app catalog under its own lock, plus the
// column arena backing every resident app's per-day metrics (see
// colArena). The arena rides the shard so its growth and every column
// read/write stay under the one lock the app paths already hold.
type shard struct {
	mu   sync.RWMutex
	apps map[string]*app
	// order lists the resident apps in publication order. StepDay scans
	// it rather than the map: most apps first write in that order too,
	// so the scan walks the arena forward instead of hopping through
	// hash-bucket order.
	order []*app
	cols  colArena
	// step is StepDay's per-shard output, reused across days. Only
	// StepDay touches it, under the store write lock.
	step stepPartial
}

// stepPartial is one shard's StepDay output: the positive chart scores
// and the enforcement actions taken.
type stepPartial struct {
	free, games, grossing []scoredApp
	enforced              []EnforceAction
}

// Store is the simulated Play Store. All methods are safe for concurrent
// use; the HTTP facade in internal/playapi serves it from multiple
// goroutines and the simulation engine records activity from a worker
// pool. App state is sharded by package-name hash so per-app writes on
// different apps proceed in parallel; store-wide metadata (developers,
// charts, the current day) lives under a separate coarse lock that the hot
// write path never takes.
type Store struct {
	shards [NumShards]shard

	mu        sync.RWMutex // guards everything below
	devs      map[DeveloperID]*Developer
	pkgs      []string // stable iteration order (insertion)
	today     dates.Date
	charts    map[string][]ChartEntry                  // latest computed charts
	history   map[string]map[dates.Date][]ChartEntry   // chart name -> day -> entries
	ranks     map[string]map[dates.Date]map[string]int // chart name -> day -> package -> rank
	enforcer  *Enforcer
	scoring   ChartScoring
	chartSize int
	// lastEnforce is the canonical (package-sorted) list of enforcement
	// actions taken by the most recent StepDay; the run log emits it as
	// enforcement events and replay cross-checks its own recomputation
	// against it.
	lastEnforce []EnforceAction
	// stepWorkers bounds StepDay's shard fan-out (0 = one goroutine per
	// shard). The sim engine wires its Workers knob through here so a
	// Workers=1 run is genuinely serial end to end.
	stepWorkers int
}

// New creates an empty store positioned at the given day.
func New(today dates.Date) *Store {
	s := &Store{
		devs:    map[DeveloperID]*Developer{},
		today:   today,
		charts:  map[string][]ChartEntry{},
		history: map[string]map[dates.Date][]ChartEntry{},
		ranks:   map[string]map[dates.Date]map[string]int{},
	}
	for i := range s.shards {
		s.shards[i].apps = map[string]*app{}
	}
	return s
}

// shardFor maps a package name onto its shard.
func (s *Store) shardFor(pkg string) *shard {
	return &s.shards[randx.Hash64(pkg)%NumShards]
}

// SetStepWorkers bounds how many goroutines StepDay fans out over the
// shards. n <= 0 or n > NumShards means one per shard; 1 runs the scan
// serially. The result of StepDay is identical for every setting.
func (s *Store) SetStepWorkers(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepWorkers = n
}

// SetHorizon tells the column arenas the last day the run expects to
// write, so each app's first range is sized to reach it instead of
// walking the relocation doubling ladder (which strands abandoned
// ranges — over half the arena on a full-window run). Purely an
// allocation-sizing hint: every value, query, and snapshot byte is
// identical with or without it, and writes past the horizon still grow
// by doubling.
func (s *Store) SetHorizon(end dates.Date) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.cols.horizon = end
		sh.mu.Unlock()
	}
}

// SetEnforcer installs a policy-enforcement module that runs during
// StepDay. A nil enforcer disables filtering.
func (s *Store) SetEnforcer(e *Enforcer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enforcer = e
}

// Enforcer returns the installed policy-enforcement module (nil when
// filtering is disabled). Snapshot decoding reattaches the serialized
// enforcer this way.
func (s *Store) Enforcer() *Enforcer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.enforcer
}

// LastEnforcementActions returns the enforcement actions taken by the most
// recent StepDay, sorted by package.
func (s *Store) LastEnforcementActions() []EnforceAction {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]EnforceAction(nil), s.lastEnforce...)
}

// Today returns the store's current simulation day.
func (s *Store) Today() dates.Date {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.today
}

// AddDeveloper registers a developer account.
func (s *Store) AddDeveloper(d Developer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := d
	s.devs[d.ID] = &cp
}

// Developer returns developer metadata by ID.
func (s *Store) Developer(id DeveloperID) (Developer, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.devs[id]
	if !ok {
		return Developer{}, fmt.Errorf("%w: %s", ErrUnknownDeveloper, id)
	}
	return *d, nil
}

// Listing describes a new app to publish.
type Listing struct {
	Package   string
	Title     string
	Genre     string
	Developer DeveloperID
	Released  dates.Date
}

// Publish adds an app listing to the catalog.
func (s *Store) Publish(l Listing) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.devs[l.Developer]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDeveloper, l.Developer)
	}
	sh := s.shardFor(l.Package)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.apps[l.Package]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateApp, l.Package)
	}
	sh.add(&app{
		pkg:      l.Package,
		title:    l.Title,
		genre:    l.Genre,
		game:     gameGenres[l.Genre],
		dev:      l.Developer,
		released: l.Released,
		ar:       &sh.cols,
	})
	s.pkgs = append(s.pkgs, l.Package)
	return nil
}

// add makes a resident of the shard; the caller holds the shard write
// lock (or owns the store exclusively, as snapshot decoding does).
func (sh *shard) add(a *app) {
	sh.apps[a.pkg] = a
	sh.order = append(sh.order, a)
	if a.room == 0 {
		sh.cols.unplaced++
	}
}

// NumApps returns the catalog size.
func (s *Store) NumApps() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pkgs)
}

// Packages returns all package names in publication order.
func (s *Store) Packages() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.pkgs...)
}

// lookup returns the shard and app for pkg without holding any lock on
// return; callers lock the shard around their access.
func (s *Store) lookup(pkg string) (*shard, *app, error) {
	sh := s.shardFor(pkg)
	sh.mu.RLock()
	a, ok := sh.apps[pkg]
	sh.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownApp, pkg)
	}
	return sh, a, nil
}

// RecordInstall records one install event for an app.
func (s *Store) RecordInstall(pkg string, in Install) error {
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a.recordInstall(in)
	return nil
}

// recordInstall applies one install event; the caller holds the shard
// write lock (or owns the app exclusively under the handle batch contract).
func (a *app) recordInstall(in Install) {
	j := a.slot(in.Day)
	delta := winInts{installs: 1}
	switch in.Source {
	case SourceOrganic:
		a.ar.organic[j]++
	default:
		a.ar.referral[a.pairSlot(j)]++
		delta.referral = 1
	}
	a.ar.fraudSum[j] += clamp01(in.FraudScore)
	a.installs++
	a.winTrack(in.Day, delta)
}

// RecordInstallBatch records n installs sharing a day, source, and mean
// fraud score. The simulation engine uses it for high-volume organic
// traffic where per-event recording would be wasteful; the aggregate
// counters are indistinguishable from n RecordInstall calls with the same
// mean fraud.
func (s *Store) RecordInstallBatch(pkg string, day dates.Date, n int64, source InstallSource, meanFraud float64) error {
	if n <= 0 {
		return nil
	}
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a.recordInstallBatch(day, n, source, meanFraud)
	return nil
}

// recordInstallBatch applies n installs sharing a day, source, and mean
// fraud score; the caller holds the shard write lock. n <= 0 is a no-op.
func (a *app) recordInstallBatch(day dates.Date, n int64, source InstallSource, meanFraud float64) {
	if n <= 0 {
		return
	}
	j := a.slot(day)
	delta := winInts{installs: n}
	switch source {
	case SourceOrganic:
		a.ar.organic[j] += n
	default:
		a.ar.referral[a.pairSlot(j)] += n
		delta.referral = n
	}
	a.ar.fraudSum[j] += clamp01(meanFraud) * float64(n)
	a.installs += n
	a.winTrack(day, delta)
}

// RecordSessionBatch records n sessions of secondsPer seconds each.
func (s *Store) RecordSessionBatch(pkg string, day dates.Date, n, secondsPer int64) error {
	if n <= 0 {
		return nil
	}
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a.recordSessionBatch(day, n, secondsPer)
	return nil
}

// recordSessionBatch applies n sessions of secondsPer seconds each; the
// caller holds the shard write lock. n <= 0 is a no-op. Each session is
// one active-user contribution, so DAU is read from sessions.
func (a *app) recordSessionBatch(day dates.Date, n, secondsPer int64) {
	if n <= 0 {
		return
	}
	j := a.slot(day)
	a.ar.sessions[j] += n
	a.ar.sessionSec[j] += n * secondsPer
	a.winTrack(day, winInts{sessions: n, sessionSec: n * secondsPer})
}

// RecordSession records an app-usage session (drives DAU and session-length
// engagement metrics).
func (s *Store) RecordSession(pkg string, sess Session) error {
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a.recordSession(sess)
	return nil
}

// recordSession applies one session; the caller holds the shard write lock.
func (a *app) recordSession(sess Session) {
	j := a.slot(sess.Day)
	a.ar.sessions[j]++ // one session == one active-user contribution
	a.ar.sessionSec[j] += sess.Seconds
	a.winTrack(sess.Day, winInts{sessions: 1, sessionSec: sess.Seconds})
}

// RecordPurchase records an in-app purchase.
func (s *Store) RecordPurchase(pkg string, p Purchase) error {
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a.recordPurchase(p)
	return nil
}

// recordPurchase applies one purchase; the caller holds the shard write
// lock.
func (a *app) recordPurchase(p Purchase) {
	a.ar.revenue[a.slot(p.Day)] += p.USD
}

// SeedInstalls initializes an app's lifetime install counter without
// generating daily activity; the world builder uses it to give pre-existing
// apps their historical popularity.
func (s *Store) SeedInstalls(pkg string, n int64) error {
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n < 0 {
		n = 0
	}
	a.installs = n
	return nil
}

// ExactInstalls exposes the store-internal exact install counter; the
// simulator and tests use it, the crawler never sees it (it only sees
// Profile.InstallBin, like the paper).
func (s *Store) ExactInstalls(pkg string) (int64, error) {
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return 0, err
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return a.installs, nil
}

// Profile returns the public store listing for an app.
func (s *Store) Profile(pkg string) (Profile, error) {
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return Profile{}, err
	}
	sh.mu.RLock()
	installs := a.installs
	devID := a.dev
	sh.mu.RUnlock()

	s.mu.RLock()
	dev := s.devs[devID]
	s.mu.RUnlock()

	bin := InstallBin(installs)
	return Profile{
		Package:       a.pkg,
		Title:         a.title,
		Genre:         a.genre,
		Released:      a.released,
		InstallBin:    bin,
		InstallLabel:  BinLabel(bin),
		DeveloperID:   devID,
		DeveloperName: dev.Name,
		Country:       dev.Country,
		Website:       dev.Website,
		Email:         dev.Email,
	}, nil
}

// Console returns developer-console analytics for an app between two dates
// inclusive. Unlike Profile, this is the app developer's private view with
// exact per-day acquisition numbers.
func (s *Store) Console(pkg string, from, to dates.Date) ([]ConsoleDay, error) {
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return nil, err
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if to < from {
		return nil, nil
	}
	out := make([]ConsoleDay, 0, int(to-from)+1)
	for d := from; d <= to; d++ {
		cd := ConsoleDay{Day: d}
		if j := a.slotAt(d); j >= 0 {
			cd.Organic = a.ar.organic[j]
			cd.Referral, cd.Removed = a.pairAt(j)
		}
		out = append(out, cd)
	}
	return out, nil
}

// StepDay advances the store to the given day: it runs enforcement over
// the trailing window and recomputes all top charts. Days must be stepped
// in nondecreasing order. The scan and score pass fans out over the
// shards — each worker walks its shard's apps in publication order under
// that shard's lock, appending positive scores to per-shard slices reused
// from day to day (no map churn or allocation on the daily path) — and the
// partials are then merged through a bounded top-K selection, so ranking
// costs O(n log k) in the chart size k rather than a full catalog sort.
// Enforcement decisions are keyed by (app, day) and the selection is
// order-independent, so the result is identical no matter how the fan-out
// is scheduled.
func (s *Store) StepDay(day dates.Date) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.today = day

	scanShard := func(i int) {
		sh := &s.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		p := &sh.step
		if n := len(sh.order); cap(p.free) < n {
			p.free = make([]scoredApp, 0, n)
			p.games = make([]scoredApp, 0, n)
			p.grossing = make([]scoredApp, 0, n)
		}
		p.free, p.games, p.grossing = p.free[:0], p.games[:0], p.grossing[:0]
		p.enforced = p.enforced[:0]
		for _, a := range sh.order {
			// One trailing-window aggregation serves both the enforcer
			// scan and chart scoring (the scan only mutates removal
			// counters, never window inputs).
			w := a.window(day, chartWindowDays)
			if s.enforcer != nil {
				if removed := s.enforcer.scan(a, day, w); removed >= 0 {
					p.enforced = append(p.enforced, EnforceAction{Package: a.pkg, Removed: removed})
				}
			}
			if a.released > day {
				continue
			}
			if fs := freeScore(w, a.trend(day), s.scoring); fs > 0 {
				p.free = append(p.free, scoredApp{a.pkg, fs})
				if a.game {
					p.games = append(p.games, scoredApp{a.pkg, fs})
				}
			}
			if gs := grossScore(w); gs > 0 {
				p.grossing = append(p.grossing, scoredApp{a.pkg, gs})
			}
		}
	}
	workers := s.stepWorkers
	if workers <= 0 || workers > NumShards {
		workers = NumShards
	}
	conc.ForN(workers, NumShards, scanShard)

	// Merge the per-shard enforcement actions into one canonical list,
	// sorted by package before anything observable (the run log) sees
	// it, so it does not depend on which shard an app hashes to.
	s.lastEnforce = s.lastEnforce[:0]
	for i := range s.shards {
		s.lastEnforce = append(s.lastEnforce, s.shards[i].step.enforced...)
	}
	sort.Slice(s.lastEnforce, func(i, j int) bool {
		return s.lastEnforce[i].Package < s.lastEnforce[j].Package
	})

	size := s.effectiveChartSizeLocked()
	free := newTopK(size)
	games := newTopK(size)
	grossing := newTopK(size)
	for i := range s.shards {
		p := &s.shards[i].step
		for _, e := range p.free {
			free.push(e)
		}
		for _, e := range p.games {
			games.push(e)
		}
		for _, e := range p.grossing {
			grossing.push(e)
		}
	}
	s.setChartLocked(ChartTopFree, day, free.ranked())
	s.setChartLocked(ChartTopGames, day, games.ranked())
	s.setChartLocked(ChartTopGrossing, day, grossing.ranked())
}

// setChartLocked publishes one day's chart: the latest entries, the
// per-day history, and the package->rank index that makes ChartRank O(1)
// in the chart size.
func (s *Store) setChartLocked(name string, day dates.Date, entries []ChartEntry) {
	s.charts[name] = entries
	h, ok := s.history[name]
	if !ok {
		h = map[dates.Date][]ChartEntry{}
		s.history[name] = h
	}
	h[day] = entries
	idx := make(map[string]int, len(entries))
	for _, e := range entries {
		idx[e.Package] = e.Rank
	}
	r, ok := s.ranks[name]
	if !ok {
		r = map[dates.Date]map[string]int{}
		s.ranks[name] = r
	}
	r[day] = idx
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
