package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/conc"
	"repro/internal/dates"
	"repro/internal/device"
	"repro/internal/iip"
	"repro/internal/mediator"
	"repro/internal/playstore"
	"repro/internal/randx"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// engine executes the day loop over a bounded worker pool while keeping
// the run bit-for-bit deterministic in the world's seed.
//
// The determinism model has three rules:
//
//  1. Randomness is owned, never shared. Every organic app and every
//     campaign carries its own randx.Derive stream keyed by a stable name
//     ("engine/<pkg>", "engine/campaign/<offerID>"), so the values a unit
//     draws do not depend on which worker runs it or when.
//
//  2. Writes are partitioned. Organic work units are single apps;
//     campaign work units are whole developer groups. A developer owns
//     all of their apps' store rows and their platform balance, so every
//     mutable float is only ever touched from one goroutine per phase —
//     no cross-unit accumulation whose order could vary.
//
//  3. Cross-cutting effects are buffered and flushed in canonical order.
//     Ledger postings, install-log records, and stat deltas land in
//     per-unit sinks merged sequentially after each phase barrier, so
//     the transaction log and floating-point totals are identical for
//     any worker count.
//
// On top of those rules, every string key the day loop would otherwise
// resolve per event is resolved exactly once here, at construction: app
// rows become playstore.AppHandle values, campaigns become iip
// settlement handles plus mediator click sessions, organic rate maps
// become slices, and every name the day loop writes (package, device,
// offer ID, ledger account) is a stream.Ref from the run's name tables
// (runNames). The inner loops then run on pointers and integers — no
// string hashing, no map growth, and (thanks to the write partition) one
// shard-lock acquisition per (app, day) batch instead of one per event.
type engine struct {
	w       *World
	workers int

	// organic are the phase-1 work units, parallel to the catalog
	// snapshot, each with its stream, store handle, and activity rates
	// pre-resolved.
	organic []organicUnit

	// charted flags, per organic unit, presence on yesterday's top-free
	// chart; unitOf resolves a chart entry's package to its unit. It is
	// the run's string-table index (runNames), which lists package i at
	// position i, so any other name's position is past the units.
	charted []bool
	unitOf  map[string]uint32

	// groups are the campaign work units: all campaigns of one developer,
	// in first-appearance order of w.Campaigns (the canonical flush
	// order), each fully resolved to handles.
	groups [][]*campUnit

	// sinks and deltas are the per-day scratch buffers, allocated once
	// and reset at each day barrier instead of reallocated per day.
	sinks  []unitSink
	deltas []organicDelta

	// log, when non-nil, receives the event-sourced run log. Each organic
	// unit and each campaign group buffers its events in its own encoder
	// during the parallel phases; the barrier concatenates the buffers in
	// canonical unit order, so the log bytes are bit-identical for any
	// worker count (the same argument as the ledger flush).
	log       *stream.Writer
	orgEnc    []stream.Encoder
	sinkEnc   []stream.Encoder
	batchBufs [][]byte // barrier scratch: non-empty unit buffers for EventBatch

	// devNames and strNames are the run's name tables (runNames), which
	// an attached log's tables must equal.
	devNames, strNames []string

	// installs, when non-nil, receives each sink's install records at the
	// barrier, in install-log order (RunOptions.Installs), their names
	// resolved into the one reused buffer installBuf.
	installs   func([]InstallRecord) error
	installBuf []InstallRecord

	// obs, when non-nil, times the day phases and counts emitted events.
	// It is written only at phase barriers (a handful of clock reads per
	// day) and never read by simulation logic, so attaching it cannot
	// perturb RNG draws, log bytes, or stats.
	obs *Metrics
}

// organicUnit is one phase-1 work unit: an app with its random stream,
// store handle, and organic activity rates resolved at construction.
type organicUnit struct {
	pkg     stream.Ref // the app's package: run-log string ID i+1 for unit i
	r       *randx.Rand
	app     playstore.AppHandle
	install float64 // expected organic installs per day
	dau     float64 // expected daily active users
	revenue float64 // expected purchase revenue per day (0 = none)
	// enc buffers the unit's run-log record (nil when event logging is
	// disabled).
	enc *stream.Encoder
}

// record writes one day of the app's organic activity to the store, under
// one shard-lock acquisition, and logs it as one organic record when it
// did anything.
func (u *organicUnit) record(day dates.Date, n, dau, secPer int64, usd float64) {
	u.app.Lock()
	u.app.RecordInstallBatchLocked(day, n, playstore.SourceOrganic, organicMeanFraud)
	if dau > 0 {
		u.app.RecordSessionBatchLocked(day, dau, secPer)
	}
	if u.revenue > 0 {
		u.app.RecordPurchaseLocked(playstore.Purchase{Day: day, USD: usd})
	}
	u.app.Unlock()
	if u.enc != nil && (n > 0 || dau > 0 || usd > 0) {
		u.enc.Organic(u.pkg, n, organicMeanFraud, dau, secPer, usd)
	}
}

// campUnit is one campaign with every per-event lookup hoisted to
// construction time: the campaign's random stream, the store handle of the
// advertised app, the platform settlement handle, the mediator click
// session, the worker pool with its IIP's interned names, and the
// platform's daily pace cap.
//
// Every name the delivery flow writes or logs is one stream.Ref from the
// run's name tables (runNames), with its table ID whether a log is
// attached or not: the package, the offer ID, the ledger accounts and the
// pool devices. The install log shares the package and device IDs; the
// delivery hot path posts four transfers per completion and never
// rebuilds a name.
type campUnit struct {
	c         *PlannedCampaign
	r         *randx.Rand
	app       playstore.AppHandle
	offer     *iip.CampaignHandle
	session   *mediator.OfferSession
	pool      []*device.Worker
	campNames // the package, offer ID and accounts, the pool's devices
	paceCap   int

	// strat is the unit's adversary strategy (scenario layer): it decides
	// the day's quota within paceCap, which pool workers fulfil it, the
	// device identity each presents to the store, and any faked retention
	// sessions. The baseline strategy consumes u.r exactly as the
	// pre-scenario engine did.
	strat scenario.Strategy
}

// pickWorker draws the pool worker fulfilling one completion and the
// device identity it presents to the mediator and the store: the
// strategy's (device-churn rotates it, and a rotated ID is written
// inline), while payment still reaches the stable worker's account.
func (u *campUnit) pickWorker(day dates.Date) (int, stream.Ref) {
	wi := u.strat.PickWorker(u.r, day, len(u.pool))
	dev := u.devs[wi]
	if id := u.strat.DeviceID(dev.S, day); id != dev.S {
		dev = stream.Ref{S: id}
	}
	return wi, dev
}

// pickAffiliateAccount selects the interned ledger account of the
// affiliate app credited with a completion. IIPs without instrumented
// affiliates settle through their (unobserved) own-network account and
// consume no randomness, exactly like the string-building path it
// replaces.
func (u *campUnit) pickAffiliateAccount() stream.Ref {
	if len(u.affAccts) == 0 {
		return u.noAffAcct
	}
	return u.affAccts[u.r.IntN(len(u.affAccts))]
}

// organicDelta is one organic unit's stat contribution for a day.
type organicDelta struct {
	installs int64
	revenue  float64
}

// organicMeanFraud is the store-visible fraud score of organic installs:
// real users occasionally trip device-reputation heuristics too. One
// constant shared by the store write and the run-log event keeps live and
// replayed fraudSum accumulation identical by construction.
const organicMeanFraud = 0.05

// newEngine prepares the per-unit streams, handles, and work partition
// for a run. The catalog is snapshotted here: apps published mid-run have
// no organic rates and thus generated no activity under the sequential
// engine either, so the snapshot changes nothing observable while keeping
// the organic fan-out race-free.
func newEngine(w *World) (*engine, error) {
	workers := w.Cfg.workerCount()
	// Wire the same resolved bound into the store's StepDay fan-out, so
	// one knob governs every pool and a Workers=1 run is genuinely
	// serial end to end, even if Cfg.Workers was mutated after NewWorld.
	w.Store.SetStepWorkers(workers)
	w.medAcct = mediator.MediatorAccount(w.Mediator.Name)
	e := &engine{w: w, workers: workers}

	names := newRunNames(w)
	e.devNames, e.strNames = names.devs.list, names.strs.list
	pkgs := e.strNames[:len(names.pkgs)]
	w.InstallLog.setNames(e.devNames, pkgs)
	e.organic = make([]organicUnit, len(pkgs))
	e.charted = make([]bool, len(pkgs))
	e.unitOf = names.strs.idx
	for i, pkg := range pkgs {
		h, err := w.Store.AppHandle(pkg)
		if err != nil {
			return nil, fmt.Errorf("sim: resolving organic app %s: %w", pkg, err)
		}
		e.organic[i] = organicUnit{
			pkg:     names.pkgs[i],
			r:       randx.Derive(w.Cfg.Seed, "engine/"+pkg),
			app:     h,
			install: w.organicInstall[pkg],
			dau:     w.organicDAU[pkg],
			revenue: w.organicRevenue[pkg],
		}
	}

	groupOf := map[string]int{}
	for i, c := range w.Campaigns {
		g, ok := groupOf[c.Spec.Developer]
		if !ok {
			g = len(e.groups)
			groupOf[c.Spec.Developer] = g
			e.groups = append(e.groups, nil)
		}
		u, err := e.resolveUnit(c, names.camps[i])
		if err != nil {
			return nil, err
		}
		e.groups[g] = append(e.groups[g], u)
	}
	e.sinks = make([]unitSink, len(e.groups))
	e.deltas = make([]organicDelta, len(e.organic))
	return e, nil
}

// enableLog attaches the event-sourced run log, allocating the per-unit
// encoders the parallel phases buffer into. Every name already holds its
// table ID from the engine build, so the encoders install no tables. The
// writer's tables must be exactly this run's (World.NewRunLog or
// ResumeRunLog, opened after the last app was published): one name
// missing, added or moved, and the log is refused. With no log attached
// the hot paths skip event encoding entirely.
func (e *engine) enableLog(w *stream.Writer) error {
	if !sameTable(w.DeviceTable(), e.devNames) || !sameTable(w.StringTable(), e.strNames) {
		return fmt.Errorf("sim: the run log's name tables are not this world's (open it with NewRunLog or ResumeRunLog after the last app is published)")
	}
	e.log = w
	e.orgEnc = make([]stream.Encoder, len(e.organic))
	for i := range e.organic {
		u := &e.organic[i]
		u.enc = &e.orgEnc[i]
		u.enc.SetRecordMode(true)
		u.enc.Grow(48) // one organic record per day
	}
	e.sinkEnc = make([]stream.Encoder, len(e.sinks))
	for g := range e.sinks {
		e.sinkEnc[g].SetRecordMode(true)
		e.sinkEnc[g].Grow(4 << 10)
		e.sinks[g].enc = &e.sinkEnc[g]
	}
	e.batchBufs = make([][]byte, 0, len(e.orgEnc)+len(e.sinkEnc))
	return nil
}

// sameTable reports whether tab maps exactly list[i] to i.
func sameTable(tab map[string]uint32, list []string) bool {
	if len(tab) != len(list) {
		return false
	}
	for i, s := range list {
		if id, ok := tab[s]; !ok || id != uint32(i) {
			return false
		}
	}
	return true
}

// resolveUnit turns one planned campaign into a fully resolved work unit
// writing the names the run's name tables gave it.
func (e *engine) resolveUnit(c *PlannedCampaign, names campNames) (*campUnit, error) {
	w := e.w
	platform := w.Platforms[c.IIP]
	if _, ok := w.Pools[c.IIP]; platform == nil || !ok {
		return nil, fmt.Errorf("sim: campaign %s on unknown platform %s, or one without a worker pool", c.OfferID, c.IIP)
	}
	offer, err := platform.CampaignHandle(c.OfferID)
	if err != nil {
		return nil, fmt.Errorf("sim: resolving campaign %s: %w", c.OfferID, err)
	}
	session, err := w.Mediator.Session(c.OfferID)
	if err != nil {
		return nil, fmt.Errorf("sim: resolving campaign %s: %w", c.OfferID, err)
	}
	app, err := w.Store.AppHandle(c.App)
	if err != nil {
		return nil, fmt.Errorf("sim: resolving campaign %s: %w", c.OfferID, err)
	}
	if int(names.pkg.ID) > len(e.organic) {
		return nil, fmt.Errorf("sim: resolving campaign %s: app %s is not in the engine's catalog", c.OfferID, c.App)
	}
	strat, err := scenario.NewStrategy(w.Cfg.Adversary, w.Cfg.Seed, c.OfferID)
	if err != nil {
		return nil, fmt.Errorf("sim: campaign %s: %w", c.OfferID, err)
	}
	return &campUnit{
		c:         c,
		r:         randx.Derive(w.Cfg.Seed, "engine/campaign/"+c.OfferID),
		app:       app,
		offer:     offer,
		session:   session,
		pool:      w.Pools[c.IIP],
		campNames: names,
		paceCap:   platform.DailyPace(),
		strat:     strat,
	}, nil
}

// checkpoint captures everything a resumed run needs to continue
// byte-identically after the just-completed day: the cumulative stats,
// the log offset, snapshots of the store, ledger, mediator (with session
// click numbering folded in), and every platform, the exact RNG position
// of every work-unit stream, and a view of the install log so far.
func (e *engine) checkpoint(day dates.Date, stats RunStats, logOffset int64) (*stream.Checkpoint, error) {
	w := e.w
	for _, g := range e.groups {
		for _, u := range g {
			u.session.SyncTo(w.Mediator)
		}
	}
	cp := &stream.Checkpoint{
		Day:                  day,
		Days:                 int64(stats.Days),
		OrganicInstalls:      stats.OrganicInstalls,
		IncentivizedInstalls: stats.IncentivizedInstalls,
		CertifiedCompletions: stats.CertifiedCompletions,
		RevenueUSD:           stats.RevenueUSD,
		LogOffset:            logOffset,
		Store:                w.Store.EncodeSnapshot(),
		Ledger:               w.Ledger.EncodeSnapshot(),
		Mediator:             w.Mediator.EncodeSnapshot(),
	}
	names := make([]string, 0, len(w.Platforms))
	for name := range w.Platforms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cp.Platforms = append(cp.Platforms, stream.NamedBlob{Name: name, Data: w.Platforms[name].EncodeSnapshot()})
	}
	add := func(label string, r *randx.Rand) error {
		state, err := r.MarshalState()
		if err != nil {
			return fmt.Errorf("sim: checkpointing stream %s: %w", label, err)
		}
		cp.Streams = append(cp.Streams, stream.NamedBlob{Name: label, Data: state})
		return nil
	}
	for i := range e.organic {
		if err := add("engine/"+e.organic[i].pkg.S, e.organic[i].r); err != nil {
			return nil, err
		}
	}
	for _, g := range e.groups {
		for _, u := range g {
			if err := add("engine/campaign/"+u.c.OfferID, u.r); err != nil {
				return nil, err
			}
			// Stateful adversary strategies (jitter's pending ring, burst's
			// latent demand, mimic's retained cohort) checkpoint their
			// schedule alongside the unit's RNG position; stateless ones
			// contribute nothing.
			if state := u.strat.MarshalState(); state != nil {
				cp.Streams = append(cp.Streams, stream.NamedBlob{
					Name: "strategy/" + u.c.OfferID, Data: state})
			}
		}
	}
	// The install history is a view of the log, not a copy: the records
	// stream from RAM (and a spilled log's file) only when the checkpoint
	// is written. The checkpoint's bytes still grow with the run's length.
	if err := w.InstallLog.Err(); err != nil {
		return nil, err
	}
	cp.Installs = w.InstallLog.CheckpointView()
	return cp, nil
}

// restoreStreams fast-forwards every work-unit RNG stream to the position
// a checkpoint recorded. Every stream must be present: a missing label
// means the checkpoint belongs to a different world or config.
func (e *engine) restoreStreams(cp *stream.Checkpoint) error {
	byName := make(map[string][]byte, len(cp.Streams))
	for _, b := range cp.Streams {
		byName[b.Name] = b.Data
	}
	restore := func(label string, r *randx.Rand) error {
		state, ok := byName[label]
		if !ok {
			return fmt.Errorf("sim: checkpoint has no stream state for %s (wrong config or seed?)", label)
		}
		if err := r.UnmarshalState(state); err != nil {
			return fmt.Errorf("sim: restoring stream %s: %w", label, err)
		}
		return nil
	}
	for i := range e.organic {
		if err := restore("engine/"+e.organic[i].pkg.S, e.organic[i].r); err != nil {
			return err
		}
	}
	for _, g := range e.groups {
		for _, u := range g {
			if err := restore("engine/campaign/"+u.c.OfferID, u.r); err != nil {
				return err
			}
			state, ok := byName["strategy/"+u.c.OfferID]
			if !ok {
				if u.strat.MarshalState() != nil {
					return fmt.Errorf("sim: checkpoint has no strategy state for %s (different adversary?)", u.c.OfferID)
				}
				continue
			}
			if err := u.strat.UnmarshalState(state); err != nil {
				return fmt.Errorf("sim: restoring strategy state for %s: %w", u.c.OfferID, err)
			}
		}
	}
	return nil
}

// parallelFor runs fn(0..n-1) across the worker pool and blocks until all
// complete. All indices run even after a failure — so world state after a
// failed day is identical for any pool width — and the error belonging to
// the lowest index is returned, making failure reporting deterministic.
func (e *engine) parallelFor(n int, fn func(i int) error) error {
	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	conc.ForN(e.workers, n, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// deliverInstalls hands one sink's records to the Installs callback, their
// names resolved into the reused buffer.
func (e *engine) deliverInstalls(recs []pendingInstall) error {
	names := &e.w.InstallLog.names
	buf := e.installBuf[:0]
	for i := range recs {
		p := &recs[i]
		buf = append(buf, InstallRecord{Device: p.dev.S, App: names.pkgs[p.app], Day: p.day})
	}
	e.installBuf = buf
	return e.installs(buf)
}

// markCharted sets charted for exactly the organic units on day's top-free
// chart.
func (e *engine) markCharted(day dates.Date) {
	clear(e.charted)
	for _, c := range e.w.Store.ChartOn(playstore.ChartTopFree, day) {
		if i, ok := e.unitOf[c.Package]; ok && int(i) < len(e.charted) {
			e.charted[i] = true
		}
	}
}

// stepDay executes one simulated day: the organic phase fanned out over
// apps, a barrier, the campaign phase fanned out over developer groups,
// and the ordered sink flush.
func (e *engine) stepDay(day dates.Date, stats *RunStats) error {
	w := e.w
	var t time.Time
	if e.obs != nil {
		t = time.Now()
	}

	// Phase 1: organic activity, one unit per app. Yesterday's top-free
	// chart is resolved once into per-unit flags, shared read-only across
	// the fan-out, so the per-app chart-presence check is a slice read
	// with no hashing and no store locking. All randomness is drawn
	// before the handle's shard lock is taken, so the lock covers exactly
	// the (app, day) write batch — one acquisition per unit instead of
	// one per record call.
	e.markCharted(day.AddDays(-1))
	deltas := e.deltas
	err := e.parallelFor(len(e.organic), func(i int) error {
		u := &e.organic[i]
		r := u.r
		// Chart presence yesterday boosts organic acquisition
		// ("visibility"), the reason developers want top-chart slots.
		boost := 1.0
		if e.charted[i] {
			boost = 1.5
		}
		n := int64(r.Poisson(u.install * boost))

		// Day-to-day engagement fluctuates multiplicatively (weekday
		// effects, feature placements), which keeps chart boundaries
		// churning the way real "trending" charts do.
		dau := int64(r.Poisson(u.dau * r.LogNormal(0, 0.10)))
		var secPer int64
		if dau > 0 {
			secPer = int64(60 + r.IntN(240))
		}
		var usd float64
		if u.revenue > 0 {
			usd = u.revenue * r.LogNormal(0, 0.3)
		}

		u.record(day, n, dau, secPer, usd)
		deltas[i] = organicDelta{installs: n, revenue: usd}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sim: organic step %s: %w", day, err)
	}
	for i := range deltas {
		stats.OrganicInstalls += deltas[i].installs
		stats.RevenueUSD += deltas[i].revenue
	}
	if e.obs != nil {
		t = e.obs.phase("organic", day, e.obs.PhaseOrganic, t)
	}

	// Phase 2: campaign deliveries, one unit per developer group.
	err = e.parallelFor(len(e.groups), func(g int) error {
		for _, u := range e.groups[g] {
			if err := w.campaignDay(u, day, &e.sinks[g]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		err = fmt.Errorf("sim: campaign step %s: %w", day, err)
	}
	// Flush every sink even when a campaign unit failed: parallelFor ran
	// all units regardless and their store writes are already visible, so
	// flushing keeps the install log and ledger consistent with the store
	// when a failed day is inspected post mortem. The earliest error —
	// campaign before flush, lower sink first — is the one reported.
	var certified int64
	for g := range e.sinks {
		s := &e.sinks[g]
		if ferr := s.txs.FlushTo(w.Ledger); ferr != nil && err == nil {
			err = fmt.Errorf("sim: ledger flush %s: %w", day, ferr)
		}
		w.InstallLog.appendPending(s.log)
		if e.installs != nil && len(s.log) > 0 && err == nil {
			if ierr := e.deliverInstalls(s.log); ierr != nil {
				err = fmt.Errorf("sim: installs on %s: %w", day, ierr)
			}
		}
		stats.IncentivizedInstalls += s.delivered
		certified += s.certified
		s.log = s.log[:0]
		s.delivered, s.certified = 0, 0
	}
	if serr := w.InstallLog.Err(); serr != nil && err == nil {
		err = fmt.Errorf("sim: install-log spill %s: %w", day, serr)
	}
	// Session certifications reach the mediator's global count only here,
	// at the barrier; the count is a plain sum, so merge order is free.
	w.Mediator.AddCertified(int(certified))
	if e.obs != nil {
		t = e.obs.phase("campaign", day, e.obs.PhaseCampaign, t)
	}
	if err != nil {
		return err
	}
	stats.CertifiedCompletions = int64(w.Mediator.Certified())

	// Event-log flush: the per-unit buffers concatenate in canonical order
	// (day marker, organic units in catalog order, campaign groups in
	// group order), which makes the log bytes independent of the worker
	// count and of phase scheduling.
	if e.log != nil {
		if err := e.log.DayStart(day); err != nil {
			return err
		}
		bufs := e.batchBufs[:0]
		for i := range e.orgEnc {
			if e.orgEnc[i].Len() > 0 {
				bufs = append(bufs, e.orgEnc[i].Bytes())
			}
		}
		for g := range e.sinkEnc {
			if e.sinkEnc[g].Len() > 0 {
				bufs = append(bufs, e.sinkEnc[g].Bytes())
			}
		}
		e.batchBufs = bufs
		if err := e.log.EventBatch(bufs...); err != nil {
			return err
		}
		if e.obs != nil {
			// Events emitted this day: each per-unit encoder's record count,
			// read before the Resets clear it. The count also feeds the
			// writer's batch-record metric (the writer never parses its
			// payloads, so the engine reports it).
			var nrec int64
			for i := range e.orgEnc {
				nrec += int64(e.orgEnc[i].Records())
			}
			for g := range e.sinkEnc {
				nrec += int64(e.sinkEnc[g].Records())
			}
			e.obs.Events.Add(nrec)
			e.log.AddBatchRecords(nrec)
		}
		for i := range e.orgEnc {
			e.orgEnc[i].Reset()
		}
		for g := range e.sinkEnc {
			e.sinkEnc[g].Reset()
		}
		if e.obs != nil {
			e.obs.phase("log-emit", day, e.obs.PhaseLogEmit, t)
		}
	}
	return nil
}
