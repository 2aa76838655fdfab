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
// become slices, and ledger account names arrive pre-interned from the
// world build. The inner loops then run on pointers and integers — no
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
	// chart; unitOf resolves a chart entry's package to its unit.
	charted []bool
	unitOf  map[string]int

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
// Every name the delivery flow writes or logs is one stream.Ref, built in
// resolveUnit. The pool devices and the package get their table IDs there,
// which the install log and the run log share; the ledger accounts and the
// offer ID get their run-log references at enableLog (the ID stays 0 when
// event logging is disabled).
type campUnit struct {
	c        *PlannedCampaign
	r        *randx.Rand
	app      playstore.AppHandle
	offer    *iip.CampaignHandle
	session  *mediator.OfferSession
	pool     []*device.Worker
	iipNames // the pool's device IDs and payout accounts, the affiliates
	paceCap  int

	// strat is the unit's adversary strategy (scenario layer): it decides
	// the day's quota within paceCap, which pool workers fulfil it, the
	// device identity each presents to the store, and any faked retention
	// sessions. The baseline strategy consumes u.r exactly as the
	// pre-scenario engine did.
	strat scenario.Strategy

	// The advertised package and the offer ID, and the ledger accounts
	// interned once per campaign; the delivery hot path posts four
	// transfers per completion and never rebuilds them.
	pkg      stream.Ref
	offerID  stream.Ref
	devAcct  stream.Ref // "dev:<developer>"
	iipAcct  stream.Ref // "iip:<platform>"
	poolAcct stream.Ref // "user:pool-<platform>", the batch payout account
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

	pkgs := w.Store.Packages()
	devs, devIdx := w.runLogDeviceIndex()
	w.InstallLog.setNames(devs, pkgs)
	e.organic = make([]organicUnit, len(pkgs))
	e.charted = make([]bool, len(pkgs))
	e.unitOf = make(map[string]int, len(pkgs))
	for i, pkg := range pkgs {
		e.unitOf[pkg] = i
		h, err := w.Store.AppHandle(pkg)
		if err != nil {
			return nil, fmt.Errorf("sim: resolving organic app %s: %w", pkg, err)
		}
		e.organic[i] = organicUnit{
			pkg:     stream.Ref{ID: uint32(i) + 1, S: pkg},
			r:       randx.Derive(w.Cfg.Seed, "engine/"+pkg),
			app:     h,
			install: w.organicInstall[pkg],
			dau:     w.organicDAU[pkg],
			revenue: w.organicRevenue[pkg],
		}
	}

	names := map[string]iipNames{}
	groupOf := map[string]int{}
	for _, c := range w.Campaigns {
		g, ok := groupOf[c.Spec.Developer]
		if !ok {
			g = len(e.groups)
			groupOf[c.Spec.Developer] = g
			e.groups = append(e.groups, nil)
		}
		u, err := e.resolveUnit(c, names, devIdx)
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
// encoders the parallel phases buffer into and giving the ledger accounts
// and offer IDs their run-log references. Packages and pool devices hold
// their table IDs from the engine build already; the writer's tables must
// be this world's (World.NewRunLog or ResumeRunLog, opened after the last
// app was published). With no log attached the hot paths skip event
// encoding entirely.
func (e *engine) enableLog(w *stream.Writer) error {
	if err := e.checkLogTables(w); err != nil {
		return err
	}
	e.log = w
	e.orgEnc = make([]stream.Encoder, len(e.organic))
	for i := range e.organic {
		u := &e.organic[i]
		u.enc = &e.orgEnc[i]
		u.enc.SetStringTable(w.StringTable())
		u.enc.SetRecordMode(true)
		u.enc.Grow(48) // one organic record per day
	}
	e.sinkEnc = make([]stream.Encoder, len(e.sinks))
	for g := range e.sinks {
		e.sinkEnc[g].SetDeviceTable(w.DeviceTable())
		e.sinkEnc[g].SetStringTable(w.StringTable())
		e.sinkEnc[g].SetRecordMode(true)
		e.sinkEnc[g].Grow(4 << 10)
		e.sinks[g].enc = &e.sinkEnc[g]
	}
	e.batchBufs = make([][]byte, 0, len(e.orgEnc)+len(e.sinkEnc))
	// Each IIP's shared account slices are resolved once, through the
	// first campaign that carries them; the delivery hot path then
	// performs no map lookups at all.
	enc := &e.sinkEnc[0]
	shared := map[string]bool{}
	for _, g := range e.groups {
		for _, u := range g {
			if !shared[u.c.IIP] {
				shared[u.c.IIP] = true
				for _, accts := range [][]stream.Ref{u.poolAccts, u.affAccts} {
					for i := range accts {
						accts[i] = enc.Intern(accts[i].S)
					}
				}
			}
			u.noAffAcct = enc.Intern(u.noAffAcct.S)
			u.offerID = enc.Intern(u.offerID.S)
			u.devAcct = enc.Intern(u.devAcct.S)
			u.iipAcct = enc.Intern(u.iipAcct.S)
			u.poolAcct = enc.Intern(u.poolAcct.S)
		}
	}
	return nil
}

// checkLogTables spot-checks that the writer's tables put this world's
// devices and packages where the engine's table IDs say: the same device
// count, and the first and last name of each list at its position.
func (e *engine) checkLogTables(w *stream.Writer) error {
	at := func(tab map[string]uint32, list []string, i int) bool {
		id, ok := tab[list[i]]
		return ok && id == uint32(i)
	}
	ends := func(tab map[string]uint32, list []string) bool {
		return len(list) == 0 || at(tab, list, 0) && at(tab, list, len(list)-1)
	}
	names := &e.w.InstallLog.names
	if len(w.DeviceTable()) != len(names.devs) || !ends(w.DeviceTable(), names.devs) || !ends(w.StringTable(), names.pkgs) {
		return fmt.Errorf("sim: the run log's name tables are not this world's (open it with NewRunLog or ResumeRunLog after the last app is published)")
	}
	return nil
}

// iipNames are the names every campaign on one IIP shares. Its slices
// are one backing array, shared by all the IIP's units; each unit keeps
// its own copy of noAffAcct.
type iipNames struct {
	devs      []stream.Ref // each pool worker's device ID, parallel to the pool
	poolAccts []stream.Ref // "user:<worker.ID>", parallel to the pool
	affAccts  []stream.Ref // "affiliate:<pkg>" per instrumented affiliate
	noAffAcct stream.Ref   // fallback when the IIP has no instrumented affiliates
}

// newIIPNames builds the shared names of the IIP called name, each pool
// device with its position in devIdx (the run log's device table) as its
// ID; a device devIdx lacks keeps ID 0 and is written inline.
func (w *World) newIIPNames(name string, devIdx map[string]uint32) iipNames {
	pool := w.Pools[name]
	// Affiliate accounts come from the world's per-IIP cache when present
	// (the standard platforms); any other platform name is resolved here,
	// so hand-assembled worlds never post to empty account names.
	affAccts, ok := w.affAcctByIIP[name]
	if !ok {
		for _, a := range w.AffiliatesForIIP(name) {
			affAccts = append(affAccts, mediator.AffiliateAccount(a.Package))
		}
	}
	np := len(pool)
	refs := make([]stream.Ref, 2*np+len(affAccts))
	n := iipNames{devs: refs[:np:np], poolAccts: refs[np : 2*np : 2*np], affAccts: refs[2*np:]}
	for i, wk := range pool {
		n.devs[i] = stream.Ref{S: wk.ID}
		if id, ok := devIdx[wk.ID]; ok {
			n.devs[i].ID = id + 1
		}
		n.poolAccts[i] = stream.Ref{S: mediator.UserAccount(wk.ID)}
	}
	for i, acct := range affAccts {
		n.affAccts[i] = stream.Ref{S: acct}
	}
	n.noAffAcct.S = w.noAffAcctByIIP[name]
	if n.noAffAcct.S == "" {
		n.noAffAcct.S = mediator.AffiliateAccount("uninstrumented." + name)
	}
	return n
}

// resolveUnit turns one planned campaign into a fully resolved work unit,
// taking its IIP's shared names from names (and adding them on the IIP's
// first campaign, with their device IDs from devIdx).
func (e *engine) resolveUnit(c *PlannedCampaign, names map[string]iipNames, devIdx map[string]uint32) (*campUnit, error) {
	w := e.w
	platform := w.Platforms[c.IIP]
	if platform == nil {
		return nil, fmt.Errorf("sim: campaign %s on unknown platform %s", c.OfferID, c.IIP)
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
	pkg, ok := e.unitOf[c.App]
	if !ok {
		return nil, fmt.Errorf("sim: resolving campaign %s: app %s is not in the engine's catalog", c.OfferID, c.App)
	}
	shared, ok := names[c.IIP]
	if !ok {
		shared = w.newIIPNames(c.IIP, devIdx)
		names[c.IIP] = shared
	}
	strat, err := scenario.NewStrategy(w.Cfg.Adversary, w.Cfg.Seed, c.OfferID)
	if err != nil {
		return nil, fmt.Errorf("sim: campaign %s: %w", c.OfferID, err)
	}
	return &campUnit{
		c:        c,
		r:        randx.Derive(w.Cfg.Seed, "engine/campaign/"+c.OfferID),
		app:      app,
		offer:    offer,
		session:  session,
		pool:     w.Pools[c.IIP],
		iipNames: shared,
		paceCap:  platform.DailyPace(),
		strat:    strat,
		pkg:      stream.Ref{ID: uint32(pkg) + 1, S: c.App},
		offerID:  stream.Ref{S: c.OfferID},
		devAcct:  stream.Ref{S: mediator.DeveloperAccount(c.Spec.Developer)},
		iipAcct:  stream.Ref{S: mediator.IIPAccount(c.IIP)},
		poolAcct: stream.Ref{S: mediator.UserAccount("pool-" + c.IIP)},
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
		if i, ok := e.unitOf[c.Package]; ok {
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
