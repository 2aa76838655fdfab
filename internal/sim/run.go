package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dates"
	"repro/internal/iip"
	"repro/internal/mediator"
	"repro/internal/offers"
	"repro/internal/playstore"
	"repro/internal/randx"
	"repro/internal/stream"
)

// RunStats summarizes one full simulation run.
type RunStats struct {
	Days                 int
	OrganicInstalls      int64
	IncentivizedInstalls int64
	CertifiedCompletions int64
	RevenueUSD           float64
}

// Run executes the day engine over the configured window: organic store
// activity, campaign deliveries through the mediator and ledger, and daily
// chart/enforcement steps. Run is deterministic for a given world — the
// same seed produces identical results for any Cfg.Workers setting and
// any GOMAXPROCS (see engine.go for the determinism model).
func (w *World) Run() (RunStats, error) {
	return w.RunOpts(RunOptions{})
}

// RunWithHook runs the day engine, invoking hook after each day's
// activity and chart/enforcement step. The measurement pipelines (crawler,
// offer-wall milker) attach here, observing the world exactly as the
// paper's infrastructure observed the live ecosystem.
func (w *World) RunWithHook(hook func(day dates.Date) error) (RunStats, error) {
	return w.RunOpts(RunOptions{Hook: hook})
}

// RunOptions extends a run with the event-sourced run log, day-boundary
// checkpoints, and resume (DESIGN.md E6).
type RunOptions struct {
	// Hook runs after each day's activity, chart/enforcement step, and
	// event-log flush (so a hook tailing the log observes the full day).
	Hook func(day dates.Date) error

	// Installs, when non-nil, receives every incentivized install record
	// of the run exactly once, in install-log order, resumed or not. A
	// resumed run first hands over the install log Resume restored, in
	// batches of at most 4096 records. Then, at each day barrier, it hands
	// over the day's records as the install log takes them: one call per
	// developer group that installed, before the day's log flush and
	// Hook. Concatenated over a run, the calls yield the whole install
	// log, for any worker count and with the log on or off. The slice is
	// reused once the call returns. An error stops the run. Observation
	// only, like Hook: the engine reads nothing back.
	Installs func(recs []InstallRecord) error

	// Log, when non-nil, receives the framed event stream. Open it with
	// World.NewRunLog (fresh run) or stream.ResumeWriter (resumed run).
	Log *stream.Writer

	// Checkpoint, when non-nil, receives a day-boundary checkpoint every
	// CheckpointEvery days (counted from the window start, so a resumed
	// run checkpoints on the same days the original would have). cp's
	// install history is a live view of the world's install log
	// (stream.Installs): write or encode cp in the callback or after the
	// run returns, never from another goroutine while the run goes on,
	// and before the log is next reset (Restore) or closed. Encode's
	// bytes, or DecodeCheckpoint of them, are a copy that lasts.
	Checkpoint      func(cp *stream.Checkpoint) error
	CheckpointEvery int // days between checkpoints; <= 0 means every day

	// Resume continues a killed run from a checkpoint: world state is
	// restored, every engine stream is fast-forwarded, and the day loop
	// starts after the checkpointed day. The world must have been built
	// from the same Config as the checkpointed run. With Log attached via
	// stream.ResumeWriter at the checkpoint's LogOffset, the remaining
	// event log is byte-identical to what the uninterrupted run would
	// have written.
	Resume *stream.Checkpoint

	// Metrics, when non-nil, attaches run instrumentation (NewMetrics):
	// per-day phase timings, event counts, checkpoint latency, and trace
	// spans. Observation only — the engine never reads it, so metrics on
	// vs off produces bit-identical stats, log bytes, and checkpoints.
	Metrics *Metrics

	// Context, when non-nil, makes the run cancellable. Cancellation is
	// observed only at day barriers — after the day's frames are flushed
	// and the hook has run — so a cancelled run never stops mid-write:
	// the log ends at a day boundary, and when Checkpoint is set a final
	// checkpoint for the completed day is written (even off the
	// CheckpointEvery cadence) before the run returns an error wrapping
	// context.Canceled. A successor resumes from that checkpoint and
	// produces the exact bytes the uninterrupted run would have.
	Context context.Context
}

// RunOpts runs the day engine with the given options.
func (w *World) RunOpts(o RunOptions) (RunStats, error) {
	var stats RunStats
	start := w.Cfg.Window.Start
	if o.Resume != nil {
		if w.restored != o.Resume {
			if err := w.Restore(o.Resume); err != nil {
				return stats, err
			}
		}
		// Consume the restore marker: if this run fails mid-window and the
		// caller retries with the same checkpoint, the retry must restore
		// afresh rather than run on top of partially-applied days.
		w.restored = nil
		stats = RunStats{
			Days:                 int(o.Resume.Days),
			OrganicInstalls:      o.Resume.OrganicInstalls,
			IncentivizedInstalls: o.Resume.IncentivizedInstalls,
			CertifiedCompletions: o.Resume.CertifiedCompletions,
			RevenueUSD:           o.Resume.RevenueUSD,
		}
		start = o.Resume.Day.AddDays(1)
	}
	eng, err := newEngine(w)
	if err != nil {
		return stats, err
	}
	if o.Resume != nil {
		if err := eng.restoreStreams(o.Resume); err != nil {
			return stats, err
		}
	}
	if o.Log != nil {
		eng.enableLog(o.Log)
	}
	if o.Resume != nil && o.Installs != nil {
		if err := w.deliverRestored(o.Installs); err != nil {
			return stats, err
		}
	}
	eng.obs = o.Metrics
	eng.installs = o.Installs
	m := o.Metrics
	every := o.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	for day := start; day <= w.Cfg.Window.End; day++ {
		var dayT0, t time.Time
		if m != nil {
			dayT0 = time.Now()
		}
		if err := eng.stepDay(day, &stats); err != nil {
			return stats, err
		}
		if m != nil {
			t = time.Now()
		}
		w.Store.StepDay(day)
		if m != nil {
			t = m.phase("step-day", day, m.PhaseStepDay, t)
		}
		stats.Days++
		if o.Log != nil {
			if err := w.logDayBarrier(o.Log, day, &stats); err != nil {
				return stats, err
			}
			// Segment rotation: once the current segment exceeds the
			// writer's threshold, open the next one with an embedded
			// reduced checkpoint so seeks restore here instead of
			// replaying from the base snapshot. The decision depends only
			// on deterministic byte offsets, so segment frames land at
			// identical offsets for any worker count and across resume.
			if day < w.Cfg.Window.End && o.Log.ShouldRotate() {
				if err := o.Log.StartSegment(day.AddDays(1), w.segmentCheckpoint(day, &stats).Encode()); err != nil {
					return stats, err
				}
				if err := o.Log.Flush(); err != nil {
					return stats, err
				}
			}
			if m != nil {
				m.phase("barrier-flush", day, m.PhaseBarrier, t)
			}
		}
		if o.Hook != nil {
			if err := o.Hook(day); err != nil {
				return stats, fmt.Errorf("sim: hook on %s: %w", day, err)
			}
		}
		canceled := o.Context != nil && o.Context.Err() != nil
		due := o.Checkpoint != nil && (day.DaysSince(w.Cfg.Window.Start)+1)%every == 0
		// A cancelled run checkpoints the day it just completed even off
		// the cadence: the whole point of stopping at the barrier is that
		// a successor can resume from here.
		if due || (canceled && o.Checkpoint != nil && day < w.Cfg.Window.End) {
			var cpT0 time.Time
			if m != nil {
				cpT0 = time.Now()
			}
			var off int64
			if o.Log != nil {
				off = o.Log.Offset()
			}
			cp, err := eng.checkpoint(day, stats, off)
			if err != nil {
				return stats, err
			}
			if o.Log != nil {
				o.Log.RecordSegmentState(cp)
			}
			if err := o.Checkpoint(cp); err != nil {
				return stats, fmt.Errorf("sim: checkpoint on %s: %w", day, err)
			}
			if m != nil {
				m.Checkpoints.Inc()
				m.phase("checkpoint", day, m.CheckpointSeconds, cpT0)
			}
		}
		if m != nil {
			end := time.Now()
			m.Days.Inc()
			m.DaySeconds.Observe(end.Sub(dayT0).Seconds())
			m.Trace.Record("day", day.String(), dayT0, end.Sub(dayT0))
		}
		if canceled && day < w.Cfg.Window.End {
			return stats, fmt.Errorf("sim: run canceled at day barrier %s (%d days done): %w",
				day, stats.Days, o.Context.Err())
		}
	}
	return stats, nil
}

// restoredBatch caps the records of one Installs call that hands over a
// resumed run's restored install log.
const restoredBatch = 1 << 12

// deliverRestored hands the install log a resume restored to fn, in
// order, in batches of at most restoredBatch records through one reused
// buffer, so a spilled history is never held in RAM at once.
func (w *World) deliverRestored(fn func([]InstallRecord) error) error {
	buf := make([]InstallRecord, 0, min(restoredBatch, w.InstallLog.Len()))
	for rec := range w.InstallLog.All() {
		buf = append(buf, rec)
		if len(buf) == restoredBatch {
			if err := fn(buf); err != nil {
				return fmt.Errorf("sim: restored installs: %w", err)
			}
			buf = buf[:0]
		}
	}
	if err := w.InstallLog.Err(); err != nil {
		return fmt.Errorf("sim: reading the restored install log: %w", err)
	}
	if len(buf) > 0 {
		if err := fn(buf); err != nil {
			return fmt.Errorf("sim: restored installs: %w", err)
		}
	}
	return nil
}

// logDayBarrier writes the barrier-side events of a completed day — the
// enforcement actions and charts StepDay just computed, and the
// cumulative-stats day-end line — then flushes so tail consumers observe
// whole days.
func (w *World) logDayBarrier(log *stream.Writer, day dates.Date, stats *RunStats) error {
	for _, act := range w.Store.LastEnforcementActions() {
		if err := log.Event(&stream.Event{Kind: stream.KindEnforce, Pkg: act.Package, N: act.Removed}); err != nil {
			return err
		}
	}
	for _, name := range playstore.ChartNames {
		if err := log.Event(&stream.Event{Kind: stream.KindChart, Chart: name, Entries: w.Store.Chart(name)}); err != nil {
			return err
		}
	}
	if err := log.Event(&stream.Event{Kind: stream.KindDayEnd, Day: day,
		CumOrganic: stats.OrganicInstalls, CumIncent: stats.IncentivizedInstalls,
		CumCertified: stats.CertifiedCompletions, CumRevenue: stats.RevenueUSD}); err != nil {
		return err
	}
	return log.Flush()
}

// segmentCheckpoint builds the reduced checkpoint embedded in a segment
// index frame: the store snapshot, the ledger's balances and cumulative
// stats at the end of day. Unlike a full resume checkpoint it omits the
// transfer history, the mediator and platform blobs, the RNG streams,
// and the install log — a seeking replay needs none of them (it rebuilds
// the history from the log's settle records, the certified count rides
// as a scalar, and charts/enforcement recompute from the store snapshot).
func (w *World) segmentCheckpoint(day dates.Date, stats *RunStats) *stream.Checkpoint {
	return &stream.Checkpoint{
		Day:                  day,
		Days:                 int64(stats.Days),
		OrganicInstalls:      stats.OrganicInstalls,
		IncentivizedInstalls: stats.IncentivizedInstalls,
		CertifiedCompletions: stats.CertifiedCompletions,
		RevenueUSD:           stats.RevenueUSD,
		Store:                w.Store.EncodeSnapshot(),
		Ledger:               w.Ledger.EncodeBalances(),
	}
}

// fullFidelityPerDay bounds how many of a campaign's daily completions run
// through the full per-worker flow (click tracking, telemetry-grade
// behaviour, individual ledger postings); the remainder settles through
// the batch paths with identical aggregate effects.
const fullFidelityPerDay = 8

// purchaseAmounts are the in-app purchase price points drawn by offer
// completions, hoisted to package scope so the delivery hot path never
// allocates the literal slice per draw.
var purchaseAmounts = [...]float64{0.99, 1.99, 2.99, 4.99, 9.99}

// campaignDay delivers one campaign's completions for one day. It draws
// only from u.r (the campaign's own stream) and writes money movements and
// install-log records only into sink, so campaigns of different
// developers can run concurrently. The advertised app's shard lock is
// taken once around the whole day's deliveries — the determinism model
// guarantees this unit is the app's only writer during the phase, so the
// lock provides visibility and whole-shard-reader exclusion, not
// per-event ordering.
//
// Delivery behaviour is the unit's adversary strategy: the day's quota
// (demand within the platform's pace), the workers fulfilling it, the
// device identities they present, and any faked retention sessions all
// come from u.strat, which draws only from u.r — the baseline strategy
// reproduces the pre-scenario engine draw for draw.
func (w *World) campaignDay(u *campUnit, day dates.Date, sink *unitSink) error {
	c := u.c
	if !c.Spec.Window.Contains(day) {
		return nil
	}
	// Demand-limited delivery, capped by the platform's pacing (inside
	// the strategy) and by the campaign's remaining purchased completions.
	n := u.strat.Quota(u.r, day, c.DailyUptake, u.paceCap)
	if remaining := u.offer.Remaining(); n > remaining {
		n = remaining
	}
	if n <= 0 {
		return nil
	}
	u.app.Lock()
	defer u.app.Unlock()
	full := n
	if full > fullFidelityPerDay {
		full = fullFidelityPerDay
	}
	delivered := 0
	for i := 0; i < full; i++ {
		done, err := w.deliverOne(u, day, sink)
		if err != nil {
			return err
		}
		if !done {
			full = i
			break
		}
		sink.delivered++
		delivered++
	}
	if bulk := n - full; bulk > 0 && full == fullFidelityPerDay {
		settled, err := w.deliverBatch(u, day, bulk, sink)
		if err != nil {
			return err
		}
		sink.delivered += int64(settled)
		delivered += settled
	}
	// Retention-faking sessions (organic-mimic): recorded on the
	// advertised app under the same shard lock, after the day's
	// deliveries. The baseline strategy reports none and draws nothing.
	if delivered > 0 {
		if rs, rsec := u.strat.Retention(u.r, day, delivered); rs > 0 {
			sink.sessions(u, day, rs, rsec)
		}
	}
	return nil
}

// deliverBatch settles n completions through the batch paths: aggregate
// store installs and sessions, one money split, one certification batch.
// The caller holds the advertised app's shard lock.
func (w *World) deliverBatch(u *campUnit, day dates.Date, n int, sink *unitSink) (int, error) {
	c := u.c
	disb, settled, err := u.offer.RecordCompletions(day, n)
	if err != nil || settled == 0 {
		return 0, err
	}
	// Mean fraud score of the pool approximates the batch's devices,
	// sampled through the strategy so sub-pool partitions (sybil-split)
	// are reflected in what the install filter sees.
	meanFraud := 0.0
	for i := 0; i < 16; i++ {
		meanFraud += u.pool[u.strat.PickWorker(u.r, day, len(u.pool))].FraudScore()
	}
	meanFraud = meanFraud/16 + c.Botness
	sink.installBatch(u, day, settled, meanFraud)
	seconds, purchase := engagementFor(u.r, c.Spec.Type)
	if seconds > 0 {
		sink.sessions(u, day, int64(settled), seconds)
	}
	if purchase > 0 {
		sink.purchase(u, day, purchase*float64(settled))
	}
	// The offer's completion requirement was validated when the unit's
	// click session was resolved; the certified count merges through the
	// sink at the day barrier.
	sink.certified += int64(settled)
	if err := sink.settle(w, u, u.poolAcct, settled, true, disb); err != nil {
		return 0, err
	}
	return settled, nil
}

// engagementFor returns the mean session seconds and per-user purchase
// amount generated by completing an offer of the given type.
func engagementFor(r *randx.Rand, t offers.Type) (seconds int64, purchaseUSD float64) {
	switch t {
	case offers.Usage:
		return int64(300 + r.IntN(1200)), 0
	case offers.Registration:
		return int64(120 + r.IntN(240)), 0
	case offers.Purchase:
		return int64(180 + r.IntN(600)), purchaseAmounts[r.IntN(len(purchaseAmounts))]
	default:
		return int64(30 + r.IntN(60)), 0
	}
}

// deliverOne runs a single worker through the full Figure 1 flow: click
// tracking, install, in-app events, certification, settlement, and payout.
// It returns false (and no error) when the campaign cannot accept more
// completions. The caller holds the advertised app's shard lock; every
// other structure it touches (click session, settlement handle, sink) is
// owned by this unit's goroutine, so no per-event lock is taken anywhere.
func (w *World) deliverOne(u *campUnit, day dates.Date, sink *unitSink) (bool, error) {
	c := u.c
	wi, dev := u.pickWorker(day)
	worker := u.pool[wi]
	click := sink.click(u, day, dev)

	// The install lands on the store regardless of engagement quality;
	// bot-farm fulfillment raises the device-reputation penalty.
	sink.install(u, day, dev, worker.FraudScore()+c.Botness)

	// In-app behaviour. For no-activity offers on sloppy platforms the
	// completion may be claimed without a real open (RankApp's missing
	// telemetry), but activity offers force the worker through the task.
	opened := worker.OpenProb >= 1 || u.r.Bool(worker.OpenProb) || c.Spec.Type.IsActivity()
	if opened {
		if err := sink.postback(u, click, mediator.EventOpen); err != nil {
			return false, err
		}
		seconds := int64(30 + u.r.IntN(60))
		var err error
		switch c.Spec.Type {
		case offers.Usage:
			seconds = int64(300 + u.r.IntN(1200))
			err = sink.postback(u, click, mediator.EventUsage)
		case offers.Registration:
			seconds = int64(120 + u.r.IntN(240))
			err = sink.postback(u, click, mediator.EventRegister)
		case offers.Purchase:
			seconds = int64(180 + u.r.IntN(600))
			sink.purchase(u, day, purchaseAmounts[u.r.IntN(len(purchaseAmounts))])
			err = sink.postback(u, click, mediator.EventPurchase)
		}
		if err != nil {
			return false, err
		}
		sink.sessions(u, day, 1, seconds)
	}

	// Certification: activity offers certify via their task postback
	// above; no-activity offers certify on open — or, on lax platforms,
	// through a spoofed postback even without an open.
	if c.Spec.Type == offers.NoActivity && !opened {
		if err := sink.postback(u, click, mediator.EventOpen); err != nil {
			return false, err
		}
	}

	// Settlement through the platform handle and the ledger.
	disb, err := u.offer.RecordCompletion(day)
	if err != nil {
		// Target reached or balance exhausted: stop delivering.
		return false, nil
	}
	if err := sink.settle(w, u, u.poolAccts[wi], 1, false, disb); err != nil {
		return false, err
	}
	return true, nil
}

// unitSink collects one campaign group's side effects for deterministic
// merging at the day barrier, and is the one place the delivery flow
// names each action: every method below does the store, mediator or
// ledger write and appends the matching run-log record, so the flow above
// reads as Figure 1 and each record is written beside the write it
// describes.
type unitSink struct {
	txs       mediator.TxBuffer
	log       []InstallRecord
	delivered int64
	certified int64
	// enc buffers the group's run-log events; it is nil when event
	// logging is disabled, and each method then skips its encoding.
	enc *stream.Encoder
}

// click tracks a worker's offer-wall click.
func (s *unitSink) click(u *campUnit, day dates.Date, dev stream.Ref) mediator.ClickRef {
	click := u.session.TrackClick(dev.S, day)
	if s.enc != nil {
		s.enc.Click(u.offerID, dev)
	}
	return click
}

// install records one full-fidelity incentivized install on the store
// and in the install log.
func (s *unitSink) install(u *campUnit, day dates.Date, dev stream.Ref, fraud float64) {
	u.app.RecordInstallLocked(playstore.Install{
		Day:        day,
		Source:     playstore.SourceReferral,
		FraudScore: fraud,
	})
	s.log = append(s.log, InstallRecord{Device: dev.S, App: u.pkg.S, Day: day})
	if s.enc != nil {
		s.enc.Install(u.pkg, dev, fraud)
	}
}

// installBatch records n batch-path installs: one aggregate store write,
// then one device drawn per install (u.pickWorker) into the install log
// and the logged batch. With the log on, the encoder draws each device
// as it writes it, so no per-device scratch is kept.
func (s *unitSink) installBatch(u *campUnit, day dates.Date, n int, meanFraud float64) {
	u.app.RecordInstallBatchLocked(day, int64(n), playstore.SourceReferral, meanFraud)
	next := func(int) stream.Ref {
		_, dev := u.pickWorker(day)
		s.log = append(s.log, InstallRecord{Device: dev.S, App: u.pkg.S, Day: day})
		return dev
	}
	if s.enc != nil {
		s.enc.InstallBatch(u.pkg, meanFraud, n, next)
		return
	}
	for i := 0; i < n; i++ {
		next(i)
	}
}

// postback reports an SDK event to the click's session, counting a
// certification the barrier merges into the mediator.
func (s *unitSink) postback(u *campUnit, click mediator.ClickRef, event mediator.EventType) error {
	ok, err := u.session.Postback(click, event)
	if err != nil {
		return err
	}
	if ok {
		s.certified++
	}
	if s.enc != nil {
		s.enc.Postback(u.offerID, uint8(event), ok)
	}
	return nil
}

// sessions records n app-usage sessions of secPer seconds each.
func (s *unitSink) sessions(u *campUnit, day dates.Date, n, secPer int64) {
	u.app.RecordSessionBatchLocked(day, n, secPer)
	if s.enc != nil {
		s.enc.Session(u.pkg, n, secPer)
	}
}

// purchase records in-app purchase revenue.
func (s *unitSink) purchase(u *campUnit, day dates.Date, usd float64) {
	u.app.RecordPurchaseLocked(playstore.Purchase{Day: day, USD: usd})
	if s.enc != nil {
		s.enc.Purchase(u.pkg, usd)
	}
}

// settle buffers the four ledger legs of n completions paid out to user,
// crediting an affiliate drawn from u.r. A batch settlement is logged
// after its bulk certification.
func (s *unitSink) settle(w *World, u *campUnit, user stream.Ref, n int, batch bool, disb iip.Disbursement) error {
	aff := u.pickAffiliateAccount()
	legs := mediator.Settlement{
		Developer: u.devAcct.S, IIP: u.iipAcct.S, Affiliate: aff.S, User: user.S, Mediator: w.medAcct,
		N: int64(n), Batch: batch,
		Gross: disb.Gross, AffiliateCut: disb.AffiliateCut, UserPayout: disb.UserPayout, FeePer: w.Mediator.FeePerUser,
	}.Legs()
	if err := s.txs.PostAll(legs[:]); err != nil {
		return err
	}
	if s.enc != nil {
		if batch {
			s.enc.CertifyBatch(u.offerID, int64(n))
		}
		s.enc.Settle(u.offerID, int64(n), batch, disb.Gross, disb.AffiliateCut, disb.UserPayout,
			u.devAcct, u.iipAcct, aff, user)
	}
	return nil
}
