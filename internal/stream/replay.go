package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/dates"
	"repro/internal/mediator"
	"repro/internal/playstore"
)

// ErrReplayDiverged reports that replayed state disagreed with a
// verification record in the log (chart snapshot, enforcement action, or
// day-end stat line) — either the log is corrupt or determinism broke.
var ErrReplayDiverged = errors.New("stream: replay diverged from logged run")

// ReplayStats mirrors the simulator's RunStats, accumulated from events.
type ReplayStats struct {
	Days                 int
	OrganicInstalls      int64
	IncentivizedInstalls int64
	CertifiedCompletions int64
	RevenueUSD           float64
}

// ReplayResult is the world state rebuilt from a run log: the store (with
// charts and enforcement recomputed through the live code paths), the
// ledger (every balance bit-exact, the transfer history in posting
// order), and the run stats. The install records are not kept: the log
// holds them, and a reader that wants them walks it (Reader and
// Event.Installs). InstallRecords counts the records the replay applied.
type ReplayResult struct {
	Header         Header
	Stats          ReplayStats
	Store          *playstore.Store
	Ledger         *mediator.Ledger
	InstallRecords int64
}

// Replay rebuilds the run's state from the log alone. The base snapshot
// seeds the store/ledger; every event is applied through the same
// playstore/mediator record methods the live engine used, in the same
// canonical order, and each day boundary recomputes charts and
// enforcement via Store.StepDay — so every float bit matches the live
// run. Logged chart snapshots, enforcement actions, and day-end stat
// lines are verified against the recomputation as it goes; any
// disagreement fails with ErrReplayDiverged.
//
// A log that ends mid-day (a killed run) replays up to the last complete
// frame and then returns io.ErrUnexpectedEOF wrapped in the error; state
// up to the last completed day is valid.
func Replay(r io.Reader) (*ReplayResult, error) {
	lr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return replayFrames(lr)
}

func replayFrames(lr *Reader) (*ReplayResult, error) {
	st, err := baseReplayState(lr.Header(), lr.Base())
	if err != nil {
		return nil, err
	}
	return replayLoop(lr, st, 0, false)
}

// baseReplayState builds the replay starting point from the run-start
// base snapshot.
func baseReplayState(hdr Header, base Base) (*replayState, error) {
	store, err := playstore.DecodeSnapshot(base.Store)
	if err != nil {
		return nil, fmt.Errorf("stream: replay base store: %w", err)
	}
	ledger, err := baseLedger(base)
	if err != nil {
		return nil, err
	}
	// The mediator snapshot contributes the pre-run certified count (the
	// day-end stat lines report the mediator's absolute total).
	med := mediator.New(hdr.MediatorName)
	if err := med.RestoreSnapshot(base.Mediator); err != nil {
		return nil, fmt.Errorf("stream: replay base mediator: %w", err)
	}
	res := &ReplayResult{Header: hdr, Store: store, Ledger: ledger}
	return &replayState{
		hdr:       hdr,
		res:       res,
		certified: int64(med.Certified()),
		medAcct:   mediator.MediatorAccount(hdr.MediatorName),
	}, nil
}

// baseLedger restores the ledger of the run-start base snapshot.
func baseLedger(base Base) (*mediator.Ledger, error) {
	ledger := mediator.NewLedger()
	if err := ledger.RestoreSnapshot(base.Ledger); err != nil {
		return nil, fmt.Errorf("stream: replay base ledger: %w", err)
	}
	return ledger, nil
}

// segmentReplayState builds the replay starting point at segment i: the
// store snapshot and cumulative stats its embedded reduced checkpoint
// holds (its index frame re-read and CRC-checked), and the ledger
// rebuilt from the base snapshot plus every settle record before the
// segment frame, history included. The rebuilt balances must equal the
// balances the segment embeds, bit for bit, or the log disagrees with
// itself (ErrReplayDiverged). A segment frame that embeds the full
// history (as logs written before balances-only frames do) is read the
// same way: its history is ignored. The mediator's absolute certified
// count rides the checkpoint as a scalar, so the full mediator snapshot
// is not needed.
func segmentReplayState(r io.ReaderAt, idx *LogIndex, i int) (*replayState, error) {
	seg := idx.Segments[i]
	// The checkpoint views c's frame buffer, which the settle walk below
	// reuses: its store and ledger are decoded (copied) before the walk.
	c := newCursor(r)
	cp, err := c.segmentCheckpoint(seg.FrameOff)
	if err != nil {
		return nil, fmt.Errorf("stream: segment checkpoint: %w", err)
	}
	store, err := playstore.DecodeSnapshot(cp.Store)
	if err != nil {
		return nil, fmt.Errorf("stream: segment checkpoint store: %w", err)
	}
	embedded := mediator.NewLedger()
	embedded.DisableTxLog()
	if err := embedded.RestoreSnapshot(cp.Ledger); err != nil {
		return nil, fmt.Errorf("stream: segment checkpoint ledger: %w", err)
	}
	ledger, err := baseLedger(idx.Base)
	if err != nil {
		return nil, err
	}
	medAcct := mediator.MediatorAccount(idx.Header.MediatorName)
	c.hdr, c.base, c.off = idx.Header, idx.Base, idx.Segments[0].DataOff
	err = c.walkHistory(seg.FrameOff, 1<<KindSettle, func(ev *Event) error {
		legs := ev.settlement(idx.Header, medAcct).Legs()
		if err := ledger.PostAll(legs[:]); err != nil {
			return replayErr(ev, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("stream: rebuilding the ledger before segment %d: %w", seg.Ordinal, err)
	}
	if !bytes.Equal(ledger.EncodeBalances(), embedded.EncodeBalances()) {
		return nil, fmt.Errorf("%w: ledger rebuilt from the settle records before segment %d disagrees with its embedded balances",
			ErrReplayDiverged, seg.Ordinal)
	}
	res := &ReplayResult{Header: idx.Header, Store: store, Ledger: ledger}
	res.Stats = ReplayStats{
		Days:                 int(cp.Days),
		OrganicInstalls:      cp.OrganicInstalls,
		IncentivizedInstalls: cp.IncentivizedInstalls,
		CertifiedCompletions: cp.CertifiedCompletions,
		RevenueUSD:           cp.RevenueUSD,
	}
	return &replayState{
		hdr:       idx.Header,
		res:       res,
		certified: cp.CertifiedCompletions,
		medAcct:   medAcct,
	}, nil
}

// replayLoop applies events from lr until the log ends or, with haveUntil,
// until the day-end frame of until has been applied and verified.
func replayLoop(lr *Reader, st *replayState, until dates.Date, haveUntil bool) (*ReplayResult, error) {
	res := st.res
	lr.c.checkDays = true
	var ev Event
	for {
		if err := lr.Next(&ev); err != nil {
			if err == io.EOF {
				if haveUntil {
					return res, fmt.Errorf("stream: day %s not in log", until)
				}
				return res, nil
			}
			if err == io.ErrUnexpectedEOF {
				return res, fmt.Errorf("stream: run log ends mid-frame (killed run): %w", err)
			}
			return nil, err
		}
		if err := st.apply(&ev, lr.Day()); err != nil {
			return nil, err
		}
		if haveUntil && ev.Kind == KindDayEnd && ev.Day == until {
			return res, nil
		}
	}
}

// ReplayDay rebuilds the run's state through the end of day without
// replaying the whole log: it scans the seek directory (ScanIndex) and
// calls LogIndex.ReplayDay.
func ReplayDay(r io.ReaderAt, day dates.Date) (*ReplayResult, error) {
	idx, err := ScanIndex(r)
	if err != nil {
		return nil, err
	}
	return idx.ReplayDay(r, day)
}

// ReplayDay rebuilds the state through the end of day of the log r that
// idx indexes: it restores the store and stats from the latest segment
// checkpoint at or before the day, rebuilds the ledger from the settle
// records before that segment, and applies — with full verification —
// only that segment's events. Stats, the ledger with its history, and
// every store float are bit-exact; InstallRecords counts only the
// replayed segment's records.
func (idx *LogIndex) ReplayDay(r io.ReaderAt, day dates.Date) (*ReplayResult, error) {
	i := idx.Segment(day)
	seg := idx.Segments[i]
	var st *replayState
	var err error
	if i == 0 {
		st, err = baseReplayState(idx.Header, idx.Base)
	} else {
		st, err = segmentReplayState(r, idx, i)
	}
	if err != nil {
		return nil, err
	}
	sec := io.NewSectionReader(r, seg.DataOff, idx.End-seg.DataOff)
	lr := newSectionReader(sec, idx.Header, idx.Base)
	return replayLoop(lr, st, day, true)
}

// replayState carries what replay needs across a day's events; the
// reader tracks the day itself and holds the log to the day bracket.
type replayState struct {
	hdr       Header
	res       *ReplayResult
	certified int64  // absolute mediator count, matching the day-end lines
	medAcct   string // interned mediator ledger account for fee legs

	stepped   bool // Store.StepDay already ran for the current day
	enforced  []playstore.EnforceAction
	enforceAt int
}

// apply applies one event of day, which the reader has already checked
// against the day bracket.
func (st *replayState) apply(ev *Event, day dates.Date) error {
	res := st.res
	switch ev.Kind {
	case KindDayStart:
		st.stepped = false
		st.enforceAt = 0

	case KindOrganic:
		if ev.N > 0 {
			if err := res.Store.RecordInstallBatch(ev.Pkg, day, ev.N, playstore.SourceOrganic, ev.Fraud); err != nil {
				return replayErr(ev, err)
			}
		}
		if ev.DAU > 0 {
			if err := res.Store.RecordSessionBatch(ev.Pkg, day, ev.DAU, ev.Seconds); err != nil {
				return replayErr(ev, err)
			}
		}
		if ev.USD > 0 {
			if err := res.Store.RecordPurchase(ev.Pkg, playstore.Purchase{Day: day, USD: ev.USD}); err != nil {
				return replayErr(ev, err)
			}
		}
		res.Stats.OrganicInstalls += ev.N
		res.Stats.RevenueUSD += ev.USD

	case KindClick:
		// Clicks carry no store/ledger state; online consumers read them.

	case KindInstall:
		if err := res.Store.RecordInstall(ev.Pkg, playstore.Install{
			Day: day, Source: playstore.SourceReferral, FraudScore: ev.Fraud,
		}); err != nil {
			return replayErr(ev, err)
		}
		res.InstallRecords++

	case KindInstallBatch:
		if err := res.Store.RecordInstallBatch(ev.Pkg, day, ev.N, playstore.SourceReferral, ev.Fraud); err != nil {
			return replayErr(ev, err)
		}
		res.InstallRecords += ev.N

	case KindPostback:
		if ev.Certified {
			st.certified++
		}

	case KindCertifyBatch:
		st.certified += ev.N

	case KindSession:
		if err := res.Store.RecordSessionBatch(ev.Pkg, day, ev.N, ev.Seconds); err != nil {
			return replayErr(ev, err)
		}

	case KindPurchase:
		if err := res.Store.RecordPurchase(ev.Pkg, playstore.Purchase{Day: day, USD: ev.USD}); err != nil {
			return replayErr(ev, err)
		}

	case KindSettle:
		legs := ev.settlement(st.hdr, st.medAcct).Legs()
		if err := res.Ledger.PostAll(legs[:]); err != nil {
			return replayErr(ev, err)
		}
		res.Stats.IncentivizedInstalls += ev.N

	case KindEnforce:
		st.step(day)
		if st.enforceAt >= len(st.enforced) {
			return fmt.Errorf("%w: logged enforcement on %s not reproduced (day %s)", ErrReplayDiverged, ev.Pkg, day)
		}
		got := st.enforced[st.enforceAt]
		st.enforceAt++
		if got.Package != ev.Pkg || got.Removed != ev.N {
			return fmt.Errorf("%w: enforcement %s/-%d, log says %s/-%d (day %s)",
				ErrReplayDiverged, got.Package, got.Removed, ev.Pkg, ev.N, day)
		}

	case KindChart:
		st.step(day)
		got := res.Store.Chart(ev.Chart)
		if len(got) != len(ev.Entries) {
			return fmt.Errorf("%w: chart %s has %d entries, log says %d (day %s)",
				ErrReplayDiverged, ev.Chart, len(got), len(ev.Entries), day)
		}
		for i := range got {
			if got[i] != ev.Entries[i] {
				return fmt.Errorf("%w: chart %s rank %d is %+v, log says %+v (day %s)",
					ErrReplayDiverged, ev.Chart, i+1, got[i], ev.Entries[i], day)
			}
		}

	case KindDayEnd:
		st.step(day)
		if st.enforceAt != len(st.enforced) {
			return fmt.Errorf("%w: %d enforcement actions recomputed, %d logged (day %s)",
				ErrReplayDiverged, len(st.enforced), st.enforceAt, day)
		}
		res.Stats.Days++
		res.Stats.CertifiedCompletions = st.certified
		if ev.CumOrganic != res.Stats.OrganicInstalls ||
			ev.CumIncent != res.Stats.IncentivizedInstalls ||
			ev.CumCertified != res.Stats.CertifiedCompletions ||
			math.Float64bits(ev.CumRevenue) != math.Float64bits(res.Stats.RevenueUSD) {
			return fmt.Errorf("%w: day %s stats organic=%d incent=%d certified=%d revenue=%x, log says organic=%d incent=%d certified=%d revenue=%x",
				ErrReplayDiverged, day,
				res.Stats.OrganicInstalls, res.Stats.IncentivizedInstalls, res.Stats.CertifiedCompletions, math.Float64bits(res.Stats.RevenueUSD),
				ev.CumOrganic, ev.CumIncent, ev.CumCertified, math.Float64bits(ev.CumRevenue))
		}
	}
	return nil
}

// step runs the store's day step (charts + enforcement) exactly once per
// day, triggered by the first barrier-side event.
func (st *replayState) step(day dates.Date) {
	if st.stepped {
		return
	}
	st.res.Store.StepDay(day)
	st.enforced = st.res.Store.LastEnforcementActions()
	st.stepped = true
}

// settlement is the money of a settle event, as the live engine settled
// it: posting its Legs reproduces the live transfers to the bit. medAcct
// is the mediator's ledger account, which the header's mediator names.
func (ev *Event) settlement(hdr Header, medAcct string) mediator.Settlement {
	return mediator.Settlement{
		Developer: ev.DevAcct, IIP: ev.IIPAcct, Affiliate: ev.AffAcct, User: ev.UserAcct, Mediator: medAcct,
		N: ev.N, Batch: ev.Batch,
		Gross: ev.Gross, AffiliateCut: ev.AffCut, UserPayout: ev.UserPayout, FeePer: hdr.FeePerUser,
	}
}

func replayErr(ev *Event, err error) error {
	return fmt.Errorf("stream: replaying %s: %w", ev.Kind, err)
}
