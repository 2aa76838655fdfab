package stream

import (
	"fmt"
	"io"

	"repro/internal/dates"
)

// CompactStats reports what a compaction wrote.
type CompactStats struct {
	Days     int   // complete days carried over
	Segments int   // segment index frames written (0 = single implicit segment)
	OutBytes int64 // size of the compacted log
}

// Compact rewrites a run log in the current (v3) format: each day's unit
// events are coalesced into one event-batch frame (one CRC per batch
// instead of one per frame), and segment index frames with embedded
// checkpoints are inserted at day boundaries every segmentBytes bytes
// (0 uses DefaultSegmentBytes), making the output seekable with ReplayDay.
// The input may be any readable version — a v2 frame-per-event log is
// upgraded, a v3 log is re-segmented.
//
// The full replay verification machinery drives the rewrite: every event
// is applied to a live replay state as it is copied, so the embedded
// checkpoints are bit-exact and a corrupt or diverged input fails instead
// of producing a plausible-looking output. The embedded checkpoints carry
// the ledger's balances alone, as the live writer's do, so the replay
// state keeps no transfer history. A torn input (killed run) is
// rejected; resume the run or verify the prefix first.
func Compact(r io.Reader, out io.Writer, segmentBytes int64) (*CompactStats, error) {
	lr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	lr.c.checkDays = true
	hdr := lr.Header()
	hdr.Version = Version
	base := lr.Base()
	w, err := NewWriter(out, hdr, base)
	if err != nil {
		return nil, err
	}
	if segmentBytes > 0 {
		w.SetSegmentBytes(segmentBytes)
	}
	st, err := baseReplayState(hdr, base)
	if err != nil {
		return nil, err
	}
	st.res.Ledger.DisableTxLog()

	var batch Encoder
	batch.SetRecordMode(true)
	batch.SetDeviceTable(w.DeviceTable())
	batch.SetStringTable(w.StringTable())
	flush := func() error {
		if len(batch.Bytes()) == 0 {
			return nil
		}
		err := w.EventBatch(batch.Bytes())
		batch.Reset()
		return err
	}

	stats := &CompactStats{}
	var prevDay dates.Date
	var ev Event
	for {
		err := lr.Next(&ev)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("stream: compacting a log that ends mid-frame (killed run): %w", err)
		}
		if err != nil {
			return nil, err
		}
		switch {
		case ev.Kind == KindDayStart:
			if stats.Days > 0 && w.ShouldRotate() {
				cp := &Checkpoint{
					Day:                  prevDay,
					Days:                 int64(st.res.Stats.Days),
					OrganicInstalls:      st.res.Stats.OrganicInstalls,
					IncentivizedInstalls: st.res.Stats.IncentivizedInstalls,
					CertifiedCompletions: st.res.Stats.CertifiedCompletions,
					RevenueUSD:           st.res.Stats.RevenueUSD,
					Store:                st.res.Store.EncodeSnapshot(),
					Ledger:               st.res.Ledger.EncodeBalances(),
				}
				if err := w.StartSegment(ev.Day, cp.Encode()); err != nil {
					return nil, err
				}
				stats.Segments++
			}
			if err := w.DayStart(ev.Day); err != nil {
				return nil, err
			}
		case ev.Kind >= KindOrganic && ev.Kind <= KindSettle:
			if err := batch.Event(&ev); err != nil {
				return nil, err
			}
		default:
			// Barrier-side frames (enforce, chart, day-end) stay standalone;
			// the day's unit batch must land before them.
			if err := flush(); err != nil {
				return nil, err
			}
			if err := w.Event(&ev); err != nil {
				return nil, err
			}
			if ev.Kind == KindDayEnd {
				stats.Days++
				prevDay = ev.Day
			}
		}
		if err := st.apply(&ev, lr.Day()); err != nil {
			return nil, err
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	stats.OutBytes = w.Offset()
	return stats, nil
}
