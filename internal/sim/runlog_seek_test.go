package sim

import (
	"bytes"
	"io"
	"math"
	"testing"

	"repro/internal/stream"
)

// seekSegmentBytes forces several segment rotations inside the micro
// world's ~12-day log, so the seek tests cover segment boundaries without
// needing a scale-sized run.
const seekSegmentBytes = 8 << 10

// loggedRunSeg is loggedRun with a segment-rotation threshold applied to
// the writer before the run starts.
func loggedRunSeg(t *testing.T, cfg Config, o RunOptions, segBytes int64) ([]byte, RunStats, *World) {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	log, err := w.NewRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	log.SetSegmentBytes(segBytes)
	o.Log = log
	stats, err := w.RunOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats, w
}

// TestSegmentedRunLogIdenticalAcrossWorkerCounts extends the byte-identity
// contract to segmented logs: rotation decisions depend only on
// deterministic offsets, so segment frames (embedded checkpoints
// included) must land identically for any worker count.
func TestSegmentedRunLogIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := microConfig()
	cfg.Workers = 1
	serial, serialStats, _ := loggedRunSeg(t, cfg, RunOptions{}, seekSegmentBytes)
	cfg.Workers = 5
	parallel, parallelStats, _ := loggedRunSeg(t, cfg, RunOptions{}, seekSegmentBytes)
	if serialStats != parallelStats {
		t.Errorf("stats differ across worker counts: %+v vs %+v", serialStats, parallelStats)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("segmented log bytes differ across worker counts (%d vs %d bytes)", len(serial), len(parallel))
	}
	idx, err := stream.ScanIndex(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) < 2 {
		t.Fatalf("only %d segment(s) at a %d-byte threshold; test world too small to exercise rotation", len(idx.Segments), seekSegmentBytes)
	}
}

// TestReplayDayMatchesCheckpoints is the seek-correctness golden: for
// every day of a segmented run, ReplayDay must rebuild the exact
// store/ledger snapshots and cumulative stats the live run checkpointed
// at that day's barrier — while only applying one segment's events.
func TestReplayDayMatchesCheckpoints(t *testing.T) {
	cfg := microConfig()
	var cps []*stream.Checkpoint
	logBytes, stats, _ := loggedRunSeg(t, cfg, RunOptions{
		CheckpointEvery: 1,
		Checkpoint: func(cp *stream.Checkpoint) error {
			decoded, err := stream.DecodeCheckpoint(cp.Encode())
			if err != nil {
				return err
			}
			cps = append(cps, decoded)
			return nil
		},
	}, seekSegmentBytes)
	if len(cps) != stats.Days {
		t.Fatalf("captured %d checkpoints, want %d", len(cps), stats.Days)
	}

	// Full replay still works with segment and batch frames present.
	full, err := stream.Replay(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Days != stats.Days {
		t.Fatalf("full replay of segmented log: %d days, want %d", full.Stats.Days, stats.Days)
	}

	r := bytes.NewReader(logBytes)
	for _, cp := range cps {
		res, err := stream.ReplayDay(r, cp.Day)
		if err != nil {
			t.Fatalf("ReplayDay(%s): %v", cp.Day, err)
		}
		if int64(res.Stats.Days) != cp.Days ||
			res.Stats.OrganicInstalls != cp.OrganicInstalls ||
			res.Stats.IncentivizedInstalls != cp.IncentivizedInstalls ||
			res.Stats.CertifiedCompletions != cp.CertifiedCompletions ||
			math.Float64bits(res.Stats.RevenueUSD) != math.Float64bits(cp.RevenueUSD) {
			t.Errorf("ReplayDay(%s) stats %+v, checkpoint says days=%d organic=%d incent=%d certified=%d",
				cp.Day, res.Stats, cp.Days, cp.OrganicInstalls, cp.IncentivizedInstalls, cp.CertifiedCompletions)
		}
		if !bytes.Equal(res.Store.EncodeSnapshot(), cp.Store) {
			t.Errorf("ReplayDay(%s): store snapshot differs from checkpoint", cp.Day)
		}
		if !bytes.Equal(res.Ledger.EncodeSnapshot(), cp.Ledger) {
			t.Errorf("ReplayDay(%s): ledger snapshot differs from checkpoint", cp.Day)
		}
	}

	// Seeking to a day before the log's window fails loudly.
	if _, err := stream.ReplayDay(r, cps[len(cps)-1].Day.AddDays(5)); err == nil {
		t.Error("ReplayDay beyond the log succeeded, want error")
	}
}

// TestTailSeekToDayOnRealLog seeks a tail into the middle of a segmented
// run log and checks the delivered events pick up exactly at the
// requested day (crossing a segment boundary on the way).
func TestTailSeekToDayOnRealLog(t *testing.T) {
	cfg := microConfig()
	logBytes, stats, _ := loggedRunSeg(t, cfg, RunOptions{}, seekSegmentBytes)

	day := cfg.Window.Start.AddDays(stats.Days / 2)
	tail := stream.NewTail(bytes.NewReader(logBytes))
	ok, err := tail.SeekToDay(day)
	if err != nil || !ok {
		t.Fatalf("SeekToDay(%s) = %v, %v", day, ok, err)
	}
	var ev stream.Event
	days := 0
	for {
		ok, err := tail.Next(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if ev.Kind == stream.KindDayStart {
			want := day.AddDays(days)
			if ev.Day != want {
				t.Fatalf("day-start %s after seek, want %s", ev.Day, want)
			}
			days++
		}
	}
	if wantDays := stats.Days - stats.Days/2; days != wantDays {
		t.Fatalf("tail saw %d days after seeking to %s, want %d", days, day, wantDays)
	}
}

// TestResumeBitIdenticalSegmented reruns the kill/resume contract with
// segment rotation active: the checkpointed segmentation state must make
// a resumed writer place segment frames (and their embedded checkpoints)
// at the exact offsets of the uninterrupted run.
func TestResumeBitIdenticalSegmented(t *testing.T) {
	cfg := microConfig()
	var cps []*stream.Checkpoint
	liveLog, liveStats, liveWorld := loggedRunSeg(t, cfg, RunOptions{
		CheckpointEvery: 1,
		Checkpoint: func(cp *stream.Checkpoint) error {
			decoded, err := stream.DecodeCheckpoint(cp.Encode())
			if err != nil {
				return err
			}
			cps = append(cps, decoded)
			return nil
		},
	}, seekSegmentBytes)
	liveStore := liveWorld.Store.EncodeSnapshot()
	liveLedger := liveWorld.Ledger.EncodeSnapshot()

	for _, cp := range cps {
		w2, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rest bytes.Buffer
		stats2, err := w2.RunOpts(RunOptions{
			Resume: cp,
			Log:    w2.ResumeRunLog(&rest, cp),
		})
		if err != nil {
			t.Fatalf("resume from %s: %v", cp.Day, err)
		}
		if stats2 != liveStats {
			t.Errorf("resume from %s: stats %+v, want %+v", cp.Day, stats2, liveStats)
		}
		if !bytes.Equal(rest.Bytes(), liveLog[cp.LogOffset:]) {
			t.Errorf("resume from %s: remaining segmented log bytes differ (%d vs %d bytes)",
				cp.Day, rest.Len(), int64(len(liveLog))-cp.LogOffset)
		}
		if !bytes.Equal(w2.Store.EncodeSnapshot(), liveStore) {
			t.Errorf("resume from %s: final store differs", cp.Day)
		}
		if !bytes.Equal(w2.Ledger.EncodeSnapshot(), liveLedger) {
			t.Errorf("resume from %s: final ledger differs", cp.Day)
		}
	}
}

// TestSeekVsFullReplayAgreeOnLastDay pins the equivalence the seek
// benchmark relies on: state at the last day via ReplayDay equals the
// full replay's final state bit-for-bit.
func TestSeekVsFullReplayAgreeOnLastDay(t *testing.T) {
	cfg := microConfig()
	logBytes, _, _ := loggedRunSeg(t, cfg, RunOptions{}, seekSegmentBytes)

	full, err := stream.Replay(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := stream.ScanIndex(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	last, ok := idx.LastDay()
	if !ok {
		t.Fatal("no days in log")
	}
	seek, err := stream.ReplayDay(bytes.NewReader(logBytes), last)
	if err != nil {
		t.Fatal(err)
	}
	if seek.Stats != full.Stats {
		t.Errorf("seek stats %+v, full replay %+v", seek.Stats, full.Stats)
	}
	if !bytes.Equal(seek.Store.EncodeSnapshot(), full.Store.EncodeSnapshot()) {
		t.Error("seek store snapshot differs from full replay")
	}
	if !bytes.Equal(seek.Ledger.EncodeSnapshot(), full.Ledger.EncodeSnapshot()) {
		t.Error("seek ledger snapshot differs from full replay")
	}
}

// TestCompactMatchesLiveSegmentation pins the compactor's fidelity: taking
// an unsegmented live log and compacting it with threshold N produces the
// exact bytes a live run with SetSegmentBytes(N) writes — same batches,
// same rotation points, same embedded checkpoints.
func TestCompactMatchesLiveSegmentation(t *testing.T) {
	cfg := microConfig()
	plain, _, _ := loggedRun(t, cfg, RunOptions{})
	live, _, _ := loggedRunSeg(t, cfg, RunOptions{}, seekSegmentBytes)

	var out bytes.Buffer
	st, err := stream.Compact(bytes.NewReader(plain), &out, seekSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments == 0 {
		t.Fatal("compaction produced no segment frames at a threshold the live run rotates at")
	}
	if !bytes.Equal(out.Bytes(), live) {
		t.Fatalf("compacted log (%d bytes) differs from live segmented log (%d bytes)", out.Len(), len(live))
	}
}

// TestHistogramAccountsEveryByte checks stream.Histogram on a real
// segmented tiny-world log: its payload, framing and CRC bytes add up to
// the file past the magic, and its per-kind frame and record counts are
// the events a Reader yields, plus the one header, the one base, the
// segment index frames and the event batches the Reader steps through.
func TestHistogramAccountsEveryByte(t *testing.T) {
	cfg := TinyConfig()
	cfg.Workers = 2
	data, _, _ := loggedRunSeg(t, cfg, RunOptions{}, 64<<10)
	rows, scanned, err := stream.Histogram(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if scanned != int64(len(data)) {
		t.Fatalf("histogram stopped at byte %d of %d", scanned, len(data))
	}
	units := map[stream.Kind]int64{}
	var total int64
	for _, s := range rows {
		total += s.PayloadBytes + s.FramingBytes + s.CRCBytes
		units[s.Kind] = s.Frames + s.Records
		if s.Kind == stream.KindEventBatch && s.Records != 0 {
			t.Errorf("%d records counted as event batches", s.Records)
		}
	}
	if want := int64(len(data) - len(stream.Magic)); total != want {
		t.Fatalf("rows account for %d bytes, file past the magic is %d", total, want)
	}

	r, err := stream.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	events := map[stream.Kind]int64{}
	var ev stream.Event
	for {
		if err := r.Next(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		events[ev.Kind]++
	}
	idx, err := stream.ScanIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) < 2 || units[stream.KindEventBatch] == 0 {
		t.Fatalf("%d segments, %d event batches: the log does not exercise both", len(idx.Segments), units[stream.KindEventBatch])
	}
	events[stream.KindHeader], events[stream.KindBase] = 1, 1
	events[stream.KindSegment] = int64(len(idx.Segments) - 1)
	events[stream.KindEventBatch] = units[stream.KindEventBatch]
	for k := stream.Kind(0); k <= stream.KindSegment; k++ {
		if units[k] != events[k] {
			t.Errorf("%s: histogram counts %d frames and records, the log holds %d", k, units[k], events[k])
		}
	}
}
