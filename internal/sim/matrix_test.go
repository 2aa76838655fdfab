package sim

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// knobRow is one configuration of the knob matrix: every knob the engine
// accepts that must not change a run's outcome, plus the adversary, whose
// rows are compared among themselves.
type knobRow struct {
	adversary    string
	log          int // 0 off, 1 on at the default segment size, 2 on with 4 KiB segments
	workers      int
	window       int // Config.InstallLogWindow
	balancesOnly bool
	metrics      bool
}

// knobRows covers every pair of knob levels (the test checks it) in 12
// runs. Each adversary's four rows repeat one run-log setting in two rows
// that keep the same ledger mode and differ in every other knob, so their
// log bytes are compared too. (The base and segment frames embed the
// ledger snapshot, which carries the transfer history only when the
// ledger keeps it, so the ledger mode is part of a log's bytes.)
var knobRows = []knobRow{
	{"paper-baseline", 1, 2, 0, true, false},
	{"paper-baseline", 2, 1, 0, false, false},
	{"paper-baseline", 2, 2, 64, false, true},
	{"paper-baseline", 0, 1, 0, true, false},
	{"device-churn", 2, 1, 64, true, false},
	{"device-churn", 2, 2, 0, true, true},
	{"device-churn", 1, 2, 64, false, false},
	{"device-churn", 0, 1, 0, false, true},
	{"organic-mimic", 0, 2, 64, true, true},
	{"organic-mimic", 1, 2, 0, false, true},
	{"organic-mimic", 2, 2, 64, true, false},
	{"organic-mimic", 1, 1, 64, false, false},
}

// knobOutcome is everything a run leaves that the knobs must not change.
type knobOutcome struct {
	stats    RunStats
	store    []byte
	mediator []byte
	balances map[string]float64
	txs      []mediator.Tx // nil when the row keeps balances only
	installs []InstallRecord
	log      []byte // nil when the row runs without a log
}

func runKnobRow(t *testing.T, row knobRow) knobOutcome {
	t.Helper()
	sp, ok := scenario.Lookup(row.adversary)
	if !ok {
		t.Fatalf("scenario %s not registered", row.adversary)
	}
	cfg := microConfig()
	cfg.Adversary = sp.Adversary
	cfg.Workers = row.workers
	cfg.InstallLogWindow = row.window
	cfg.LedgerBalancesOnly = row.balancesOnly
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var o RunOptions
	if row.metrics {
		o.Metrics = NewMetrics(obs.NewRegistry(), nil)
	}
	var buf bytes.Buffer
	if row.log > 0 {
		if o.Log, err = w.NewRunLog(&buf); err != nil {
			t.Fatal(err)
		}
		if row.log == 2 {
			o.Log.SetSegmentBytes(4096)
		}
	}
	stats, err := w.RunOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	out := knobOutcome{
		stats:    stats,
		store:    w.Store.EncodeSnapshot(),
		mediator: w.Mediator.EncodeSnapshot(),
		balances: w.Ledger.Balances(),
		installs: collect(t, &w.InstallLog),
	}
	if !row.balancesOnly {
		out.txs = w.Ledger.Transactions()
	}
	if row.log > 0 {
		// The log must also say what happened: replayed alone, it rebuilds
		// the live store and install log.
		out.log = buf.Bytes()
		res, err := stream.Replay(bytes.NewReader(out.log))
		if err != nil {
			t.Fatalf("%+v: replaying the run log: %v", row, err)
		}
		if !bytes.Equal(res.Store.EncodeSnapshot(), out.store) {
			t.Errorf("%+v: replayed store differs from the live store", row)
		}
		if diff := installLogDiff(loggedInstalls(t, out.log), out.installs); diff != "" {
			t.Errorf("%+v: logged install records %s", row, diff)
		}
		if res.InstallRecords != int64(len(out.installs)) {
			t.Errorf("%+v: replay applied %d install records, live %d", row, res.InstallRecords, len(out.installs))
		}
	}
	return out
}

// TestKnobMatrixIdenticalRuns proves the determinism contract across the
// knobs a run accepts: worker count, install-log spill window, run log
// off or on at two segment sizes, balances-only ledger and metrics. Within
// each adversary every row must end with the same stats, store and
// mediator snapshots, ledger balances (and transfer history where both
// rows keep it) and install log, and rows logging at the same segment
// size with the same ledger mode must write the same bytes, which
// replay back to the live store and install log. Logging is the knob the
// delivery flow's sink methods branch on, so this is their log-on/log-off
// guard.
func TestKnobMatrixIdenticalRuns(t *testing.T) {
	// The rows must cover every pair of levels of every two knobs.
	levels := func(r knobRow) []string {
		return []string{r.adversary, fmt.Sprint(r.log), fmt.Sprint(r.workers), fmt.Sprint(r.window),
			fmt.Sprint(r.balancesOnly), fmt.Sprint(r.metrics)}
	}
	counts := []int{3, 3, 2, 2, 2, 2}
	for i := range counts {
		for j := i + 1; j < len(counts); j++ {
			seen := map[[2]string]bool{}
			for _, r := range knobRows {
				l := levels(r)
				seen[[2]string{l[i], l[j]}] = true
			}
			if len(seen) != counts[i]*counts[j] {
				t.Fatalf("knob rows cover %d of the %d level pairs of knobs %d and %d",
					len(seen), counts[i]*counts[j], i, j)
			}
		}
	}

	start := time.Now()
	ref := map[string]knobOutcome{} // adversary -> its first row's outcome
	refRow := map[string]knobRow{}
	txs := map[string][]mediator.Tx{} // adversary -> first kept transfer history
	logs := map[[3]string][]byte{}    // (adversary, log setting, ledger mode) -> first log
	logsCompared := 0
	for _, row := range knobRows {
		got := runKnobRow(t, row)
		name := fmt.Sprintf("%+v", row)
		if want, ok := ref[row.adversary]; !ok {
			ref[row.adversary], refRow[row.adversary] = got, row
		} else {
			base := fmt.Sprintf("%+v", refRow[row.adversary])
			if got.stats != want.stats {
				t.Errorf("%s: stats %+v, %s had %+v", name, got.stats, base, want.stats)
			}
			if !bytes.Equal(got.store, want.store) {
				t.Errorf("%s: store snapshot differs from %s", name, base)
			}
			if !bytes.Equal(got.mediator, want.mediator) {
				t.Errorf("%s: mediator snapshot differs from %s", name, base)
			}
			if !maps.EqualFunc(got.balances, want.balances, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Errorf("%s: ledger balances differ from %s", name, base)
			}
			if diff := installLogDiff(got.installs, want.installs); diff != "" {
				t.Errorf("%s: install log %s (against %s)", name, diff, base)
			}
		}
		if got.txs != nil {
			if prev, ok := txs[row.adversary]; !ok {
				txs[row.adversary] = got.txs
			} else if !slices.Equal(got.txs, prev) {
				t.Errorf("%s: transfer history differs from an earlier row's", name)
			}
		}
		if got.log != nil {
			key := [3]string{row.adversary, fmt.Sprint(row.log), fmt.Sprint(row.balancesOnly)}
			if prev, ok := logs[key]; !ok {
				logs[key] = got.log
			} else {
				logsCompared++
				if !bytes.Equal(got.log, prev) {
					t.Errorf("%s: run log differs from an earlier row's at the same segment size and ledger mode (%d vs %d bytes)",
						name, len(got.log), len(prev))
				}
			}
		}
	}
	if logsCompared != len(ref) {
		t.Errorf("%d run-log byte comparisons, want one per adversary (%d)", logsCompared, len(ref))
	}
	t.Logf("%d knob rows in %v", len(knobRows), time.Since(start).Round(time.Millisecond))
}

// TestResumeBitIdenticalStatefulStrategies is TestResumeBitIdentical for
// the adversaries that carry schedule state across days (jitter's pending
// ring, burst's latent demand, organic-mimic's retained cohort): the run
// is killed at every day barrier and resumed from that day's decoded
// checkpoint, and the finished log must equal the uninterrupted log byte
// for byte, with the same final stats, snapshots and install log.
func TestResumeBitIdenticalStatefulStrategies(t *testing.T) {
	for _, name := range []string{"jitter", "burst", "organic-mimic"} {
		t.Run(name, func(t *testing.T) {
			sp, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("scenario %s not registered", name)
			}
			cfg := microConfig()
			cfg.Adversary = sp.Adversary
			var cps []*stream.Checkpoint
			liveLog, liveStats, liveWorld := loggedRun(t, cfg, RunOptions{
				CheckpointEvery: 1,
				Checkpoint: func(cp *stream.Checkpoint) error {
					decoded, err := stream.DecodeCheckpoint(cp.Encode())
					if err != nil {
						return err
					}
					cps = append(cps, decoded)
					return nil
				},
			})
			if len(cps) != liveStats.Days {
				t.Fatalf("captured %d checkpoints, want %d", len(cps), liveStats.Days)
			}
			stateful := false
			for _, b := range cps[0].Streams {
				stateful = stateful || strings.HasPrefix(b.Name, "strategy/")
			}
			if !stateful {
				t.Fatalf("%s checkpoints carry no strategy state", name)
			}
			liveStore := liveWorld.Store.EncodeSnapshot()
			liveLedger := liveWorld.Ledger.EncodeSnapshot()
			liveInstalls := collect(t, &liveWorld.InstallLog)

			for _, cp := range cps {
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var rest bytes.Buffer
				stats, err := w.RunOpts(RunOptions{Resume: cp, Log: w.ResumeRunLog(&rest, cp)})
				if err != nil {
					t.Fatalf("resume from %s: %v", cp.Day, err)
				}
				finished := append(liveLog[:cp.LogOffset:cp.LogOffset], rest.Bytes()...)
				if !bytes.Equal(finished, liveLog) {
					t.Errorf("resume from %s: finished log differs (%d vs %d bytes)", cp.Day, len(finished), len(liveLog))
				}
				if stats != liveStats {
					t.Errorf("resume from %s: stats %+v, want %+v", cp.Day, stats, liveStats)
				}
				if !bytes.Equal(w.Store.EncodeSnapshot(), liveStore) {
					t.Errorf("resume from %s: final store differs", cp.Day)
				}
				if !bytes.Equal(w.Ledger.EncodeSnapshot(), liveLedger) {
					t.Errorf("resume from %s: final ledger differs", cp.Day)
				}
				if diff := installLogDiff(collect(t, &w.InstallLog), liveInstalls); diff != "" {
					t.Errorf("resume from %s: final install log %s", cp.Day, diff)
				}
			}
		})
	}
}

// TestInstallsCallbackMatchesInstallLog: RunOptions.Installs hands over
// exactly the install log's records, in order, at every level of the
// knobs that shape how the barrier gathers them (worker count, spill
// window, run log off or on), and a run resumed from a mid-run checkpoint
// hands over exactly the records after the checkpoint's. An error from
// the callback stops the run with that error.
func TestInstallsCallbackMatchesInstallLog(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, window := range []int{0, 64} {
			for _, logged := range []bool{false, true} {
				t.Run(fmt.Sprintf("workers=%d/window=%d/log=%v", workers, window, logged), func(t *testing.T) {
					cfg := microConfig()
					cfg.Workers, cfg.InstallLogWindow = workers, window
					run := func(o RunOptions) ([]InstallRecord, *World) {
						t.Helper()
						w, err := NewWorld(cfg)
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { w.Close() })
						var buf bytes.Buffer
						switch {
						case logged && o.Resume != nil:
							o.Log = w.ResumeRunLog(&buf, o.Resume)
						case logged:
							if o.Log, err = w.NewRunLog(&buf); err != nil {
								t.Fatal(err)
							}
						}
						var got []InstallRecord
						o.Installs = func(recs []InstallRecord) error {
							got = append(got, recs...)
							return nil
						}
						if _, err := w.RunOpts(o); err != nil {
							t.Fatal(err)
						}
						return got, w
					}

					var cps []*stream.Checkpoint
					got, w := run(RunOptions{CheckpointEvery: 6, Checkpoint: func(cp *stream.Checkpoint) error {
						decoded, err := stream.DecodeCheckpoint(cp.Encode())
						cps = append(cps, decoded)
						return err
					}})
					want := collect(t, &w.InstallLog)
					if len(want) == 0 || len(cps) < 2 {
						t.Fatalf("%d install records, %d checkpoints: nothing to compare", len(want), len(cps))
					}
					if diff := installLogDiff(got, want); diff != "" {
						t.Errorf("the callback's records %s", diff)
					}

					mid := cps[0]
					n := mid.Installs.Len()
					if n == 0 || n == len(want) {
						t.Fatalf("checkpoint after %s holds %d of %d records, want a strict prefix", mid.Day, n, len(want))
					}
					got, _ = run(RunOptions{Resume: mid})
					if diff := installLogDiff(got, want[n:]); diff != "" {
						t.Errorf("resumed after %s, the callback's records %s", mid.Day, diff)
					}
				})
			}
		}
	}

	w, err := NewWorld(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stop := errors.New("stop")
	calls := 0
	_, err = w.RunOpts(RunOptions{Installs: func([]InstallRecord) error {
		calls++
		return stop
	}})
	if !errors.Is(err, stop) || calls != 1 {
		t.Errorf("a failing callback: run returned %v after %d calls, want the callback's error after 1", err, calls)
	}
}
