package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/iip"
	"repro/internal/obs"
	"repro/internal/sim"
)

// rep is one repetition of a workload's job. The workload runs the job's
// calls through step, which times them from outside; everything else it
// does in a rep (correctness checks, snapshots for the per-layer metrics,
// the traced run's extra calls) stays off the job clock.
type rep struct {
	// worlds are the run's world seeds, each added to a config's
	// calibrated seed; a single-world job runs worlds[0].
	worlds []uint64
	dir    string // scratch directory for the rep's files
	spans  *spanLog
	id     int // the rep's span

	job   time.Duration
	steps map[string]time.Duration // job time by step
	// peakMB is the rep's peak RSS when its last step ended, before the
	// checks after it (the store snapshots among them) could raise it.
	peakMB float64
	// builds are the rep's own sim.NewWorld calls, setup_s samples.
	builds []time.Duration
	// stages are the rep's samples of stageMetrics.
	stages map[string]float64
	// ops is how many operations the job counts as (1 unless set).
	ops      int
	snapshot time.Duration
	snapSize int64
	counts   map[string]float64
	fails    []string
	// fingerprint identifies the job's outputs; it must be identical in
	// every rep of a run.
	fingerprint string
}

func (r *rep) traced() bool { return r.spans != nil }

// step runs one call of the job under a span named name.
func (r *rep) step(name string, fn func(span int) error) error {
	id := r.spans.begin(r.id, name, "")
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0)
	r.peakMB = peakRSSMB()
	r.job += d
	if r.steps == nil {
		r.steps = map[string]time.Duration{}
	}
	r.steps[name] += d
	r.spans.finish(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// extra runs a call outside the job clock under a span (traced runs re-time
// single crawl, milk and detection passes this way).
func (r *rep) extra(name string, fn func() error) error {
	id := r.spans.begin(r.id, name, "")
	err := fn()
	r.spans.finish(id)
	return err
}

// build runs sim.NewWorld under a "setup" span.
func (r *rep) build(cfg sim.Config, parent int) (*sim.World, error) {
	t0 := time.Now()
	w, err := sim.NewWorld(cfg)
	d := time.Since(t0)
	r.spans.add(parent, "setup", "", t0, d)
	if err == nil {
		r.builds = append(r.builds, d)
	}
	return w, err
}

// stage records a sample of one of stageMetrics.
func (r *rep) stage(name string, v float64) {
	if r.stages == nil {
		r.stages = map[string]float64{}
	}
	r.stages[name] = v
}

// instruments returns a registry and a tracer for one world run's
// existing instruments (sim.NewMetrics, stream.NewWriterMetrics), or nils
// — instrumentation off — when the rep is untraced.
func (r *rep) instruments() (*obs.Registry, *obs.Tracer) {
	if !r.traced() {
		return nil, nil
	}
	return obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCap)
}

// check records a failed correctness check.
func (r *rep) check(ok bool, format string, args ...any) {
	if !ok {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// snapshotStore encodes a world's store as the per-layer snapshot metric
// measures it, returning the bytes for the caller's checks.
func (r *rep) snapshotStore(w *sim.World) []byte {
	t0 := time.Now()
	b := w.Store.EncodeSnapshot()
	r.snapshot += time.Since(t0)
	r.snapSize += int64(len(b))
	return b
}

// count adds to one of countMetrics for the rep.
func (r *rep) count(name string, v float64) {
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts[name] += v
}

// worldCounts adds a finished world's device-days and install records.
func (r *rep) worldCounts(w *sim.World, days int) {
	r.count("sim.device_days", float64(devices(w.Cfg)*days))
	r.count("sim.install_records", float64(w.InstallLog.Len()))
}

func devices(cfg sim.Config) int {
	return cfg.WorkerPoolSize * len(iip.StandardNames)
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS watermark, so the next peakRSSMB reads the coming rep's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Best effort: without /proc (not Linux) peakRSSMB falls back to the
	// Go runtime's view and the reset has nothing to do.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, falling back to the
// memory the Go runtime has obtained from the OS.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// probeRun is one instrumented bare engine run of the engine probe, at
// `workers`: its span (with the engine's phase spans under it) and the
// store snapshot of its finished world.
type probeRun struct {
	span      int
	snapshot  time.Duration
	snapBytes int64
}

// engineProbe times bare engine runs (no hook, log or checkpoint) of
// fresh worlds from cfg at one worker and at `workers`, in pairs until
// about two seconds have passed, and returns the median of the pairs'
// speed-ups and the runs at `workers`.
func engineProbe(spans *spanLog, parent int, cfg sim.Config) (float64, []probeRun, error) {
	var ratios []float64
	var runs []probeRun
	start := time.Now()
	for len(ratios) == 0 || time.Since(start) < 2*time.Second {
		var t [2]time.Duration
		for i, n := range [2]int{1, workers} {
			c := cfg
			c.Workers = n
			w, err := sim.NewWorld(c)
			if err != nil {
				return 0, nil, err
			}
			tr := obs.NewTracer(obs.DefaultTraceCap)
			id := spans.begin(parent, fmt.Sprintf("engine-w%d", n), "")
			t0 := time.Now()
			_, err = w.RunOpts(sim.RunOptions{Metrics: sim.NewMetrics(obs.NewRegistry(), tr)})
			t[i] = time.Since(t0)
			spans.finish(id)
			if err == nil {
				err = spans.absorb(id, tr)
			}
			if err == nil && n == workers {
				s0 := time.Now()
				snap := w.Store.EncodeSnapshot()
				runs = append(runs, probeRun{span: id, snapshot: time.Since(s0), snapBytes: int64(len(snap))})
			}
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return 0, nil, err
			}
		}
		ratios = append(ratios, t[0].Seconds()/t[1].Seconds())
	}
	return median(sorted(ratios)), runs, nil
}
