// Command bench is the repository's benchmark: four workloads that map
// onto the jobs users run (the paper study, a big engine-bound world, the
// crash-resumable run-log path, and the scenario sweep), each repeated for
// a fixed time, checked for correctness, and reported as end-to-end
// metrics (untraced) or per-layer metrics from recorded spans (traced).
// See README.md for the workloads, the metrics and the time budget.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-spans FILE] [-out FILE]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and every metric's median with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	workloadName := flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flag.Uint64("seed", 0, "input seed: picks the worlds every rep runs")
	seconds := flag.Float64("seconds", 25, "how long each workload repeats its job")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run: per-layer metrics from spans")
	spansOut := flag.String("spans", "", "with -trace 1: write the recorded spans to this file (JSON lines)")
	out := flag.String("out", "", "append this run's record (every metric with its quartiles and samples) to this file as one JSON line")
	compare := flag.Bool("compare", false, "compare the runs recorded in two -out files: -compare A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two -out files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workloadName != "all" {
		wl, ok := lookupWorkload(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *workloadName, strings.Join(names, ", "))
		}
		selected = []workload{wl}
	}

	dir, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		sz:      benchSizing(),
		dir:     dir,
	}
	if *trace == 1 {
		rc.spans = newSpanLog()
	}
	report := runReport{Host: hostInfo(), Seed: *seed, Seconds: *seconds, Traced: rc.traced()}
	for _, wl := range selected {
		res, err := runWorkload(wl, rc)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.print(os.Stdout)
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", wl.name, f)
		}
		report.Workloads = append(report.Workloads, res)
	}
	if *out != "" {
		if err := appendJSONLine(*out, report); err != nil {
			return err
		}
	}
	if *spansOut != "" && rc.spans != nil {
		if err := writeSpans(*spansOut, rc.spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(report.final())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type runConfig struct {
	seed    uint64
	seconds time.Duration
	sz      sizing
	dir     string
	spans   *spanLog // nil for an untraced run
}

func (rc runConfig) traced() bool { return rc.spans != nil }

// runReport is one run's record: -out appends it as a JSON line, and
// -compare reads the runs of each side from such files.
type runReport struct {
	Host      map[string]string `json:"host"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Reps      int      `json:"reps"`
	// Worlds are the world seeds every rep ran.
	Worlds []uint64 `json:"worlds"`
	// Metrics are the end-to-end metrics (untraced) or the per-layer
	// metrics (traced); Stages the workload's stageMetrics (untraced).
	Metrics map[string]*metricResult `json:"metrics"`
	Stages  map[string]*metricResult `json:"stages,omitempty"`
	// Counts are countMetrics of the run's worlds.
	Counts map[string]float64 `json:"counts"`
	// SpanSelf is, for a traced run, each span name's self time per
	// traced rep in seconds: the layer-by-layer account of the rep.
	SpanSelf map[string]float64 `json:"span_self_s,omitempty"`
}

type metricResult struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"` // the median of the samples
	summary
	Samples []float64 `json:"samples"`
}

func newMetric(unit string, samples []float64) *metricResult {
	s := summarize(samples)
	return &metricResult{Unit: unit, Value: s.Median, summary: s, Samples: samples}
}

// final is the one-line result: a single workload's metrics by name, or
// with several workloads every metric keyed workload/metric.
func (r runReport) final() map[string]any {
	correct, attempted, failed := true, 0, 0
	metrics := map[string]any{}
	for _, w := range r.Workloads {
		correct = correct && w.Correct
		attempted += w.Attempted
		failed += w.Failed
		for name, m := range w.Metrics {
			key := name
			if len(r.Workloads) > 1 {
				key = w.Workload + "/" + name
			}
			metrics[key] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}

// runWorkload picks the run's worlds and repeats wl's job on them for
// rc.seconds: reps start while the longest rep so far still fits in the
// time left, after at least two. An untraced run first builds the worlds
// for wl.setupSeconds. A traced run starts with the engine probe and
// alternates untraced and traced reps, so the per-layer metrics and the
// tracing overhead come from the same run.
func runWorkload(wl workload, rc runConfig) (*workloadResult, error) {
	root := rc.spans.begin(0, "workload", wl.name)
	defer rc.spans.finish(root)
	res := &workloadResult{Workload: wl.name, Metrics: map[string]*metricResult{}}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	// layers adds the engine-phase and snapshot samples of one world run
	// whose spans (the engine's day and phase spans among them) are sub.
	layers := func(sub []span, snapshot time.Duration) {
		organic, campaign, step := sumDur(sub, "organic"), sumDur(sub, "campaign"), sumDur(sub, "step-day")
		add("sim.organic_s", organic.Seconds())
		add("sim.campaign_s", campaign.Seconds())
		add("sim.step_day_s", step.Seconds())
		add("sim.day_other_s", (sumDur(sub, "day") - organic - campaign - step).Seconds())
		add("playstore.snapshot_s", snapshot.Seconds())
	}

	start := time.Now()
	worlds, err := wl.pick(rc.sz, rc.seed)
	if err != nil {
		return nil, fmt.Errorf("picking worlds: %w", err)
	}
	res.Worlds = worlds
	if rc.traced() {
		speedup, probe, err := engineProbe(rc.spans, root, wl.world(rc.sz, worlds[0], rc.dir))
		if err != nil {
			return nil, fmt.Errorf("engine probe: %w", err)
		}
		add("sim.parallel_speedup", speedup)
		if wl.probeLayers {
			all := rc.spans.snapshot()
			for _, p := range probe {
				layers(subtree(all, p.span), p.snapshot)
			}
			add("playstore.snapshot_bytes", float64(probe[0].snapBytes))
		}
	}
	setupStart := time.Now()
	for j := 0; !rc.traced() && wl.setupSeconds > 0 && (j == 0 || time.Since(setupStart).Seconds() < wl.setupSeconds); j++ {
		// Each build starts on a heap returned to the OS, as in a fresh
		// process.
		debug.FreeOSMemory()
		d, err := wl.buildTime(rc.sz, worlds, rc.dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		add("setup_s", d.Seconds())
	}

	// Every rep runs the same worlds, so every run checks that the
	// outputs repeat.
	const minReps = 2
	var (
		longest     time.Duration
		fingerprint string
		untraced    float64 // job seconds of the last untraced rep
		self        = map[string]time.Duration{}
		tracedReps  int
	)
	for i := 0; i < minReps || time.Since(start)+longest <= rc.seconds; i++ {
		isTraced := rc.traced() && i%2 == 1
		r, stats, err := runRep(wl, rc, worlds, i, isTraced, root)
		if err != nil {
			return nil, err
		}
		longest = max(longest, stats.wall)
		if i == 0 {
			fingerprint = r.fingerprint
		} else {
			r.check(r.fingerprint == fingerprint, "outputs differ from rep 0's: %s vs %s", r.fingerprint, fingerprint)
		}
		res.Reps++
		res.Attempted += r.ops
		if len(r.fails) > 0 {
			res.Failed += r.ops
			for _, f := range r.fails {
				res.Failures = append(res.Failures, fmt.Sprintf("rep %d: %s", i, f))
			}
		}
		if i == 0 {
			res.Counts = r.counts
		}
		if !isTraced {
			untraced = r.job.Seconds()
			add("job_s", r.job.Seconds())
			add("peak_rss_mb", stats.rssMB)
			for _, d := range r.builds {
				add("setup_s", d.Seconds())
			}
			for name, v := range r.stages {
				add(name, v)
			}
			continue
		}
		add("trace_overhead_pct", (r.job.Seconds()/untraced-1)*100)
		tracedReps++
		sub := subtree(rc.spans.snapshot(), r.id)
		for name, d := range selfTimes(sub) {
			self[name] += d
		}
		var days []float64
		for _, s := range sub {
			if s.Name == "day" {
				days = append(days, float64(s.dur())/1e6)
			}
		}
		if len(days) == 0 {
			return nil, fmt.Errorf("traced rep %d recorded no day spans", i)
		}
		days = sorted(days)
		add("sim.day_p50_ms", median(days))
		add("sim.day_p90_ms", percentile(days, 90))
		// Sweep cells run two at a time: the grid's worlds were busy for
		// the sum of its cells.
		busy := r.job
		if cells := sumDur(sub, "cell"); cells > 0 {
			busy = cells
		}
		add("job.off_loop_s", (busy - sumDur(sub, "day")).Seconds())
		if !wl.probeLayers {
			layers(sub, r.snapshot)
			if tracedReps == 1 {
				add("playstore.snapshot_bytes", float64(r.snapSize))
			}
		}
		add("go.gc_cycles", stats.gcCycles)
		add("go.gc_pause_ms", stats.gcPauseMS)
		add("go.alloc_mb", stats.allocMB)
	}

	defs := endToEnd
	if rc.traced() {
		defs = perLayer
		res.SpanSelf = map[string]float64{}
		for name, d := range self {
			res.SpanSelf[name] = d.Seconds() / float64(tracedReps)
		}
	} else {
		res.Stages = map[string]*metricResult{}
		for _, def := range stageMetrics {
			if xs, ok := samples[def.Name]; ok {
				res.Stages[def.Name] = newMetric(def.Unit, xs)
			}
		}
	}
	for _, def := range countMetrics {
		samples[def.Name] = []float64{res.Counts[def.Name]}
	}
	for _, def := range defs {
		xs, ok := samples[def.Name]
		if !ok {
			return nil, fmt.Errorf("no samples of %s", def.Name)
		}
		res.Metrics[def.Name] = newMetric(def.Unit, xs)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// repStats is what runRep measures around a rep from outside the job.
type repStats struct {
	wall                         time.Duration
	rssMB                        float64
	gcCycles, gcPauseMS, allocMB float64
}

// runRep runs one rep in its own scratch directory, with the peak-RSS
// watermark reset before it (and read when its job's last step ends) and
// the Go runtime's counters read around it.
// A job error is a failed check of the rep, not an error of the run.
func runRep(wl workload, rc runConfig, worlds []uint64, i int, traced bool, root int) (*rep, repStats, error) {
	dir, err := os.MkdirTemp(rc.dir, "rep-")
	if err != nil {
		return nil, repStats{}, err
	}
	defer os.RemoveAll(dir)
	r := &rep{worlds: worlds, dir: dir, ops: 1}
	if traced {
		r.spans = rc.spans
	}
	r.id = rc.spans.begin(root, "rep", fmt.Sprint(i))
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := wl.job(r, rc.sz); err != nil {
		r.fails = append(r.fails, err.Error())
	}
	st := repStats{wall: time.Since(t0), rssMB: r.peakMB}
	runtime.ReadMemStats(&m1)
	rc.spans.finish(r.id)
	st.gcCycles = float64(m1.NumGC - m0.NumGC)
	st.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return r, st, nil
}

func (w *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "== %s: %d reps, %d/%d ops ok\n", w.Workload, w.Reps, w.Attempted-w.Failed, w.Attempted)
	for _, f := range w.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	for _, set := range []map[string]*metricResult{w.Metrics, w.Stages} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Fprintf(out, "  %-26s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %d", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
			if m.TailPct > 0 {
				fmt.Fprintf(out, "  p%g %.6g", m.TailPct, m.Tail)
			}
			fmt.Fprintln(out)
		}
	}
	if len(w.SpanSelf) == 0 {
		return
	}
	var total float64
	spans := make([]string, 0, len(w.SpanSelf))
	for name, s := range w.SpanSelf {
		spans = append(spans, name)
		total += s
	}
	sort.Slice(spans, func(i, j int) bool { return w.SpanSelf[spans[i]] > w.SpanSelf[spans[j]] })
	fmt.Fprintf(out, "  span self time per traced rep:\n")
	for _, name := range spans {
		fmt.Fprintf(out, "    %-14s %10.4f s %6.1f%%\n", name, w.SpanSelf[name], 100*w.SpanSelf[name]/total)
	}
}

func hostInfo() map[string]string {
	h := map[string]string{
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"num_cpu":    fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"workers":    fmt.Sprint(workers),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// appendJSONLine appends v to the file at path as one line of JSON.
func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(path string, spans *spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spans.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
