package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison between a parent A and a change B.
const (
	better      = "better"
	worse       = "worse"
	withinBound = "within-bound"
	// unresolved: the spread of either side's runs exceeds the metric's
	// bound and not every run of one side beats every run of the other.
	unresolved = "unresolved"
	equal      = "equal"
	differs    = "differs"
	unpaired   = "unpaired"
)

// compareFiles compares the runs recorded in two -out files, each holding
// one JSON line per run of one side (run them alternately, A then B, with
// the same seed sequence on both sides). For every workload both sides
// ran it prints one row per end-to-end and stage metric, judged on the
// runs' medians; one row for the error rate; and one row per count,
// which runs of the same seed must agree on.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A = %s (%d runs)\nB = %s (%d runs)\n", pathA, len(a), pathB, len(b))
	fmt.Fprintf(out, "%-14s %-20s %-5s %-34s %-34s %9s  %s\n", "workload", "metric", "unit", "A median [q1 q3] runs", "B median [q1 q3] runs", "delta", "verdict")
	rows := 0
	for _, wl := range workloads {
		ra, rb := runsOf(a, wl.name), runsOf(b, wl.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, def := range append(append([]metricDef(nil), endToEnd...), stageMetrics...) {
			xa, xb := values(ra, def.Name), values(rb, def.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, delta := judge(def, xa, xb, pairs(ra, rb, def.Name))
			fmt.Fprintf(out, "%-14s %-20s %-5s %-34s %-34s %+8.2f%%  %s\n", wl.name, def.Name, def.Unit, cell(xa), cell(xb), 100*delta, v)
			rows++
		}
		ea, eb := errorRate(ra), errorRate(rb)
		v := equal
		switch {
		case eb > ea:
			v = worse
		case eb < ea:
			v = better
		}
		fmt.Fprintf(out, "%-14s %-20s %-5s %-34.4g %-34.4g %9s  %s\n", wl.name, "error_rate", "ratio", ea, eb, "", v)
		for _, def := range countMetrics {
			v, ca, cb := compareCounts(ra, rb, def.Name)
			fmt.Fprintf(out, "%-14s %-20s %-5s %-34.10g %-34.10g %9s  %s\n", wl.name, def.Name, def.Unit, ca, cb, "", v)
		}
	}
	if rows == 0 {
		return fmt.Errorf("%s and %s share no workload metric", pathA, pathB)
	}
	return nil
}

// seededResult is one run's result for one workload, with the run's seed.
type seededResult struct {
	seed uint64
	*workloadResult
}

func readRuns(path string) ([]runReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runReport
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var r runReport
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: run %d: %w", path, len(runs)+1, err)
		}
		if r.Traced {
			continue // per-layer metrics; nothing -compare judges
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run", path)
	}
	return runs, nil
}

func runsOf(runs []runReport, workload string) []seededResult {
	var out []seededResult
	for _, r := range runs {
		for _, w := range r.Workloads {
			if w.Workload == workload {
				out = append(out, seededResult{r.Seed, w})
			}
		}
	}
	return out
}

// metric returns a run's end-to-end or stage metric by name.
func (s seededResult) metric(name string) *metricResult {
	if m, ok := s.Metrics[name]; ok {
		return m
	}
	return s.Stages[name]
}

// values are the runs' medians of a metric.
func values(runs []seededResult, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m := r.metric(name); m != nil {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// pairs are the (A, B) medians of runs with the same seed, each run used
// once.
func pairs(a, b []seededResult, name string) [][2]float64 {
	used := make([]bool, len(b))
	var out [][2]float64
	for _, ra := range a {
		ma := ra.metric(name)
		for j, rb := range b {
			mb := rb.metric(name)
			if !used[j] && ra.seed == rb.seed && ma != nil && mb != nil {
				used[j] = true
				out = append(out, [2]float64{ma.Value, mb.Value})
				break
			}
		}
	}
	return out
}

func errorRate(runs []seededResult) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareCounts checks a count on every pair of runs with the same seed
// (counts are properties of the worlds a seed selects) and returns the
// verdict with the first pair's values.
func compareCounts(a, b []seededResult, name string) (string, float64, float64) {
	verdict := unpaired
	var first [2]float64
	for _, ra := range a {
		for _, rb := range b {
			if ra.seed != rb.seed {
				continue
			}
			ca, cb := ra.Counts[name], rb.Counts[name]
			if verdict == unpaired {
				verdict, first = equal, [2]float64{ca, cb}
			}
			if ca != cb {
				return differs, ca, cb
			}
		}
	}
	return verdict, first[0], first[1]
}

func cell(xs []float64) string {
	s := summarize(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] %d", s.Median, s.Q1, s.Q3, s.N)
}

// runSpread is the spread of a side's run medians; with a single run it
// is unknown, and counts as infinite.
func runSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	return summarize(xs).spread()
}

// judge gives the verdict on metric def between the parent's run medians
// (a) and the change's (b), with the medians of runs on the same seed
// paired, and B's median relative to A's:
//
//   - unresolved when either side's spread exceeds the bound and not
//     every run of one side (three at least) beats every run of the other;
//   - worse when B is worse than A by more than the bound;
//   - better when B is better than A by more than A's own spread and wins
//     at least nine tenths of the pairs (ties count for neither; all
//     (A, B) combinations when no seeds pair up);
//   - within-bound otherwise.
func judge(def metricDef, a, b []float64, paired [][2]float64) (string, float64) {
	ma, mb := summarize(a).Median, summarize(b).Median
	delta := mb/ma - 1
	worseBy := delta
	if def.Better == "higher" {
		worseBy = -delta
	}
	spread := max(runSpread(a), runSpread(b))
	separated := min(len(a), len(b)) >= 3 && (beatsAll(def, b, a) || beatsAll(def, a, b))
	if len(paired) == 0 {
		for _, x := range a {
			for _, y := range b {
				paired = append(paired, [2]float64{x, y})
			}
		}
	}
	wins := 0
	for _, p := range paired {
		if beats(def, p[1], p[0]) {
			wins++
		}
	}
	switch {
	case spread > def.Bound && !separated:
		return unresolved, delta
	case worseBy > def.Bound:
		return worse, delta
	case -worseBy > runSpread(a) && float64(wins) >= 0.9*float64(len(paired)):
		return better, delta
	}
	return withinBound, delta
}

func beats(def metricDef, x, y float64) bool {
	if def.Better == "higher" {
		return x > y
	}
	return x < y
}

// beatsAll reports whether every value of xs beats every value of ys.
func beatsAll(def metricDef, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !beats(def, x, y) {
				return false
			}
		}
	}
	return true
}
