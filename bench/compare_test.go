package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	timing := metricDef{Name: "job_s", Unit: "s", Better: "lower", Bound: 0.10}
	speedup := metricDef{Name: "speedup", Unit: "ratio", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	cases := []struct {
		name   string
		def    metricDef
		a, b   []float64
		paired [][2]float64
		want   string
	}{
		{"same", timing, steady, []float64{1.01, 1.00, 0.99, 1.02, 0.98}, nil, withinBound},
		{"slower within bound", timing, steady, []float64{1.05, 1.06, 1.04, 1.07, 1.03}, nil, withinBound},
		{"slower beyond bound", timing, steady, []float64{1.20, 1.21, 1.19, 1.22, 1.18}, nil, worse},
		{"faster", timing, steady, []float64{0.90, 0.91, 0.89, 0.92, 0.88}, nil, better},
		// Faster by less than the parent's own spread: no claim.
		{"faster inside parent spread", timing, []float64{1.00, 1.04, 0.96, 1.03, 0.97}, []float64{0.99, 1.00, 0.98, 1.01, 0.97}, nil, withinBound},
		{"noisy and overlapping", timing, []float64{1.0, 1.5, 0.7, 1.3, 0.8}, []float64{1.1, 1.4, 0.75, 1.2, 0.9}, nil, unresolved},
		// Noisy, but every run of the change beats every run of the parent.
		{"noisy but separated", timing, []float64{2.0, 2.6, 2.2, 2.9, 2.4}, []float64{1.0, 1.5, 1.2, 1.9, 1.3}, nil, better},
		{"noisy but separated, worse", timing, []float64{1.0, 1.5, 1.2, 1.9, 1.3}, []float64{2.0, 2.6, 2.2, 2.9, 2.4}, nil, worse},
		// Separation needs three runs a side; one run has no spread at all.
		{"two runs a side, noisy", timing, []float64{1.0, 1.5}, []float64{2.0, 2.6}, nil, unresolved},
		{"one run a side", timing, []float64{1.0}, []float64{1.01}, nil, unresolved},
		// Faster at the median, but B wins only eight of ten seed pairs.
		{"faster, too few pair wins", timing,
			[]float64{1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
			[]float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1.05, 1.05},
			[][2]float64{{1, 0.9}, {1, 0.9}, {1, 0.9}, {1, 0.9}, {1, 0.9}, {1, 0.9}, {1, 0.9}, {1, 0.9}, {1, 1.05}, {1, 1.05}},
			withinBound},
		{"higher is better, lower", speedup, []float64{1.8, 1.81, 1.79, 1.8}, []float64{1.5, 1.51, 1.49, 1.5}, nil, worse},
		{"higher is better, higher", speedup, []float64{1.5, 1.51, 1.49, 1.5}, []float64{1.8, 1.81, 1.79, 1.8}, nil, better},
	}
	for _, c := range cases {
		if got, _ := judge(c.def, c.a, c.b, c.paired); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	// write appends one run per job time to a side's file, run i on seed
	// i with installs[i] install records.
	write := func(path string, installs []float64, jobs ...float64) {
		for i, job := range jobs {
			r := runReport{Seed: uint64(i), Workloads: []*workloadResult{{
				Workload:  "paper-study",
				Attempted: 10,
				Metrics: map[string]*metricResult{
					"job_s":   newMetric("s", []float64{job, job * 1.01}),
					"setup_s": newMetric("s", []float64{0.03, 0.031, 0.029}),
				},
				Counts: map[string]float64{"sim.device_days": 1000, "sim.install_records": installs[i]},
			}}}
			if err := appendJSONLine(path, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	write(a, []float64{7, 8, 9, 10, 11}, 1.0, 1.01, 0.99, 1.02, 0.98)
	write(b, []float64{7, 8, 9, 10, 12}, 1.5, 1.51, 1.49, 1.52, 1.48)
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "paper-study" {
			rows[f[1]] = f[len(f)-1]
		}
	}
	want := map[string]string{
		"job_s": worse, "setup_s": withinBound, "error_rate": equal,
		"sim.device_days": equal, "sim.install_records": differs,
	}
	for metric, v := range want {
		if rows[metric] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, rows[metric], v, out.String())
		}
	}
}
