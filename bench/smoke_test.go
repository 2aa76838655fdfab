package main

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// smokeSizing runs every workload's code path on small worlds: the
// massive world's spill is forced with a tiny window, and the durable
// run's checkpoints and segments come closer together so it still resumes
// mid-window and seeks past a segment.
func smokeSizing() sizing {
	short := func(days int) sim.Config {
		cfg := sim.TinyConfig()
		cfg.Window.End = cfg.Window.Start.AddDays(days - 1)
		return cfg
	}
	massive := short(12)
	massive.InstallLogWindow = 2000
	massive.LedgerBalancesOnly = true
	return sizing{
		study:           short(8),
		massive:         massive,
		durable:         short(15),
		checkpointEvery: 4, resumeAfter: 8, segmentBytes: 64 << 10,
		sweepSeeds:     1,
		sweepScenarios: []string{"paper-baseline", "jitter"},
	}
}

// stagesOf are the stageMetrics each workload must report.
var stagesOf = map[string][]string{
	"paper-study":    nil,
	"massive-spill":  {"ns_per_device_day"},
	"durable-resume": {"ns_per_device_day", "replay_s", "resume_s", "seek_s"},
	"sweep-grid":     {"cell_s"},
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", wl.name, traced), func(t *testing.T) {
				t.Parallel()
				smoke(t, wl, traced)
			})
		}
	}
}

// smoke runs the two reps every run starts with and checks that they
// pass their correctness checks and emit exactly the catalog's metrics.
func smoke(t *testing.T, wl workload, traced bool) {
	wl.setupSeconds = min(wl.setupSeconds, 0.01)
	rc := runConfig{seed: 1, sz: smokeSizing(), dir: t.TempDir()}
	want := endToEnd
	if traced {
		rc.spans = newSpanLog()
		want = perLayer
	}
	res, err := runWorkload(wl, rc)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
			wl.name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		v, ok := res.Metrics[m.Name]
		// Every time and count must read non-zero on every workload.
		if ok && v.Value == 0 && (m.Unit == "s" || m.Unit == "count" && m.Exact) {
			t.Errorf("%s traced=%v: %s reads 0", wl.name, traced, m.Name)
		}
	}
	sameKeys(t, fmt.Sprintf("%s traced=%v metrics", wl.name, traced), res.Metrics, names)
	for _, m := range countMetrics {
		if res.Counts[m.Name] <= 0 {
			t.Errorf("%s traced=%v: count %s = %g", wl.name, traced, m.Name, res.Counts[m.Name])
		}
	}
	if !traced {
		sameKeys(t, wl.name+" stages", res.Stages, stagesOf[wl.name])
	}
}

// TestPickWorlds checks that a picked world sits at the target plan when
// built in full (pickWorlds screens candidates built with one device per
// IIP), and that a seed picks the same world every time.
func TestPickWorlds(t *testing.T) {
	cfg := sim.TinyConfig()
	cfg.Window.End = cfg.Window.Start.AddDays(7)
	plan := func(world uint64) float64 {
		t.Helper()
		c := cfg
		c.Seed += world
		w, err := sim.NewWorld(c)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		return plannedCompletions(w)
	}
	target := plan(worldSeed(2, 5))
	got, err := pickWorlds(cfg, 2, 1, target, planBand)
	if err != nil {
		t.Fatal(err)
	}
	if p := plan(got[0]); math.Abs(p/target-1) > planBand {
		t.Errorf("picked world %d plans %g completions, target %g", got[0], p, target)
	}
	again, err := pickWorlds(cfg, 2, 1, target, planBand)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again) != fmt.Sprint(got) {
		t.Errorf("seed 2 picked %v, then %v", got, again)
	}
}

func sameKeys(t *testing.T, what string, got map[string]*metricResult, want []string) {
	t.Helper()
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Errorf("%s: emitted %v, want %v", what, keys, want)
	}
}
