// Package sweep runs a scenario×seed grid of full simulations and scores
// the Section 5.2 lockstep detector against each world's recorded ground
// truth. It is the measurement harness for the paper's open question —
// does install-time lockstep detection survive adversaries that adapt? —
// executed as: one isolated world per grid cell, the store's install
// stream tapped online (the detector ingests each day's incentivized
// installs at the engine's day barrier, sim.RunOptions.Installs), and
// precision/recall/F1 per adversary at the end.
//
// The grid runs in two shapes with byte-identical results:
//
//   - In-process (Run): cells fan out across goroutines via conc.ForN.
//   - Distributed (Coordinator + Worker over the HTTP work-queue in
//     transport.go): cells are handed out under time-bounded leases,
//     crashed workers' cells are reissued and resumed from their spooled
//     checkpoints, and duplicate completions are cross-checked by content
//     digest. Every cell is deterministic in (scenario, seed), which is
//     what makes the distribution trivial to verify: any honest execution
//     of a cell yields the same bytes.
package sweep

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"

	"repro/internal/conc"
	"repro/internal/lockstep"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Options selects the grid.
type Options struct {
	// Base overrides every spec's base world ("" keeps each spec's own;
	// registered built-ins default to the tiny world).
	Base string
	// Scenarios are the registry names to run; empty = every registered
	// scenario.
	Scenarios []string
	// Seeds are the world seeds per scenario; empty = the base config's
	// calibrated seed.
	Seeds []uint64
	// Workers bounds how many grid cells run concurrently (0 =
	// GOMAXPROCS). Each cell runs its own world with Workers=1, so the
	// grid parallelizes across cells, not within them.
	Workers int
	// Log, when set, receives structured per-cell progress records and
	// the coordinator's control-plane log.
	Log *slog.Logger
}

// Cell is one (scenario, seed) grid result.
type Cell struct {
	Scenario string              `json:"scenario"`
	Seed     uint64              `json:"seed"`
	Stats    sim.RunStats        `json:"stats"`
	Truth    int                 `json:"truth_devices"`
	Groups   int                 `json:"groups"`
	Flagged  int                 `json:"flagged_devices"`
	Eval     lockstep.Evaluation `json:"eval"`
	// Detector is the cell detector's internal accounting: signal
	// retracted at the bucket-population cap.
	Detector lockstep.Stats `json:"detector"`
}

// Summary aggregates one scenario's cells (means across seeds).
type Summary struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Cells       []Cell  `json:"cells"`
	Precision   float64 `json:"mean_precision"`
	Recall      float64 `json:"mean_recall"`
	F1          float64 `json:"mean_f1"`
}

// Result is the full grid outcome.
type Result struct {
	Base      string    `json:"base"`
	Seeds     []uint64  `json:"seeds"`
	Scenarios []Summary `json:"scenarios"`
}

// Baseline returns the paper-baseline summary when the grid includes it.
func (r *Result) Baseline() (Summary, bool) {
	for _, s := range r.Scenarios {
		if s.Name == "paper-baseline" {
			return s, true
		}
	}
	return Summary{}, false
}

// gridJob is one cell's work order: the resolved spec plus the requested
// seed (0 = the base config's calibrated seed).
type gridJob struct {
	spec scenario.Spec
	seed uint64
}

// grid is an expanded, validated work list: what both the in-process
// runner and the coordinator hand out, and what assembles cells back into
// a Result. Job order is (scenario request order) × (seed order), so a
// job index is a stable cell identity across processes.
type grid struct {
	base  string
	names []string
	descs map[string]string
	seeds []uint64
	jobs  []gridJob
}

// expandGrid resolves Options into the deduplicated scenario×seed job
// list.
func expandGrid(o Options) (*grid, error) {
	requested := o.Scenarios
	if len(requested) == 0 {
		requested = scenario.Names()
	}
	g := &grid{base: o.Base, descs: map[string]string{}}
	// Dedupe while keeping first-request order: a repeated name would
	// both re-run its cells and corrupt the mean aggregation.
	var specs []scenario.Spec
	seen := map[string]bool{}
	for _, name := range requested {
		if seen[name] {
			continue
		}
		seen[name] = true
		sp, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown scenario %q", name)
		}
		if o.Base != "" {
			sp.World.Base = o.Base
		}
		g.names = append(g.names, name)
		g.descs[name] = sp.Description
		specs = append(specs, sp)
	}
	g.seeds = o.Seeds
	if len(g.seeds) == 0 {
		g.seeds = []uint64{0} // 0 = the base config's calibrated seed
	}
	for _, sp := range specs {
		for _, seed := range g.seeds {
			g.jobs = append(g.jobs, gridJob{sp, seed})
		}
	}
	return g, nil
}

// assemble folds completed cells (in job order) into the final Result:
// scenarios ordered as requested, cells ordered by seed, means across
// seeds. The output is a pure function of the cells, so any execution —
// in-process, distributed, resumed after crashes — assembles the same
// bytes.
func (g *grid) assemble(cells []Cell) *Result {
	res := &Result{Base: g.base}
	for _, c := range cells[:min(len(cells), len(g.seeds))] {
		res.Seeds = append(res.Seeds, c.Seed)
	}
	byName := map[string]*Summary{}
	for _, c := range cells {
		s := byName[c.Scenario]
		if s == nil {
			s = &Summary{Name: c.Scenario, Description: g.descs[c.Scenario]}
			byName[c.Scenario] = s
		}
		s.Cells = append(s.Cells, c)
	}
	for _, name := range g.names {
		s := byName[name]
		if s == nil {
			continue
		}
		sort.Slice(s.Cells, func(i, j int) bool { return s.Cells[i].Seed < s.Cells[j].Seed })
		for _, c := range s.Cells {
			s.Precision += c.Eval.Precision
			s.Recall += c.Eval.Recall
			s.F1 += c.Eval.F1
		}
		n := float64(len(s.Cells))
		s.Precision /= n
		s.Recall /= n
		s.F1 /= n
		res.Scenarios = append(res.Scenarios, *s)
	}
	return res
}

// Run executes the grid in-process. Every cell is deterministic in
// (scenario, seed); cells run concurrently via the same bounded fan-out
// primitive the day engine uses, and the assembled result orders
// scenarios as requested and cells by seed, so the report is identical
// for any Workers setting.
func Run(o Options) (*Result, error) {
	return RunCtx(context.Background(), o)
}

// RunCtx is Run with cancellation: a cancelled ctx stops every in-flight
// cell at its next day barrier and returns the cancellation error.
func RunCtx(ctx context.Context, o Options) (*Result, error) {
	g, err := expandGrid(o)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var runner CellRunner // zero value: in-memory, no spool
	cells := make([]Cell, len(g.jobs))
	errs := make([]error, len(g.jobs))
	conc.ForN(workers, len(g.jobs), func(i int) {
		cell, _, err := runner.Run(ctx, g.jobs[i].spec, g.jobs[i].seed)
		cells[i], errs[i] = cell, err
		switch {
		case o.Log == nil:
			return
		case err != nil:
			o.Log.Warn("cell failed", "scenario", g.jobs[i].spec.Name, "seed", cell.Seed, "error", err)
		default:
			o.Log.Info("cell done", "scenario", cell.Scenario, "seed", cell.Seed, "eval", cell.Eval.String())
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g.assemble(cells), nil
}
