package main

// metricDef is one metric the harness reports; README.md describes each.
// BENCHMARK.json at the repository root lists the end-to-end and
// per-layer metrics with the same names, units, directions and bounds,
// and catalog_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// get worse before a change counts as a regression.
	Bound float64
	// Exact marks a deterministic count, compared for equality rather
	// than speed.
	Exact bool
}

// bound is the bound on every end-to-end and stage metric, the widest a
// benchmark may set. Runs at ten seeds on a shared 2-vCPU host spread
// (interquartile range over median) up to 19% in time, because the speed
// the host gives drifts within minutes, and up to 14% in peak memory,
// because worlds differ; the medians of two such batches an hour apart
// differed by up to 23%. README.md has the measurements.
const bound = 0.25

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs of every workload. Every job builds its worlds, so
// setup_s is also inside job_s: work moved into world construction shows
// in setup_s even when job_s does not move.
var endToEnd = []metricDef{
	{Name: "job_s", Unit: "s", Better: "lower", Bound: bound},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: bound},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound},
}

// stageMetrics are the end-to-end times of single stages that only some
// workloads have, so they cannot be in the one-line result, which every
// workload prints in full. -out records carry them and -compare judges
// them like the end-to-end metrics.
var stageMetrics = []metricDef{
	{Name: "ns_per_device_day", Unit: "ns", Better: "lower", Bound: bound},
	{Name: "resume_s", Unit: "s", Better: "lower", Bound: bound},
	{Name: "seek_s", Unit: "s", Better: "lower", Bound: bound},
	{Name: "replay_s", Unit: "s", Better: "lower", Bound: bound},
	{Name: "cell_s", Unit: "s", Better: "lower", Bound: bound},
}

// countMetrics are exact properties of a world: every run records them
// for its first world, and -compare requires runs of the same seed to
// agree on them.
var countMetrics = []metricDef{
	{Name: "sim.device_days", Unit: "count", Better: "higher", Exact: true},
	{Name: "sim.install_records", Unit: "count", Better: "higher", Exact: true},
}

// perLayer are the metrics of single layers, reported by traced runs.
// Every one is exercised by all four workloads, so none reads 0; layers
// only some workloads use (run-log writes and reads, checkpoints, the
// crawler and milker, the lockstep detector, sweep cells) are spans in the
// traced run's self-time table instead.
var perLayer = append([]metricDef{
	{Name: "sim.organic_s", Unit: "s", Better: "lower"},
	{Name: "sim.campaign_s", Unit: "s", Better: "lower"},
	{Name: "sim.step_day_s", Unit: "s", Better: "lower"},
	{Name: "sim.day_other_s", Unit: "s", Better: "lower"},
	{Name: "sim.day_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.day_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "job.off_loop_s", Unit: "s", Better: "lower"},
	{Name: "playstore.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "playstore.snapshot_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "sim.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}, countMetrics...)
