package fault

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// CrashExitCode is the status a process dies with when a crash point
// fires, distinguishing planned chaos kills from real failures in the
// restart loops that drive them.
const CrashExitCode = 3

// CrashPlan schedules process kills at named execution points: the plan
// "cell-day=29" makes the 29th Hit("cell-day") call terminate the
// process. Worker binaries plant Hit calls at their interesting points
// (lease acquired, day boundary inside a cell, completion about to be
// reported) and a chaos harness restarts them until the work drains.
type CrashPlan struct {
	mu     sync.Mutex
	counts map[string]int
	exit   func(point string)
}

// ParseCrashPlan builds a plan from a comma-separated "point=N" spec.
// N is the 1-based hit that fires; N <= 0 is rejected.
func ParseCrashPlan(spec string) (*CrashPlan, error) {
	p := &CrashPlan{counts: map[string]int{}}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, countStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: crash plan %q: want point=N", part)
		}
		n, err := strconv.Atoi(countStr)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("fault: crash plan %q: bad hit count", part)
		}
		p.counts[point] = n
	}
	return p, nil
}

// ParseWriteFaults builds the torn-write injector of a "probability[:seed]"
// spec, the -fault-write flag of the binaries that write run logs. The
// empty spec injects nothing and returns a nil injector.
func ParseWriteFaults(spec string) (*Injector, error) {
	if spec == "" {
		return nil, nil
	}
	probStr, seedStr, hasSeed := strings.Cut(spec, ":")
	prob, err := strconv.ParseFloat(probStr, 64)
	if err != nil || prob < 0 || prob > 1 {
		return nil, fmt.Errorf("fault: write faults %q: want probability in [0,1]", spec)
	}
	var seed uint64
	if hasSeed {
		if seed, err = strconv.ParseUint(seedStr, 10, 64); err != nil {
			return nil, fmt.Errorf("fault: write faults %q: bad seed", spec)
		}
	}
	return New(Config{Seed: seed, WriteErrorProb: prob, TornWrites: true}), nil
}

// String renders the remaining plan (for logging).
func (p *CrashPlan) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := make([]string, 0, len(p.counts))
	for point, n := range p.counts {
		parts = append(parts, fmt.Sprintf("%s=%d", point, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// SetExit overrides the process-terminating hook (tests substitute a
// panic or a flag). The default is os.Exit(CrashExitCode).
func (p *CrashPlan) SetExit(fn func(point string)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exit = fn
}

// Hit records one pass through the named point, terminating the process
// when the planned hit count is reached. A nil plan is a no-op, so
// instrumented code needs no guards.
func (p *CrashPlan) Hit(point string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	n, ok := p.counts[point]
	if !ok {
		p.mu.Unlock()
		return
	}
	n--
	p.counts[point] = n
	fire := n <= 0
	if fire {
		delete(p.counts, point) // one kill per planned point
	}
	exit := p.exit
	p.mu.Unlock()
	if !fire {
		return
	}
	if exit != nil {
		exit(point)
		return
	}
	fmt.Fprintf(os.Stderr, "fault: crash point %s fired\n", point)
	os.Exit(CrashExitCode)
}

// Crash is the process-wide plan worker binaries arm from their -crash
// flag (or the FAULT_CRASH environment variable). Nil until armed;
// Hit on the nil plan is free.
var Crash *CrashPlan

// ArmCrashFromEnv arms the process-wide plan from FAULT_CRASH when the
// variable is set and no plan is armed yet.
func ArmCrashFromEnv() error {
	if Crash != nil {
		return nil
	}
	spec := os.Getenv("FAULT_CRASH")
	if spec == "" {
		return nil
	}
	p, err := ParseCrashPlan(spec)
	if err != nil {
		return err
	}
	Crash = p
	return nil
}
