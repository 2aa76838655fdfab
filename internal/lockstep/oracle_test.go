package lockstep

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dates"
	"repro/internal/randx"
)

// bruteForce is a deliberately naive reference for the exact tier: it
// shares no code with Detector. Each device's first install of an app
// fixes its (app, bucket) cell; a cell counts only if its final
// population is within the cap; two devices qualify when they share at
// least minCommon counted cells; groups are the connected components of
// the qualifying pairs.
type bruteForce struct {
	pairs  [][2]string
	groups []Group
	stats  Stats
}

func bruteForceDetect(events []Event, cfg Config) bruteForce {
	type cell struct {
		app    string
		bucket int
	}
	first := map[string]map[string]int{} // device -> app -> bucket
	pop := map[cell]int{}
	for _, ev := range events {
		apps := first[ev.Device]
		if apps == nil {
			apps = map[string]int{}
			first[ev.Device] = apps
		}
		if _, dup := apps[ev.App]; dup {
			continue
		}
		b := int(ev.Day) / cfg.DayBucket
		apps[ev.App] = b
		pop[cell{ev.App, b}]++
	}
	var ref bruteForce
	for _, p := range pop {
		if cfg.MaxBucketPopulation > 0 && p > cfg.MaxBucketPopulation {
			ref.stats.BucketsRetracted++
			ref.stats.PairsPruned += int64(p) * int64(p-1) / 2
		}
	}
	counted := func(app string, b int) bool {
		return cfg.MaxBucketPopulation == 0 || pop[cell{app, b}] <= cfg.MaxBucketPopulation
	}

	var devs []string
	for dev := range first {
		devs = append(devs, dev)
	}
	sort.Strings(devs)
	adj := map[string][]string{}
	linking := map[[2]string][]string{}
	for i, a := range devs {
		for _, b := range devs[i+1:] {
			var shared []string
			for app, bucket := range first[a] {
				if ob, ok := first[b][app]; ok && ob == bucket && counted(app, bucket) {
					shared = append(shared, app)
				}
			}
			if len(shared) < cfg.MinCommonApps {
				continue
			}
			p := [2]string{a, b}
			ref.pairs = append(ref.pairs, p)
			linking[p] = shared
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}

	seen := map[string]bool{}
	for _, start := range devs {
		if seen[start] || len(adj[start]) == 0 {
			continue
		}
		var comp []string
		queue := []string{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(comp) < cfg.MinGroupSize {
			continue
		}
		sort.Strings(comp)
		in := map[string]bool{}
		for _, v := range comp {
			in[v] = true
		}
		appSet := map[string]bool{}
		for p, apps := range linking {
			if in[p[0]] {
				for _, app := range apps {
					appSet[app] = true
				}
			}
		}
		var apps []string
		for app := range appSet {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		ref.groups = append(ref.groups, Group{Devices: comp, Apps: apps})
	}
	sort.Slice(ref.groups, func(i, j int) bool { return ref.groups[i].Devices[0] < ref.groups[j].Devices[0] })
	return ref
}

// TestExactTierMatchesBruteForce checks the exact tier — qualifying
// pairs, groups with their linking apps, and the retraction accounting —
// against bruteForceDetect on shuffled synthetic streams with reinstalls,
// across population caps small enough that worker and organic cells die
// and every MinCommonApps threshold the fixture can reach.
func TestExactTierMatchesBruteForce(t *testing.T) {
	r := randx.New(2024)
	for trial := 0; trial < 2; trial++ {
		events, _ := synth(r, 25, 80, 8, 8)
		// Reinstalls on other days: first occurrence in stream order wins.
		for i := 0; i < 40; i++ {
			ev := events[r.IntN(len(events))]
			ev.Day = dates.Date(r.IntN(120))
			events = append(events, ev)
		}
		shuffled := make([]Event, len(events))
		for i, p := range r.Perm(len(events)) {
			shuffled[i] = events[p]
		}
		for _, maxPop := range []int{0, 5, 20} {
			for minCommon := 1; minCommon <= 4; minCommon++ {
				cfg := Config{DayBucket: 10, MinCommonApps: minCommon, MinGroupSize: 2, MaxBucketPopulation: maxPop}
				t.Run(fmt.Sprintf("trial%d/cap%d/min%d", trial, maxPop, minCommon), func(t *testing.T) {
					want := bruteForceDetect(shuffled, cfg)
					d := NewDetector(cfg)
					for i, ev := range shuffled {
						d.IngestEvent(ev)
						if i%97 == 0 {
							d.Groups() // repeated extractions reuse scratch state
						}
					}
					if got := d.QualifyingPairs(); !reflect.DeepEqual(got, want.pairs) {
						t.Errorf("qualifying pairs: got %d, want %d\ngot  %v\nwant %v", len(got), len(want.pairs), got, want.pairs)
					}
					got := d.Groups()
					if !sameGroups(got, want.groups) {
						t.Errorf("groups differ:\ngot  %+v\nwant %+v", got, want.groups)
					}
					if !sameGroups(Detect(shuffled, cfg), got) {
						t.Error("batch Detect differs from the online detector")
					}
					if st := d.Stats(); st != want.stats {
						t.Errorf("stats = %+v, want %+v", st, want.stats)
					}
				})
			}
		}
	}
}

// sameGroups compares group lists, treating nil and empty as equal.
func sameGroups(a, b []Group) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}
