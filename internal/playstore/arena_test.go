package playstore

import (
	"testing"

	"repro/internal/dates"
	"repro/internal/randx"
)

// pairedApp is the one app of buildPairFixture that buys referral
// installs.
const pairedApp = "com.paid"

// buildPairFixture builds a small store in which every app records organic
// installs and sessions each day, and pairedApp also takes referral
// installs from high-fraud devices, which the enforcer (sensitivity 1, so
// every eligible scan fires) partly removes. The horizon covers the run,
// as the engine's does, so no range relocates.
func buildPairFixture(t testing.TB) *Store {
	t.Helper()
	day0 := dates.StudyStart
	s := New(day0)
	s.SetHorizon(day0.AddDays(9))
	s.SetEnforcer(NewEnforcer(randx.Derive(9, "enforce"), 1))
	s.AddDeveloper(Developer{ID: "d", Name: "D"})
	pkgs := []string{pairedApp, "com.o1", "com.o2", "com.o3", "com.o4"}
	for _, pkg := range pkgs {
		if err := s.Publish(Listing{Package: pkg, Title: pkg, Genre: "Puzzle", Developer: "d", Released: day0}); err != nil {
			t.Fatal(err)
		}
	}
	for d := day0; d < day0.AddDays(10); d++ {
		for _, pkg := range pkgs {
			fraud := 0.05
			if pkg == pairedApp {
				fraud = 1
			}
			if err := s.RecordInstallBatch(pkg, d, 5, SourceOrganic, fraud); err != nil {
				t.Fatal(err)
			}
			if err := s.RecordSessionBatch(pkg, d, 3, 60); err != nil {
				t.Fatal(err)
			}
		}
		if d >= day0.AddDays(4) {
			if err := s.RecordInstall(pairedApp, Install{Day: d, Source: SourceReferral, FraudScore: 1}); err != nil {
				t.Fatal(err)
			}
			if err := s.RecordInstallBatch(pairedApp, d, 9, SourceReferral, 1); err != nil {
				t.Fatal(err)
			}
		}
		s.StepDay(d)
	}
	return s
}

// TestArenaReferralPair pins the arena's exact layout on a store where
// only one app takes referral installs: that app alone holds a referral
// pair range, as long as its dense range, and every enforcement removal
// lands inside it. A decoded snapshot of the store has the same one pair.
func TestArenaReferralPair(t *testing.T) {
	live := buildPairFixture(t)
	decoded, err := DecodeSnapshot(live.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	removed, err := live.Console(pairedApp, dates.StudyStart, live.Today())
	if err != nil {
		t.Fatal(err)
	}
	var wantRemoved int64
	for _, d := range removed {
		wantRemoved += d.Removed
	}
	if wantRemoved == 0 {
		t.Fatal("fixture has no enforcement removal")
	}
	for name, s := range map[string]*Store{"live": live, "decoded": decoded} {
		var paired []*app
		for i := range s.shards {
			for _, a := range s.shards[i].order {
				if a.n == 0 {
					t.Fatalf("%s: %s wrote no day", name, a.pkg)
				}
				if a.paired {
					paired = append(paired, a)
				}
			}
		}
		if len(paired) != 1 || paired[0].pkg != pairedApp {
			t.Fatalf("%s: %d apps hold a referral pair, want only %s", name, len(paired), pairedApp)
		}
		a := paired[0]
		ar := a.ar
		if len(ar.referral) != a.room || len(ar.removed) != a.room {
			t.Fatalf("%s: shard pair holds %d/%d slots, want the paired app's room %d",
				name, len(ar.referral), len(ar.removed), a.room)
		}
		var inRange, inColumn int64
		for i, v := range ar.removed {
			inColumn += v
			if i >= a.pair && i < a.pair+a.room {
				inRange += v
			}
		}
		if inRange != wantRemoved || inColumn != wantRemoved {
			t.Fatalf("%s: removed %d in the pair range, %d in the column, want %d in the range",
				name, inRange, inColumn, wantRemoved)
		}
	}
}
