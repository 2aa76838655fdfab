package sweep

import (
	"context"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkCellRun runs one in-memory paper-baseline cell on the tiny
// world: the world build, the 121-day run feeding its installs to the
// detector at each day barrier, and the scoring. Run with -benchmem; the
// bytes a cell allocates are what its world, ledger and detector keep (it
// writes no run log, and its install log only counts records).
func BenchmarkCellRun(b *testing.B) {
	sp, ok := scenario.Lookup("paper-baseline")
	if !ok {
		b.Fatal("paper-baseline missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := (&CellRunner{}).Run(context.Background(), sp, 0); err != nil {
			b.Fatal(err)
		}
	}
}
