package sweep

import (
	"context"
	"testing"

	"repro/internal/scenario"
)

// pinnedCellDigests are the CellDigests of one 20-day micro cell per
// built-in scenario at seed 20190301. They pin a cell's output across
// changes to how a cell stores its run state (its ledger, run-log buffer
// and install log): a storage change that perturbs any simulated value,
// detector input or score moves a digest.
var pinnedCellDigests = map[string]string{
	"paper-baseline": "b2edf45f79cdcb2cb8e2b197b8ddce892a8823b147413d40422cba8e8b44490b",
	"jitter":         "ea39706d72afe5072d07659ae5de157e4ccaa9c46bd7b3dc44e7aba54df62480",
	"sybil-split":    "d70e8bb29bc834dca05b193baf6653d9ee5c721b864ac757880ebcd06fd22c42",
	"device-churn":   "844437cf5b00e916bf25d97f5c50cc6151fe33b122c0d02acbc1850b1b83f7cc",
	"slow-drip":      "8086bf17cd04fc72dd89a0b431fa8fca074f236187cde4bde0182250e5291906",
	"burst":          "db26d8ab77b1f3874b2d325a253cea6171196235d5c1c2941962218c0a70302e",
	"organic-mimic":  "6b02eac5a9e5cc8861e5fc6f75f01ca94c732f1dbc22b04cc8394c40e40a9b8e",
}

func TestPinnedCellDigests(t *testing.T) {
	const seed = 20190301
	for _, b := range scenario.Builtins() {
		sp, ok := scenario.Lookup(microName(t, b.Name))
		if !ok {
			t.Fatalf("micro %s missing", b.Name)
		}
		cell, _, err := (&CellRunner{}).Run(context.Background(), sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := CellDigest(&cell), pinnedCellDigests[b.Name]; got != want {
			t.Errorf("%s: cell digest %s, want %s", b.Name, got, want)
		}
	}
}
