// Impact: run the full measurement pipeline on a small world and print the
// chi-squared impact comparisons of the paper's Section 4.3 — install-count
// increases, top-chart appearances, and investor funding for baseline vs.
// vetted vs. unvetted app sets.
package main

import (
	"fmt"
	"log"
	"log/slog"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	cfg := sim.TinyConfig()
	study, err := core.Run(cfg, core.Options{
		MilkEveryDays: 4,
		SkipHoney:     true,
		Log:           slog.Default(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	r := &study.Results
	fmt.Printf("\ndataset: %d offers across %d advertised apps\n\n",
		r.Dataset.Offers, r.Dataset.UniqueApps)
	report.WriteOutcome(os.Stdout, "Install-count increases (Table 5)", r.Table5)
	report.WriteOutcome(os.Stdout, "Top-chart appearances (Table 6)", r.Table6)
	report.WriteOutcome(os.Stdout, "Funding raised after campaigns (Table 7)", r.Table7)

	fmt.Println("Interpretation, as in the paper:")
	compare("apps on unvetted IIPs increase install counts", r.Table5.Unvetted, r.Table5.Baseline)
	compare("apps on vetted IIPs appear in top charts", r.Table6.Vetted, r.Table6.Baseline)
	compare("matched developers on vetted IIPs raise funding", r.Table7.Vetted, r.Table7.Baseline)
}

// compare prints a treatment-vs-baseline summary, avoiding nonsense ratios
// when the small-world baseline has zero positives.
func compare(what string, treatment, baseline core.GroupCell) {
	switch {
	case treatment.Frac() <= baseline.Frac():
		fmt.Printf("- %s no more often than baseline (%.1f%% vs %.1f%%)\n",
			what, 100*treatment.Frac(), 100*baseline.Frac())
	case baseline.Positive == 0:
		fmt.Printf("- %s %.1f%% of the time; the baseline never did\n",
			what, 100*treatment.Frac())
	default:
		fmt.Printf("- %s %.1fx more often than baseline\n",
			what, treatment.Frac()/baseline.Frac())
	}
}
