// Command runlog inspects event-sourced run logs written by the simulator
// (incentstudy -events, sim.RunOptions.Log; format in DESIGN.md E6/E8).
//
// Usage:
//
//	runlog cat [-v] [-kind K] run.log       print events (one line each)
//	runlog stats run.log                    per-kind byte histogram, run totals
//	runlog verify run.log                   full replay with verification
//	runlog seek -day D run.log              rebuild state at day D from its segment
//	runlog compact [-o OUT] [-segment-bytes N] run.log
//	                                        rewrite as batched+segmented v3
//	runlog recover [-dry-run] run.log       salvage a torn/corrupt log by
//	                                        truncating to the last valid day
//
// verify rebuilds the entire world state from the log alone — every store
// metric, chart, enforcement action, and ledger balance — and fails if
// any logged chart snapshot, enforcement action, or day-end stat line
// disagrees with the recomputation, or if any frame CRC is wrong.
//
// seek does the same rebuild for one day, but restores the store from the
// nearest segment checkpoint, rebuilds the ledger from the settle records
// before it, and replays only that segment's events — the fast path
// month-scale logs exist for. -day accepts a date (as printed by
// cat/stats) or "last".
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/dates"
	"repro/internal/lockstep"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("runlog: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "cat":
		cat(args)
	case "stats":
		stats(args)
	case "verify":
		verify(args)
	case "seek":
		seek(args)
	case "compact":
		compact(args)
	case "recover":
		recoverLog(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: runlog {cat [-v] [-kind K] | stats | verify | seek -day D | compact [-o OUT] [-segment-bytes N] | recover [-dry-run]} run.log`)
	os.Exit(2)
}

func open(path string) (*os.File, *stream.Reader) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	r, err := stream.NewReader(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return f, r
}

func cat(args []string) {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	verbose := fs.Bool("v", false, "print chart entries and batch device lists in full")
	kind := fs.String("kind", "", "only print events of this kind (e.g. install, settle, day-end)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, r := open(fs.Arg(0))
	defer f.Close()

	h := r.Header()
	fmt.Printf("# run log v%d seed=%d window=%s..%s mediator=%s fee=$%.2f\n",
		h.Version, h.Seed, h.WindowStart, h.WindowEnd, h.MediatorName, h.FeePerUser)

	var ev stream.Event
	for {
		err := r.Next(&ev)
		if err == io.EOF {
			return
		}
		if err == io.ErrUnexpectedEOF {
			log.Fatal("log ends mid-frame (killed run); resume it or verify the prefix")
		}
		if err != nil {
			log.Fatal(err)
		}
		if *kind != "" && ev.Kind.String() != *kind {
			continue
		}
		printEvent(&ev, *verbose)
	}
}

func printEvent(ev *stream.Event, verbose bool) {
	switch ev.Kind {
	case stream.KindDayStart:
		fmt.Printf("== %s ==\n", ev.Day)
	case stream.KindOrganic:
		fmt.Printf("organic       %-28s installs=%d dau=%d sec=%d usd=%.2f\n", ev.Pkg, ev.N, ev.DAU, ev.Seconds, ev.USD)
	case stream.KindClick:
		fmt.Printf("click         %-28s worker=%s\n", ev.Offer, ev.Worker)
	case stream.KindInstall:
		fmt.Printf("install       %-28s device=%s fraud=%.2f\n", ev.Pkg, ev.Device, ev.Fraud)
	case stream.KindInstallBatch:
		if verbose {
			fmt.Printf("install-batch %-28s n=%d fraud=%.2f devices=%v\n", ev.Pkg, ev.N, ev.Fraud, ev.Devices)
		} else {
			fmt.Printf("install-batch %-28s n=%d fraud=%.2f\n", ev.Pkg, ev.N, ev.Fraud)
		}
	case stream.KindPostback:
		fmt.Printf("postback      %-28s event=%d certified=%v\n", ev.Offer, ev.PostEvent, ev.Certified)
	case stream.KindCertifyBatch:
		fmt.Printf("certify-batch %-28s n=%d\n", ev.Offer, ev.N)
	case stream.KindSession:
		fmt.Printf("session       %-28s n=%d sec=%d\n", ev.Pkg, ev.N, ev.Seconds)
	case stream.KindPurchase:
		fmt.Printf("purchase      %-28s usd=%.2f\n", ev.Pkg, ev.USD)
	case stream.KindSettle:
		fmt.Printf("settle        %-28s n=%d batch=%v gross=%.4f aff=%.4f user=%.4f via %s\n",
			ev.Offer, ev.N, ev.Batch, ev.Gross, ev.AffCut, ev.UserPayout, ev.AffAcct)
	case stream.KindEnforce:
		fmt.Printf("enforce       %-28s removed=%d\n", ev.Pkg, ev.N)
	case stream.KindChart:
		fmt.Printf("chart         %-28s entries=%d\n", ev.Chart, len(ev.Entries))
		if verbose {
			for _, e := range ev.Entries {
				fmt.Printf("                #%-3d %-36s %.4f\n", e.Rank, e.Package, e.Score)
			}
		}
	case stream.KindDayEnd:
		fmt.Printf("day-end       %-28s organic=%d incent=%d certified=%d revenue=%.2f\n",
			ev.Day, ev.CumOrganic, ev.CumIncent, ev.CumCertified, ev.CumRevenue)
	}
}

func stats(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, r := open(args[0])
	defer f.Close()

	// The same walk that counts days feeds a default-config lockstep
	// detector, so the log's detection-side accounting (installs ingested,
	// buckets retracted at the population cap, pairs pruned) prints
	// without a second pass.
	det := lockstep.NewDetector(lockstep.DefaultConfig())
	var installs int64

	var ev stream.Event
	var days int
	var last stream.Event
	truncated := false
	for {
		err := r.Next(&ev)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			truncated = true
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		for in := range ev.Installs(r.Day()) {
			installs++
			det.Ingest(in.Device, in.App, in.Day)
		}
		if ev.Kind == stream.KindDayEnd {
			days++
			last = ev
			last.Entries, last.Devices = nil, nil
		}
	}

	h := r.Header()
	fi, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run log %s: %d bytes, v%d, seed=%d, window %s..%s\n", args[0], fi.Size(), h.Version, h.Seed, h.WindowStart, h.WindowEnd)
	base := r.Base()
	fmt.Printf("base snapshot: store=%d ledger=%d mediator=%d bytes\n", len(base.Store), len(base.Ledger), len(base.Mediator))
	fmt.Printf("interned tables: %d devices, %d strings (packages/offers/accounts)\n", len(base.Devices), len(base.Strings))

	rows, scanned, err := stream.Histogram(f)
	if err != nil {
		log.Fatalf("histogram: %v", err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "  kind\tframes\trecords\tpayload\tframing\tcrc\ttotal\t")
	var tot stream.KindStats
	for _, s := range rows {
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			s.Kind, s.Frames, s.Records, s.PayloadBytes, s.FramingBytes, s.CRCBytes,
			s.PayloadBytes+s.FramingBytes+s.CRCBytes)
		tot.Frames += s.Frames
		tot.Records += s.Records
		tot.PayloadBytes += s.PayloadBytes
		tot.FramingBytes += s.FramingBytes
		tot.CRCBytes += s.CRCBytes
	}
	fmt.Fprintf(tw, "  total\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
		tot.Frames, tot.Records, tot.PayloadBytes, tot.FramingBytes, tot.CRCBytes,
		tot.PayloadBytes+tot.FramingBytes+tot.CRCBytes)
	tw.Flush()
	fmt.Printf("%d bytes in complete frames (framing+crc = %.2f%% of scanned)\n",
		scanned, 100*float64(tot.FramingBytes+tot.CRCBytes)/float64(scanned))

	if idx, err := stream.ScanIndex(f); err == nil {
		fmt.Printf("%d segment(s), %d day-start offsets indexed\n", len(idx.Segments), len(idx.Days))
	}
	fmt.Printf("%d complete days\n", days)
	if days > 0 {
		fmt.Printf("through %s: organic=%d incentivized=%d certified=%d revenue=$%.2f\n",
			last.Day, last.CumOrganic, last.CumIncent, last.CumCertified, last.CumRevenue)
	}
	ds := det.Stats()
	fmt.Printf("lockstep (default config): %d installs ingested, %d buckets retracted at cap, %d pairs pruned\n",
		installs, ds.BucketsRetracted, ds.PairsPruned)
	if truncated {
		fmt.Println("NOTE: log ends mid-frame (killed run) — resume from its checkpoint to finish it")
	}
}

func verify(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	res, err := stream.Replay(f)
	if err != nil {
		if res != nil {
			fmt.Printf("replayed %d complete days before the failure\n", res.Stats.Days)
		}
		// Locate the first undecodable frame so a chaos-test failure is
		// diagnosable from the output alone.
		if fi, serr := f.Stat(); serr == nil {
			if info, serr := stream.ScanValid(f, fi.Size()); serr == nil {
				switch {
				case info.Corruption != nil:
					fmt.Printf("first corrupt frame: kind=%s at byte %d (%v); valid prefix ends at byte %d (%d days)\n",
						info.Corruption.Kind, info.Corruption.Offset, info.Corruption.Err, info.ValidEnd, info.Days)
				case info.ValidEnd < info.Size:
					fmt.Printf("log ends mid-frame at byte %d of %d (torn tail, not corruption); valid prefix ends at byte %d (%d days)\n",
						info.ScannedEnd, info.Size, info.ValidEnd, info.Days)
				}
				fmt.Println(`salvage with "runlog recover"`)
			}
		}
		log.Fatalf("FAIL: %v", err)
	}
	fmt.Printf("OK: %d days verified (every frame CRC, %d chart snapshots, enforcement actions, day-end stats)\n",
		res.Stats.Days, res.Stats.Days*3)
	printState(res)
}

func printState(res *stream.ReplayResult) {
	fmt.Printf("replayed state: organic=%d incentivized=%d certified=%d revenue=$%.2f installs=%d apps=%d ledger-sum=%.6f\n",
		res.Stats.OrganicInstalls, res.Stats.IncentivizedInstalls, res.Stats.CertifiedCompletions,
		res.Stats.RevenueUSD, res.InstallRecords, res.Store.NumApps(), res.Ledger.Sum())
}

func seek(args []string) {
	fs := flag.NewFlagSet("seek", flag.ExitOnError)
	dayArg := fs.String("day", "last", `day to rebuild state at: a date as printed by cat, or "last"`)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	idx, err := stream.ScanIndex(f)
	if err != nil {
		log.Fatal(err)
	}
	var day dates.Date
	if *dayArg == "last" {
		last, ok := idx.LastDay()
		if !ok {
			log.Fatal("log has no days")
		}
		day = last
	} else {
		t, err := time.Parse("2006-01-02", *dayArg)
		if err != nil {
			log.Fatalf("-day: want YYYY-MM-DD or \"last\": %v", err)
		}
		day = dates.FromTime(t)
	}
	seg := idx.Segments[idx.Segment(day)]
	res, err := idx.ReplayDay(f, day)
	if err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	fmt.Printf("OK: state at end of %s (day %d of the run), restored from segment %d at %s, %d day(s) of events replayed\n",
		day, res.Stats.Days, seg.Ordinal, seg.FirstDay, day.DaysSince(seg.FirstDay)+1)
	fmt.Printf("segment directory: %d segment(s), %d days indexed, log ends at byte %d (torn=%v)\n",
		len(idx.Segments), len(idx.Days), idx.End, idx.Torn)
	printState(res)
}

func compact(args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	out := fs.String("o", "", "output path (default: INPUT.compact)")
	segBytes := fs.Int64("segment-bytes", 0, "segment rotation threshold in bytes (0 = default 64MiB)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	in := fs.Arg(0)
	outPath := *out
	if outPath == "" {
		outPath = in + ".compact"
	}
	f, err := os.Open(in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	o, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	st, err := stream.Compact(f, o, *segBytes)
	if err != nil {
		o.Close()
		os.Remove(outPath)
		log.Fatalf("FAIL: %v", err)
	}
	if err := o.Close(); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d days -> %s: %d bytes (was %d, %.2f%%), %d segment frame(s)\n",
		in, st.Days, outPath, st.OutBytes, fi.Size(), 100*float64(st.OutBytes)/float64(fi.Size()), st.Segments)
}

func recoverLog(args []string) {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	dry := fs.Bool("dry-run", false, "report the salvage point without truncating the file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	var info stream.RecoverInfo
	if *dry {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			log.Fatal(err)
		}
		info, err = stream.ScanValid(f, fi.Size())
		if err != nil {
			log.Fatalf("FAIL: %v", err)
		}
	} else {
		var err error
		info, err = stream.Recover(path)
		if err != nil {
			log.Fatalf("FAIL: %v", err)
		}
	}
	if info.Corruption != nil {
		fmt.Printf("first corrupt frame: kind=%s at byte %d (%v)\n",
			info.Corruption.Kind, info.Corruption.Offset, info.Corruption.Err)
	}
	verb := "salvaged"
	if *dry {
		verb = "would salvage"
	}
	if info.Dropped() == 0 {
		fmt.Printf("%s: intact, %d complete days in %d bytes, nothing to drop\n", path, info.Days, info.Size)
		return
	}
	fmt.Printf("%s: %s %d complete days (through %s), truncating %d -> %d bytes (drops %d)\n",
		path, verb, info.Days, info.LastDay, info.Size, info.ValidEnd, info.Dropped())
}
