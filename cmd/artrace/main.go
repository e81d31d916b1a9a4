// Command artrace records workload access traces to disk and replays
// them through the simulator — capture a trace once, then evaluate every
// policy against the byte-identical access stream.
//
// Usage:
//
//	artrace record -workload CC -o cc.trace
//	artrace info cc.trace
//	artrace replay -policy ArtMem -ratio 1:4 cc.trace
//	artrace replay -decisions cc.trace        # print the RL decision timeline
//
// The pagetrace subcommand reconstructs per-page lifecycle timelines
// from the journal served by a live daemon's /pagetrace endpoint (or a
// saved copy of it):
//
//	artrace pagetrace http://localhost:8080/pagetrace   # list traced pages
//	artrace pagetrace -page 23 journal.jsonl            # one page's timeline
//
// The spans subcommand renders serving latency attribution from a span
// journal — a live daemon's /spans endpoint or a drain saved by
// artload -spans-out:
//
//	artrace spans http://localhost:7600/spans       # per-tenant stage summary
//	artrace spans -raw -n 20 spans.jsonl            # the last 20 spans verbatim
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/policies"
	"artmem/internal/telemetry"
	"artmem/internal/trace"
	"artmem/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "pagetrace":
		pagetrace(os.Args[2:])
	case "spans":
		spansCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  artrace record -workload <name> [-div N] [-accesses N] -o <file>
  artrace info <file>
  artrace replay [-policy P] [-ratio F:S] [-pagesize N] [-decisions] <file>
  artrace pagetrace [-page N] [-n M] <journal.jsonl | http://host/pagetrace>
  artrace spans [-tenant N] [-n M] [-raw] <spans.jsonl | http://host/spans>`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "artrace:", err)
	os.Exit(1)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "S1", "workload to record")
	div := fs.Int64("div", 128, "footprint divisor")
	acc := fs.Int64("accesses", 4_000_000, "access budget")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		usage()
	}
	spec, err := workloads.ByName(*name)
	if err != nil {
		fatal(err)
	}
	prof := workloads.Profile{Div: *div, PatternAccesses: *acc, AppAccesses: *acc, Seed: 1}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	n, err := trace.Record(f, spec.New(prof))
	if err != nil {
		fatal(err)
	}
	st, _ := f.Stat()
	fmt.Printf("recorded %d accesses of %s into %s (%.1f MB, %.2f bytes/access)\n",
		n, *name, *out, float64(st.Size())/(1<<20), float64(st.Size())/float64(n))
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	var n, writes int64
	for {
		b, ok := r.Next()
		if !ok {
			break
		}
		for _, a := range b {
			if a.Write {
				writes++
			}
		}
		n += int64(len(b))
	}
	if r.Err() != nil {
		fatal(r.Err())
	}
	h := r.Header()
	fmt.Printf("workload   %s\n", h.Name)
	fmt.Printf("footprint  %d MB\n", h.Footprint>>20)
	fmt.Printf("accesses   %d (%.1f%% writes)\n", n, 100*float64(writes)/float64(n))
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	policy := fs.String("policy", "ArtMem", "tiering policy")
	ratio := fs.String("ratio", "1:1", "DRAM:PM ratio")
	pageSize := fs.Int64("pagesize", 16<<10, "migration page size (bytes)")
	decisions := fs.Bool("decisions", false, "print the RL decision timeline after the replay (ArtMem only)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	split, err := harness.ParseRatio(*ratio)
	if err != nil {
		fmt.Fprintln(os.Stderr, "artrace:", err)
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	var pol policies.Policy
	var tel *telemetry.Set
	if strings.EqualFold(*policy, "artmem") {
		art := core.New(core.Config{})
		if *decisions {
			tel = telemetry.NewSet()
			art.SetTelemetry(tel)
		}
		pol = art
	} else if *decisions {
		fatal(fmt.Errorf("-decisions needs the ArtMem policy, not %s", *policy))
	} else {
		fct, err := policies.ByName(*policy)
		if err != nil {
			fatal(err)
		}
		pol = fct.New()
	}
	res := harness.Run(r, pol, harness.Config{
		PageSize: *pageSize,
		Ratio:    split,
	})
	if r.Err() != nil {
		fatal(r.Err())
	}
	fmt.Printf("%s under %s @ %s: exec %.1f ms, DRAM ratio %.3f, %d migrations\n",
		res.Workload, res.Policy, res.Ratio,
		float64(res.ExecNs)/1e6, res.DRAMRatio, res.Migrations)
	if tel != nil {
		printDecisions(tel)
	}
}

// pagetrace reads a page-lifecycle journal (JSONL, as served by
// /pagetrace) from a file or URL and reconstructs timelines. Without
// -page it lists every traced page with its event mix so the reader can
// pick a page worth following; with -page it prints that page's full
// lifecycle, one event per line in journal order.
func pagetrace(args []string) {
	fs := flag.NewFlagSet("pagetrace", flag.ExitOnError)
	page := fs.Int64("page", -1, "reconstruct this page's timeline (default: list pages)")
	n := fs.Int("n", 0, "read only the last N events (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	events, err := readPageEvents(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *n > 0 && len(events) > *n {
		events = events[len(events)-*n:]
	}
	if len(events) == 0 {
		fmt.Println("no page events (is tracing enabled? start artmemd with -pagetrace)")
		return
	}
	if *page >= 0 {
		printTimeline(uint64(*page), events)
		return
	}
	listPages(events)
}

// openSource opens a journal source: an http(s) URL (a live daemon
// endpoint) or a local file (a saved drain).
func openSource(src string) (io.ReadCloser, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			return nil, fmt.Errorf("%s: %s: %s", src, resp.Status,
				strings.TrimSpace(string(body)))
		}
		return resp.Body, nil
	}
	return os.Open(src)
}

func readPageEvents(src string) ([]telemetry.PageEvent, error) {
	r, err := openSource(src)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var events []telemetry.PageEvent
	dec := json.NewDecoder(r)
	for {
		var e telemetry.PageEvent
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: bad journal line after %d events: %w",
				src, len(events), err)
		}
		events = append(events, e)
	}
	return events, nil
}

// listPages summarises the journal per page: how many events of each
// kind, and where the page settled last.
func listPages(events []telemetry.PageEvent) {
	type pageSum struct {
		page            uint64
		total           int
		kinds           map[string]int
		lastTier        string
		firstNs, lastNs int64
	}
	byPage := map[uint64]*pageSum{}
	var order []uint64
	for _, e := range events {
		s := byPage[e.Page]
		if s == nil {
			s = &pageSum{page: e.Page, kinds: map[string]int{}, firstNs: e.TimeNs}
			byPage[e.Page] = s
			order = append(order, e.Page)
		}
		s.total++
		s.kinds[e.Kind]++
		s.lastNs = e.TimeNs
		switch {
		case e.Kind == telemetry.PageKindAlloc:
			s.lastTier = e.Tier
		case e.Kind == telemetry.PageKindMigration && e.Outcome == telemetry.OutcomeSettled:
			s.lastTier = e.To
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	fmt.Printf("%d events across %d traced pages\n\n", len(events), len(order))
	fmt.Println("    page  events  alloc  sample  lru  verdict  migration  tier      span_ms")
	for _, p := range order {
		s := byPage[p]
		tier := s.lastTier
		if tier == "" {
			tier = "?"
		}
		fmt.Printf("  %6d  %6d  %5d  %6d  %3d  %7d  %9d  %-8s  %7.2f\n",
			s.page, s.total,
			s.kinds[telemetry.PageKindAlloc], s.kinds[telemetry.PageKindSample],
			s.kinds[telemetry.PageKindLRU], s.kinds[telemetry.PageKindVerdict],
			s.kinds[telemetry.PageKindMigration], tier,
			float64(s.lastNs-s.firstNs)/1e6)
	}
	fmt.Println("\nrun `artrace pagetrace -page N <src>` for one page's full timeline")
}

// printTimeline renders one page's journal entries in order, formatting
// each kind with the fields that matter for it.
func printTimeline(page uint64, events []telemetry.PageEvent) {
	n := 0
	fmt.Printf("page %d lifecycle\n", page)
	fmt.Println("     seq   time_ms  kind       detail")
	for _, e := range events {
		if e.Page != page {
			continue
		}
		n++
		var detail string
		switch e.Kind {
		case telemetry.PageKindAlloc:
			detail = fmt.Sprintf("placed in %s", e.Tier)
		case telemetry.PageKindSample:
			detail = fmt.Sprintf("PEBS sample in %s (%s)", e.Tier, e.Outcome)
		case telemetry.PageKindLRU:
			detail = fmt.Sprintf("%s -> %s", orNone(e.From), orNone(e.To))
		case telemetry.PageKindVerdict:
			detail = fmt.Sprintf("%s: %s", e.Outcome, e.Reason)
		case telemetry.PageKindMigration:
			detail = fmt.Sprintf("%s -> %s: %s", orNone(e.From), orNone(e.To), e.Outcome)
			if e.Reason != "" {
				detail += " (" + e.Reason + ")"
			}
		default:
			detail = e.Outcome
		}
		fmt.Printf("  %6d  %8.2f  %-9s  %s\n",
			e.Seq, float64(e.TimeNs)/1e6, e.Kind, detail)
	}
	if n == 0 {
		fmt.Printf("  no events — page %d may not be in the sampled subset\n", page)
	}
}

func orNone(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// printDecisions renders the replay's decision trace as one line per
// event — the timeline the paper's Figure 10/11-style analyses read off
// (state, action, reward, threshold, migration outcome per period).
func printDecisions(tel *telemetry.Set) {
	events := tel.Trace.Events(0)
	if total := tel.Trace.Total(); total > uint64(len(events)) {
		fmt.Printf("decision trace: showing last %d of %d events (ring capacity)\n",
			len(events), total)
	}
	fmt.Println("     seq   time_ms  kind       state  reward  quota  thr   promoted  win f/s")
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindDecision:
			fmt.Printf("  %6d  %8.2f  %-9s  %5d  %6.2f  %5d  %3d   %8d  %d/%d\n",
				e.Seq, float64(e.TimeNs)/1e6, e.Kind, e.State, e.Reward,
				e.Quota, e.Threshold, e.Promoted, e.WinFast, e.WinSlow)
		default:
			fmt.Printf("  %6d  %8.2f  %-9s  %s\n",
				e.Seq, float64(e.TimeNs)/1e6, e.Kind, e.Detail)
		}
	}
}
