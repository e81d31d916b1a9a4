package telemetry

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestPageTraceNilIsNoOp(t *testing.T) {
	var pt *PageTrace
	if pt.Sampled(0) || pt.Sampled(12345) {
		t.Error("nil trace sampled a page")
	}
	pt.Append(PageEvent{Page: 1})
	if pt.Events(0) != nil || pt.Rate() != 0 {
		t.Error("nil trace accumulated state")
	}
}

func TestPageTraceSamplingDeterministicSubset(t *testing.T) {
	pt := NewPageTrace(16, 64)
	if pt.Rate() != 64 {
		t.Fatalf("rate = %d, want 64", pt.Rate())
	}
	const pages = 1 << 16
	sampled := 0
	for p := uint64(0); p < pages; p++ {
		if pt.Sampled(p) {
			sampled++
		}
		// Determinism: a second trace with the same rate selects the
		// identical subset.
		if pt.Sampled(p) != NewPageTrace(16, 64).Sampled(p) {
			t.Fatalf("page %d sampling not deterministic", p)
		}
	}
	// The hash should select roughly 1/64 of pages (allow 2x slack).
	want := pages / 64
	if sampled < want/2 || sampled > want*2 {
		t.Errorf("sampled %d of %d pages, want ~%d", sampled, pages, want)
	}
}

func TestPageTraceRateRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {100, 128},
	} {
		if got := NewPageTrace(4, tc.in).Rate(); got != tc.want {
			t.Errorf("NewPageTrace(rate %d).Rate() = %d, want %d", tc.in, got, tc.want)
		}
	}
	// Rate 1 traces every page.
	pt := NewPageTrace(4, 1)
	for p := uint64(0); p < 100; p++ {
		if !pt.Sampled(p) {
			t.Fatalf("rate-1 trace skipped page %d", p)
		}
	}
}

func TestPageTraceRingEvictsOldest(t *testing.T) {
	pt := NewPageTrace(4, 1)
	for i := 0; i < 6; i++ {
		pt.Append(PageEvent{Page: uint64(i), Kind: PageKindSample})
	}
	ev := pt.Events(0)
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	if ev[3].Seq != 6 {
		t.Fatalf("last seq = %d, want 6", ev[3].Seq)
	}
	for i, e := range ev {
		if want := uint64(i + 2); e.Page != want {
			t.Errorf("event %d: page %d, want %d (oldest evicted)", i, e.Page, want)
		}
		if want := uint64(i + 3); e.Seq != want {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, want)
		}
	}
	if got := len(pt.Events(2)); got != 2 {
		t.Errorf("Events(2) returned %d events", got)
	}
}

func TestPageTracePageEventsTimeline(t *testing.T) {
	pt := NewPageTrace(64, 1)
	pt.Append(PageEvent{Page: 7, Kind: PageKindAlloc, Tier: "fast"})
	pt.Append(PageEvent{Page: 9, Kind: PageKindAlloc, Tier: "slow"})
	pt.Append(PageEvent{Page: 7, Kind: PageKindSample, Tier: "fast"})
	pt.Append(PageEvent{Page: 7, Kind: PageKindMigration, From: "fast", To: "slow", Outcome: OutcomeSettled})
	var b strings.Builder
	if err := pt.WriteJSONL(&b, 0, 7); err != nil {
		t.Fatal(err)
	}
	var tl []PageEvent
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		var e PageEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		tl = append(tl, e)
	}
	if len(tl) != 3 {
		t.Fatalf("timeline length = %d, want 3", len(tl))
	}
	kinds := []string{PageKindAlloc, PageKindSample, PageKindMigration}
	for i, e := range tl {
		if e.Page != 7 {
			t.Errorf("timeline event %d for page %d", i, e.Page)
		}
		if e.Kind != kinds[i] {
			t.Errorf("timeline event %d kind %q, want %q", i, e.Kind, kinds[i])
		}
	}
}

func TestPageTraceWriteJSONLFilter(t *testing.T) {
	pt := NewPageTrace(64, 1)
	pt.Append(PageEvent{Page: 1, Kind: PageKindAlloc})
	pt.Append(PageEvent{Page: 2, Kind: PageKindAlloc})
	pt.Append(PageEvent{Page: 1, Kind: PageKindSample})

	var all, one strings.Builder
	if err := pt.WriteJSONL(&all, 0, -1); err != nil {
		t.Fatal(err)
	}
	if err := pt.WriteJSONL(&one, 0, 1); err != nil {
		t.Fatal(err)
	}
	countLines := func(s string) int {
		n := 0
		sc := bufio.NewScanner(strings.NewReader(s))
		for sc.Scan() {
			var e PageEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
			}
			n++
		}
		return n
	}
	if got := countLines(all.String()); got != 3 {
		t.Errorf("unfiltered JSONL lines = %d, want 3", got)
	}
	if got := countLines(one.String()); got != 2 {
		t.Errorf("page-1 JSONL lines = %d, want 2", got)
	}
}
