package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanJournalNilIsNoOp(t *testing.T) {
	var j *SpanJournal
	if j.Sampled(1) {
		t.Fatal("nil journal sampled a batch")
	}
	j.Append(Span{Batch: 1})
	if j.Total() != 0 || j.Rate() != 0 {
		t.Fatal("nil journal retained state")
	}
	if got := j.Spans(0); got != nil {
		t.Fatalf("nil journal returned spans: %v", got)
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf, 0, -1); err != nil || buf.Len() != 0 {
		t.Fatalf("nil journal wrote output: err=%v len=%d", err, buf.Len())
	}
}

func TestSpanJournalSamplingDeterministicSubset(t *testing.T) {
	j := NewSpanJournal(64, 64)
	if j.Rate() != 64 {
		t.Fatalf("rate = %d, want 64", j.Rate())
	}
	n := 0
	for b := uint64(0); b < 64_000; b++ {
		if j.Sampled(b) != j.Sampled(b) {
			t.Fatalf("sampling of batch %d not deterministic", b)
		}
		if j.Sampled(b) {
			n++
		}
	}
	// 1/64 of 64000 = 1000 expected; the mixed hash should land within
	// a loose factor of two.
	if n < 500 || n > 2000 {
		t.Fatalf("sampled %d of 64000 batches, want ~1000", n)
	}
	all := NewSpanJournal(8, 1)
	for b := uint64(0); b < 100; b++ {
		if !all.Sampled(b) {
			t.Fatalf("rate-1 journal skipped batch %d", b)
		}
	}
}

func TestSpanJournalRingEvictsOldest(t *testing.T) {
	j := NewSpanJournal(4, 1)
	for i := 1; i <= 6; i++ {
		j.Append(Span{Batch: uint64(i)})
	}
	if j.Total() != 6 {
		t.Fatalf("total=%d, want 6", j.Total())
	}
	got := j.Spans(0)
	if len(got) != 4 {
		t.Fatalf("Spans(0) returned %d spans", len(got))
	}
	for i, s := range got {
		if want := uint64(i + 3); s.Batch != want || s.Seq != want {
			t.Fatalf("span %d: batch=%d seq=%d, want %d", i, s.Batch, s.Seq, want)
		}
	}
}

func TestSpanTotalNs(t *testing.T) {
	s := Span{DecodeNs: 1, QueueNs: 2, StallNs: 3, CoalesceNs: 4, ApplyNs: 5, AckNs: 6}
	if s.TotalNs() != 21 {
		t.Fatalf("TotalNs = %d, want 21", s.TotalNs())
	}
}

// TestSpanJSONLSchema pins the /spans JSONL field set: every key is
// always present, and no unknown keys appear.
func TestSpanJSONLSchema(t *testing.T) {
	j := NewSpanJournal(8, 1)
	j.Append(Span{Batch: 7, Tenant: 2, ClientSeq: 9, Records: 256,
		Outcome: SpanAcked, StartNs: 100, QueueNs: 50, ApplyNs: 25})
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf, 0, -1); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSONL line: %v", err)
	}
	want := []string{
		"seq", "batch", "start_ns", "tenant", "client_seq", "records",
		"outcome", "decode_ns", "queue_ns", "stall_ns", "coalesce_ns",
		"apply_ns", "ack_ns",
	}
	if len(m) != len(want) {
		t.Fatalf("span JSON has %d keys, want %d: %v", len(m), len(want), m)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Fatalf("span JSON missing pinned key %q", k)
		}
	}
}

func TestSpanJournalWriteJSONLTenantFilter(t *testing.T) {
	j := NewSpanJournal(16, 1)
	for i := 0; i < 6; i++ {
		j.Append(Span{Batch: uint64(i), Tenant: i % 2, Outcome: SpanAcked})
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf, 0, 1); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Tenant != 1 {
			t.Fatalf("tenant filter leaked tenant %d", s.Tenant)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("filtered drain has %d lines, want 3", lines)
	}
	var all strings.Builder
	if err := j.WriteJSONL(&all, 2, -1); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(all.String(), "\n"); n != 2 {
		t.Fatalf("n=2 drain has %d lines", n)
	}
}
