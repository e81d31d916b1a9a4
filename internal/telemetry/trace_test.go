package telemetry

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTraceAppendAndOrder(t *testing.T) {
	tr := NewTrace(8)
	for i := 0; i < 5; i++ {
		tr.Append(Event{Kind: KindDecision, TimeNs: int64(i) * 10})
	}
	ev := tr.Events(0)
	if len(ev) != 5 || tr.Total() != 5 {
		t.Fatalf("len=%d total=%d", len(ev), tr.Total())
	}
	for i, e := range ev {
		if e.Seq != uint64(i+1) || e.TimeNs != int64(i)*10 {
			t.Errorf("event %d = seq %d time %d", i, e.Seq, e.TimeNs)
		}
	}
	if last := tr.Events(1); len(last) != 1 || last[0].Seq != 5 {
		t.Errorf("Events(1) = %+v", last)
	}
}

func TestTraceEviction(t *testing.T) {
	tr := NewTrace(4)
	for i := 1; i <= 10; i++ {
		tr.Append(Event{State: i})
	}
	ev := tr.Events(0)
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
	// Oldest retained must be state 7 (10 appended, 4 kept).
	for i, want := range []int{7, 8, 9, 10} {
		if ev[i].State != want {
			t.Errorf("event %d state = %d, want %d", i, ev[i].State, want)
		}
	}
	// A partial read returns the most recent n, oldest first.
	tail := tr.Events(2)
	if len(tail) != 2 || tail[0].State != 9 || tail[1].State != 10 {
		t.Errorf("Events(2) = %+v", tail)
	}
}

func TestTraceEmptyReads(t *testing.T) {
	tr := NewTrace(4)
	if ev := tr.Events(0); len(ev) != 0 {
		t.Errorf("empty trace returned %d events", len(ev))
	}
	if ev := tr.Events(1); len(ev) != 0 {
		t.Errorf("Events(1) on empty trace returned %d events", len(ev))
	}
	var b strings.Builder
	if err := tr.WriteJSONL(&b, 0); err != nil || b.Len() != 0 {
		t.Errorf("WriteJSONL on empty trace: %q err %v", b.String(), err)
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(16)
	tr.Append(Event{Kind: KindDecision, State: 9, Reward: -0.5, Quota: 64, Threshold: 3, WinFast: 10, WinSlow: 2})
	tr.Append(Event{Kind: KindDegraded, Degraded: true, Detail: "8 empty windows"})
	var b strings.Builder
	if err := tr.WriteJSONL(&b, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events", len(events))
	}
	if events[0].Kind != KindDecision || events[0].Quota != 64 || events[0].Reward != -0.5 {
		t.Errorf("decision event = %+v", events[0])
	}
	if events[1].Kind != KindDegraded || !events[1].Degraded || events[1].Detail == "" {
		t.Errorf("degraded event = %+v", events[1])
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Append(Event{Kind: KindDecision})
			}
		}()
	}
	for i := 0; i < 100; i++ {
		tr.Events(16)
	}
	wg.Wait()
	if tr.Total() != 2000 {
		t.Errorf("total = %d, want 2000", tr.Total())
	}
	if n := len(tr.Events(0)); n != 64 {
		t.Errorf("len = %d, want 64", n)
	}
}

func TestNewSet(t *testing.T) {
	s := NewSet()
	if s.Registry == nil || s.Trace == nil {
		t.Fatal("NewSet returned nil components")
	}
}
