package lru

import (
	"fmt"
	"math/rand"
	"testing"

	"artmem/internal/memsim"
)

// refAge is the straightforward second-chance pass Age must reproduce:
// copy each list's scanned tail segment, then push every page onto the
// head of its destination list one by one.
func refAge(l *PageLists, t memsim.TierID, scan int, referenced func(memsim.PageID) bool) {
	active, inactive := ActiveOf(t), InactiveOf(t)
	for _, src := range []ListID{active, inactive} {
		for _, p := range l.CollectTail(src, scan) {
			if referenced(p) {
				l.PushHead(active, p)
			} else {
				l.PushHead(inactive, p)
			}
		}
	}
}

type transition struct {
	p        memsim.PageID
	from, to ListID
}

// ageProbe is one PageLists plus a record of what aging asked and did.
type ageProbe struct {
	l      *PageLists
	bits   []bool
	calls  []memsim.PageID
	events []transition
}

func newAgeProbe(n int) *ageProbe {
	a := &ageProbe{l: New(n), bits: make([]bool, n)}
	a.l.SetTransitionHook(func(p memsim.PageID, from, to ListID) {
		a.events = append(a.events, transition{p, from, to})
	})
	return a
}

// referenced reports and clears p's bit, recording the call.
func (a *ageProbe) referenced(p memsim.PageID) bool {
	a.calls = append(a.calls, p)
	r := a.bits[p]
	a.bits[p] = false
	return r
}

// TestAgeMatchesReference runs Age and refAge side by side on random
// lists, scans and referenced bits, and requires identical lists, links,
// referenced-call order and transition events after every round.
func TestAgeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 3000; c++ {
		n := 1 + rng.Intn(60)
		got, want := newAgeProbe(n), newAgeProbe(n)
		for _, p := range rng.Perm(n) {
			id := FastActive + ListID(rng.Intn(int(numLists-FastActive)))
			got.l.PushHead(id, memsim.PageID(p))
			want.l.PushHead(id, memsim.PageID(p))
		}
		for round := 0; round < 5; round++ {
			scan := rng.Intn(n + 5)
			tier := memsim.Fast
			if rng.Intn(2) == 1 {
				tier = memsim.Slow
			}
			for p := range got.bits {
				got.bits[p] = rng.Intn(2) == 1
				want.bits[p] = got.bits[p]
			}
			got.calls, want.calls = got.calls[:0], want.calls[:0]
			got.events, want.events = got.events[:0], want.events[:0]
			got.l.Age(tier, scan, got.referenced)
			refAge(want.l, tier, scan, want.referenced)
			if diff := diffAge(got, want); diff != "" {
				t.Fatalf("case %d round %d (n=%d tier=%v scan=%d): %s", c, round, n, tier, scan, diff)
			}
		}
	}
}

// diffAge describes the first difference between two probes, or "".
func diffAge(got, want *ageProbe) string {
	for id := FastActive; id < numLists; id++ {
		g, w := walkHead(got.l, id), walkHead(want.l, id)
		if !equalPages(g, w) {
			return fmt.Sprintf("%v = %v, want %v", id, g, w)
		}
		if got.l.Len(id) != want.l.Len(id) || got.l.Tail(id) != want.l.Tail(id) {
			return fmt.Sprintf("%v: Len or Tail differs", id)
		}
	}
	for i := 0; i < len(got.l.list); i++ {
		p := memsim.PageID(i)
		if got.l.ListOf(p) != want.l.ListOf(p) || got.l.prev[p] != want.l.prev[p] ||
			got.l.Next(p) != want.l.Next(p) {
			return fmt.Sprintf("ListOf/Prev/Next of page %d differ", p)
		}
	}
	if !equalPages(got.calls, want.calls) {
		return fmt.Sprintf("referenced calls = %v, want %v", got.calls, want.calls)
	}
	if len(got.events) != len(want.events) {
		return fmt.Sprintf("transition events = %v, want %v", got.events, want.events)
	}
	for i := range got.events {
		if got.events[i] != want.events[i] {
			return fmt.Sprintf("transition events = %v, want %v", got.events, want.events)
		}
	}
	return ""
}

func equalPages(a, b []memsim.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayCellLists builds lists shaped like one replay cell's (XSBench
// Div 64 at 1:4): 35,328 pages with 20% in the fast tier, each tier split
// evenly between its active and inactive lists. rearm marks a fixed random
// half of the pages referenced; referenced reports and clears those bits.
func replayCellLists() (l *PageLists, rearm func(), referenced func(memsim.PageID) bool) {
	const numPages = 35328
	rng := rand.New(rand.NewSource(1))
	l = New(numPages)
	armed, bits := make([]bool, numPages), make([]bool, numPages)
	for i := 0; i < numPages; i++ {
		id := SlowActive
		if i < numPages/5 {
			id = FastActive
		}
		if i%2 == 1 {
			id = InactiveOf(TierOf(id))
		}
		l.PushHead(id, memsim.PageID(i))
		armed[i] = rng.Intn(2) == 1
	}
	rearm = func() { copy(bits, armed) }
	referenced = func(p memsim.PageID) bool {
		r := bits[p]
		bits[p] = false
		return r
	}
	return l, rearm, referenced
}

func TestAgeAllocs(t *testing.T) {
	l, rearm, referenced := replayCellLists()
	scan := len(l.list)/4 + 1
	for _, tier := range []memsim.TierID{memsim.Fast, memsim.Slow} {
		allocs := testing.AllocsPerRun(20, func() {
			rearm()
			l.Age(tier, scan, referenced)
		})
		if allocs != 0 {
			t.Errorf("Age(%v) allocates %.1f times per call, want 0", tier, allocs)
		}
	}
}

// BenchmarkAge times one sampling tick's aging work in a replay cell:
// both tiers at scanQuota = NumPages/4+1, half the pages referenced.
func BenchmarkAge(b *testing.B) {
	l, rearm, referenced := replayCellLists()
	scan := len(l.list)/4 + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rearm()
		l.Age(memsim.Fast, scan, referenced)
		l.Age(memsim.Slow, scan, referenced)
	}
}
