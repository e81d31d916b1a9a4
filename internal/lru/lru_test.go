package lru

import (
	"testing"
	"testing/quick"

	"artmem/internal/memsim"
)

func TestListIDHelpers(t *testing.T) {
	if ActiveOf(memsim.Fast) != FastActive || ActiveOf(memsim.Slow) != SlowActive {
		t.Error("ActiveOf wrong")
	}
	if InactiveOf(memsim.Fast) != FastInactive || InactiveOf(memsim.Slow) != SlowInactive {
		t.Error("InactiveOf wrong")
	}
	if TierOf(FastActive) != memsim.Fast || TierOf(SlowInactive) != memsim.Slow {
		t.Error("TierOf wrong")
	}
	for id := None; id < numLists; id++ {
		if id.String() == "" {
			t.Errorf("empty String for %d", id)
		}
	}
}

func TestTierOfNonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TierOf(None) did not panic")
		}
	}()
	TierOf(None)
}

func TestPushHeadOrder(t *testing.T) {
	l := New(10)
	l.PushHead(FastActive, 1)
	l.PushHead(FastActive, 2)
	l.PushHead(FastActive, 3)
	// Head-to-tail order: 3, 2, 1.
	assertPages(t, walkHead(l, FastActive), []memsim.PageID{3, 2, 1})
	gotT := l.CollectTail(FastActive, 10)
	assertPages(t, gotT, []memsim.PageID{1, 2, 3})
	if l.Head(FastActive) != 3 || l.Tail(FastActive) != 1 {
		t.Errorf("head/tail = %d/%d", l.Head(FastActive), l.Tail(FastActive))
	}
}

func TestMoveBetweenLists(t *testing.T) {
	l := New(10)
	l.PushHead(FastActive, 5)
	if l.ListOf(5) != FastActive {
		t.Fatalf("ListOf = %v", l.ListOf(5))
	}
	l.PushHead(SlowActive, 5) // implicit removal from FastActive
	if l.Len(FastActive) != 0 || l.Len(SlowActive) != 1 {
		t.Errorf("lens = %d/%d", l.Len(FastActive), l.Len(SlowActive))
	}
	if l.ListOf(5) != SlowActive {
		t.Errorf("ListOf = %v", l.ListOf(5))
	}
}

func TestRemove(t *testing.T) {
	l := New(10)
	pushHeads(l, FastInactive, 1, 2, 3)
	l.Remove(2) // middle
	assertPages(t, walkHead(l, FastInactive), []memsim.PageID{1, 3})
	l.Remove(1) // head
	assertPages(t, walkHead(l, FastInactive), []memsim.PageID{3})
	l.Remove(3) // tail, single element
	if l.Len(FastInactive) != 0 || l.Head(FastInactive) != memsim.NoPage ||
		l.Tail(FastInactive) != memsim.NoPage {
		t.Error("list not empty after removing all")
	}
	l.Remove(7) // unlisted: no-op
	if l.ListOf(7) != None {
		t.Error("unlisted page got a list")
	}
}

func TestPushNoneRemoves(t *testing.T) {
	l := New(4)
	l.PushHead(FastActive, 0)
	l.PushHead(None, 0)
	if l.ListOf(0) != None || l.Len(FastActive) != 0 {
		t.Error("PushHead(None) did not remove")
	}
}

func TestFromTailEarlyStop(t *testing.T) {
	l := New(10)
	for i := memsim.PageID(0); i < 5; i++ {
		l.PushHead(FastActive, i)
	}
	visited := 0
	l.FromTail(FastActive, 10, func(memsim.PageID) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Errorf("visited %d, want 2", visited)
	}
	// Bounded by n.
	visited = 0
	l.FromTail(FastActive, 3, func(memsim.PageID) bool { visited++; return true })
	if visited != 3 {
		t.Errorf("visited %d, want 3", visited)
	}
}

func TestAgeSecondChance(t *testing.T) {
	l := New(8)
	// Active: pages 0,1 (0 referenced). Inactive: pages 2,3 (3 referenced).
	pushHeads(l, FastActive, 0, 1)
	pushHeads(l, FastInactive, 2, 3)
	refd := map[memsim.PageID]bool{0: true, 3: true}
	l.Age(memsim.Fast, 10, func(p memsim.PageID) bool {
		r := refd[p]
		refd[p] = false
		return r
	})
	if l.ListOf(0) != FastActive {
		t.Errorf("referenced active page 0 moved to %v", l.ListOf(0))
	}
	if l.ListOf(1) != FastInactive {
		t.Errorf("unreferenced active page 1 on %v, want inactive", l.ListOf(1))
	}
	if l.ListOf(2) != FastInactive {
		t.Errorf("unreferenced inactive page 2 on %v, want inactive", l.ListOf(2))
	}
	if l.ListOf(3) != FastActive {
		t.Errorf("referenced inactive page 3 on %v, want active", l.ListOf(3))
	}
}

func TestAgeDoesNotTouchOtherTier(t *testing.T) {
	l := New(4)
	l.PushHead(SlowActive, 0)
	l.Age(memsim.Fast, 10, func(memsim.PageID) bool { return false })
	if l.ListOf(0) != SlowActive {
		t.Errorf("aging fast tier moved slow page to %v", l.ListOf(0))
	}
}

// Property: under arbitrary operation sequences, (a) sizes equal the
// lengths walked from head, (b) every page is on the list ListOf claims,
// (c) walking head→tail and tail→head give reversed sequences.
func TestListInvariantsProperty(t *testing.T) {
	const n = 16
	f := func(ops []uint16) bool {
		l := New(n)
		for _, op := range ops {
			p := memsim.PageID(op % n)
			id := ListID(op / n % uint16(numLists))
			if (op/(n*uint16(numLists)))%2 == 0 {
				l.PushHead(id, p)
			} else {
				l.Remove(p)
			}
		}
		total := 0
		for id := FastActive; id < numLists; id++ {
			fwd := walkHead(l, id)
			if len(fwd) != l.Len(id) {
				return false
			}
			var bwd []memsim.PageID
			l.FromTail(id, n+1, func(p memsim.PageID) bool {
				bwd = append(bwd, p)
				return true
			})
			if len(bwd) != len(fwd) {
				return false
			}
			for i := range fwd {
				if fwd[i] != bwd[len(bwd)-1-i] {
					return false
				}
				if l.ListOf(fwd[i]) != id {
					return false
				}
			}
			total += len(fwd)
		}
		// Every page not on a list must claim None.
		onList := 0
		for p := memsim.PageID(0); p < n; p++ {
			if l.ListOf(p) != None {
				onList++
			}
		}
		return onList == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// walkHead returns list id head→tail, walked with Head and Next.
func walkHead(l *PageLists, id ListID) []memsim.PageID {
	var out []memsim.PageID
	for p := l.Head(id); p != memsim.NoPage; p = l.Next(p) {
		out = append(out, p)
	}
	return out
}

// pushHeads builds list id with pages head→tail in the order given.
func pushHeads(l *PageLists, id ListID, pages ...memsim.PageID) {
	for i := len(pages) - 1; i >= 0; i-- {
		l.PushHead(id, pages[i])
	}
}

func assertPages(t *testing.T, got, want []memsim.PageID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pages = %v, want %v", got, want)
		}
	}
}

func BenchmarkPushHeadRemove(b *testing.B) {
	l := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := memsim.PageID(i & (1<<16 - 1))
		l.PushHead(FastActive, p)
	}
}

func TestTransitionHook(t *testing.T) {
	l := New(8)
	type move struct {
		p        memsim.PageID
		from, to ListID
	}
	var got []move
	l.SetTransitionHook(func(p memsim.PageID, from, to ListID) {
		got = append(got, move{p, from, to})
	})

	l.PushHead(FastActive, 1)   // none -> fast-active
	l.PushHead(FastActive, 1)   // refresh: silent
	l.PushHead(FastInactive, 1) // fast-active -> fast-inactive
	l.PushHead(SlowActive, 1)   // fast-inactive -> slow-active
	l.Remove(1)                 // slow-active -> none
	l.Remove(1)                 // unlisted: silent
	l.PushHead(None, 2)         // unlisted push-to-none: silent

	want := []move{
		{1, None, FastActive},
		{1, FastActive, FastInactive},
		{1, FastInactive, SlowActive},
		{1, SlowActive, None},
	}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Uninstalling restores silence.
	l.SetTransitionHook(nil)
	l.PushHead(FastActive, 3)
	if len(got) != len(want) {
		t.Error("hook fired after removal")
	}
}

func TestTransitionHookDuringAge(t *testing.T) {
	l := New(4)
	fires := 0
	l.PushHead(FastActive, 0)
	l.PushHead(FastInactive, 1)
	l.SetTransitionHook(func(p memsim.PageID, from, to ListID) {
		if from == to {
			t.Errorf("hook fired for same-list refresh of page %d on %v", p, from)
		}
		fires++
	})
	// Page 0 unreferenced: active -> inactive. Page 1 referenced:
	// inactive -> active. Both are real transitions.
	refs := map[memsim.PageID]bool{1: true}
	l.Age(memsim.Fast, 10, func(p memsim.PageID) bool { return refs[p] })
	if fires != 2 {
		t.Errorf("hook fired %d times during aging, want 2", fires)
	}
}
