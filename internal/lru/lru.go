// Package lru implements Linux-style page LRU lists: each memory tier
// maintains an active and an inactive list, and pages move between them
// based on referenced (accessed) bits, second-chance style.
//
// ArtMem uses these lists for its recency-aware page sorting (§4.3):
// demotion candidates come from the tail of the fast tier's inactive
// list, promotion candidates from the head of the capacity tier's active
// list, and — unlike the conservative status-preserving policies of prior
// systems — a migrated page is always inserted at the head of the
// destination's active list.
//
// The lists are intrusive: per-page link storage is allocated once and
// each page is on at most one list. Every operation is O(1) except Age and
// CollectTail, which are O(scan); Age allocates nothing.
//
// Lists are single-threaded; nothing here locks.
package lru

import (
	"fmt"

	"artmem/internal/memsim"
)

// ListID names one of the four page lists (or none).
type ListID uint8

// The lists. None means the page is not on any list (e.g. not yet
// allocated).
const (
	None ListID = iota
	FastActive
	FastInactive
	SlowActive
	SlowInactive
	numLists
)

// String returns a human-readable list name.
func (id ListID) String() string {
	switch id {
	case None:
		return "none"
	case FastActive:
		return "fast-active"
	case FastInactive:
		return "fast-inactive"
	case SlowActive:
		return "slow-active"
	case SlowInactive:
		return "slow-inactive"
	}
	return fmt.Sprintf("ListID(%d)", uint8(id))
}

// ActiveOf returns the active list of tier t.
func ActiveOf(t memsim.TierID) ListID {
	if t == memsim.Fast {
		return FastActive
	}
	return SlowActive
}

// InactiveOf returns the inactive list of tier t.
func InactiveOf(t memsim.TierID) ListID {
	if t == memsim.Fast {
		return FastInactive
	}
	return SlowInactive
}

// PageLists holds the four lists over a fixed page space.
type PageLists struct {
	prev, next []memsim.PageID
	list       []ListID
	head, tail [numLists]memsim.PageID
	size       [numLists]int

	// transition, when non-nil, observes every list change: it fires
	// after page p has moved from one list to another (to == None for a
	// bare removal). Same-list reinsertions (recency refreshes) do not
	// fire — they are position changes, not state changes. During Age it
	// fires in scan order while the scanned segment is being relinked, so
	// it must not read the lists.
	transition func(p memsim.PageID, from, to ListID)
}

// SetTransitionHook installs fn as the list-transition observer (nil to
// remove). The page-lifecycle tracer uses this to journal LRU state
// changes for its sampled pages.
func (l *PageLists) SetTransitionHook(fn func(p memsim.PageID, from, to ListID)) {
	l.transition = fn
}

// New returns empty lists for a space of numPages pages.
func New(numPages int) *PageLists {
	l := &PageLists{
		prev: make([]memsim.PageID, numPages),
		next: make([]memsim.PageID, numPages),
		list: make([]ListID, numPages),
	}
	for i := range l.prev {
		l.prev[i], l.next[i] = memsim.NoPage, memsim.NoPage
	}
	for i := range l.head {
		l.head[i], l.tail[i] = memsim.NoPage, memsim.NoPage
	}
	return l
}

// ListOf returns the list page p currently belongs to (None if unlisted).
func (l *PageLists) ListOf(p memsim.PageID) ListID { return l.list[p] }

// Len returns the number of pages on list id.
func (l *PageLists) Len(id ListID) int { return l.size[id] }

// Head returns the first page of list id, or memsim.NoPage when empty.
// The head is the most recently inserted end for PushHead.
func (l *PageLists) Head(id ListID) memsim.PageID { return l.head[id] }

// Tail returns the last page of list id, or memsim.NoPage when empty.
func (l *PageLists) Tail(id ListID) memsim.PageID { return l.tail[id] }

// Next returns the page after p toward the tail, or memsim.NoPage.
func (l *PageLists) Next(p memsim.PageID) memsim.PageID { return l.next[p] }

// remove unlinks p without firing the transition hook and returns the
// list it was on (None if unlisted). PushHead uses it so a move fires one
// from→to transition rather than a remove plus an insert.
func (l *PageLists) remove(p memsim.PageID) ListID {
	id := l.list[p]
	if id == None {
		return None
	}
	pr, nx := l.prev[p], l.next[p]
	if pr != memsim.NoPage {
		l.next[pr] = nx
	} else {
		l.head[id] = nx
	}
	if nx != memsim.NoPage {
		l.prev[nx] = pr
	} else {
		l.tail[id] = pr
	}
	l.prev[p], l.next[p] = memsim.NoPage, memsim.NoPage
	l.list[p] = None
	l.size[id]--
	return id
}

// notify fires the transition hook for a completed move. Same-list
// refreshes stay silent.
func (l *PageLists) notify(p memsim.PageID, from, to ListID) {
	if l.transition != nil && from != to {
		l.transition(p, from, to)
	}
}

// PushHead inserts page p at the head of list id, removing it from any
// list it was on. Pushing to None just removes the page.
func (l *PageLists) PushHead(id ListID, p memsim.PageID) {
	from := l.remove(p)
	if id != None {
		h := l.head[id]
		l.next[p] = h
		l.prev[p] = memsim.NoPage
		if h != memsim.NoPage {
			l.prev[h] = p
		} else {
			l.tail[id] = p
		}
		l.head[id] = p
		l.list[p] = id
		l.size[id]++
	}
	l.notify(p, from, id)
}

// FromTail visits up to n pages of list id starting at the tail (the
// coldest end) and moving toward the head, stopping early if visit
// returns false. visit must not mutate the lists; collect pages first and
// mutate after (see CollectTail).
func (l *PageLists) FromTail(id ListID, n int, visit func(p memsim.PageID) bool) {
	p := l.tail[id]
	for i := 0; i < n && p != memsim.NoPage; i++ {
		nx := l.prev[p]
		if !visit(p) {
			return
		}
		p = nx
	}
}

// CollectTail returns up to n pages from the tail of list id, coldest
// first. The returned slice is freshly allocated and safe to mutate the
// lists with.
func (l *PageLists) CollectTail(id ListID, n int) []memsim.PageID {
	out := make([]memsim.PageID, 0, min(n, l.size[id]))
	l.FromTail(id, n, func(p memsim.PageID) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Age performs one second-chance aging pass over tier t, inspecting up to
// scan pages from each of the tier's two lists (tail end):
//
//   - an inactive page whose referenced bit is set is promoted to the
//     head of the active list;
//   - an active page whose referenced bit is clear is demoted to the head
//     of the inactive list;
//   - otherwise the page rotates to the head of its own list.
//
// referenced must report-and-clear the page's accessed bit (e.g.
// Machine.TestAndClearAccessed). This mirrors the kernel's
// shrink_active_list/shrink_inactive_list flow closely enough for the
// scanning-based baselines and for ArtMem's recency ordering.
func (l *PageLists) Age(t memsim.TierID, scan int, referenced func(memsim.PageID) bool) {
	active, inactive := ActiveOf(t), InactiveOf(t)
	l.agePass(active, active, inactive, scan, referenced)
	l.agePass(inactive, active, inactive, scan, referenced)
}

// chain is a detached run of linked pages, built by prepending.
type chain struct {
	head, tail memsim.PageID
	n          int
}

// agePass ages up to scan pages from the tail of src in one walk. Each
// page is prepended to the active or the inactive chain as it is
// visited, so each chain keeps the pages' head→tail order. The scanned
// segment is then cut off src and each chain spliced onto the head of its
// list — the same lists, order and hook events as taking the pages off
// the tail one by one and pushing each onto the head of its destination.
func (l *PageLists) agePass(src, active, inactive ListID, scan int, referenced func(memsim.PageID) bool) {
	n := min(scan, l.size[src])
	if n <= 0 {
		return
	}
	act := chain{head: memsim.NoPage, tail: memsim.NoPage}
	inact := act
	p := l.tail[src]
	for i := 0; i < n; i++ {
		pr := l.prev[p]
		dst, c := inactive, &inact
		if referenced(p) {
			dst, c = active, &act
		}
		l.prev[p], l.next[p] = memsim.NoPage, c.head
		if c.head != memsim.NoPage {
			l.prev[c.head] = p
		} else {
			c.tail = p
		}
		c.head = p
		c.n++
		if l.list[p] != dst {
			from := l.list[p]
			l.list[p] = dst
			l.notify(p, from, dst)
		}
		p = pr
	}
	// p is now the coldest unscanned page of src (its new tail), or NoPage.
	l.tail[src] = p
	if p != memsim.NoPage {
		l.next[p] = memsim.NoPage
	} else {
		l.head[src] = memsim.NoPage
	}
	l.size[src] -= n
	l.spliceHead(active, act)
	l.spliceHead(inactive, inact)
}

// spliceHead links chain c in front of the head of list id. The chain's
// pages must already claim id in l.list.
func (l *PageLists) spliceHead(id ListID, c chain) {
	if c.n == 0 {
		return
	}
	h := l.head[id]
	l.next[c.tail] = h
	if h != memsim.NoPage {
		l.prev[h] = c.tail
	} else {
		l.tail[id] = c.tail
	}
	l.head[id] = c.head
	l.size[id] += c.n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
