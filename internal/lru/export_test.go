package lru

import "artmem/internal/memsim"

// TierOf returns the tier a list belongs to. It panics for None.
func TierOf(id ListID) memsim.TierID {
	switch id {
	case FastActive, FastInactive:
		return memsim.Fast
	case SlowActive, SlowInactive:
		return memsim.Slow
	}
	panic("lru: TierOf(None)")
}

// Remove takes page p off whatever list it is on. Removing an unlisted
// page is a no-op.
func (l *PageLists) Remove(p memsim.PageID) {
	if from := l.remove(p); from != None && l.transition != nil {
		l.transition(p, from, None)
	}
}
