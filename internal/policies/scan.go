package policies

import (
	"sort"

	"artmem/internal/lru"
	"artmem/internal/memsim"
)

// This file implements the two page-table-scanning baselines. Both learn
// about accesses only from the page table's accessed bits, cleared on
// each scan — one bit of information per page per scan period, which is
// why the paper finds them "slower in recognizing hot regions when the
// hot areas are small but intensely accessed" (§3.1).

// nimbleBatchTicks is how many scan periods elapse between Nimble's
// batch migrations.
const nimbleBatchTicks = 8

// ---- Multi-clock -------------------------------------------------------------

// MultiClock models MULTI-CLOCK (Table 1: "candidate LRU lists"): each
// tier runs a CLOCK over its pages, and the slow tier keeps an extra
// *candidate* stage — a page referenced in one scan becomes a promotion
// candidate, and only if it is referenced again in a subsequent scan is
// it promoted. The double-confirmation makes promotions precise (no
// one-touch pages move up) but slow to cover large or warm hot sets:
// the paper observes it "fails to migrate 82% of the pages" on S4.
type MultiClock struct {
	base
	candidate []bool
}

// NewMultiClock returns the Multi-clock baseline.
func NewMultiClock() *MultiClock { return &MultiClock{} }

// Name implements Policy.
func (mc *MultiClock) Name() string { return "Multi-clock" }

// Attach implements Policy.
func (mc *MultiClock) Attach(m *memsim.Machine) { mc.AttachEnv(m) }

// AttachEnv implements EnvPolicy.
func (mc *MultiClock) AttachEnv(m memsim.Env) {
	mc.attach(m)
	mc.candidate = make([]bool, m.NumPages())
}

// Tick implements Policy: one CLOCK sweep per tier.
func (mc *MultiClock) Tick(now int64) {
	m := mc.m
	// Fast tier: ordinary two-list aging; unreferenced pages drift to
	// the inactive tail where demotion picks them up.
	mc.lists.Age(memsim.Fast, mc.scanQuota, m.TestAndClearAccessed)
	// Slow tier: referenced pages climb the candidate ladder.
	promoted := 0
	scan := mc.lists.CollectTail(lru.SlowActive, mc.scanQuota)
	scan = append(scan, mc.lists.CollectTail(lru.SlowInactive, mc.scanQuota)...)
	m.ChargeBackground(float64(len(scan)+mc.scanQuota) * scanCostPerPageNs)
	for _, p := range scan {
		if m.TestAndClearAccessed(p) {
			if mc.candidate[p] {
				// Second confirmation: promote.
				if promoted < mc.migQuota {
					if m.FreePages(memsim.Fast) == 0 {
						mc.demoteForHeadroom(1, 2)
					}
					if mc.promote(p) {
						mc.candidate[p] = false
						promoted++
						continue
					}
				}
				// Quota exhausted: stay a candidate.
				mc.lists.PushHead(lru.SlowActive, p)
			} else {
				mc.candidate[p] = true
				mc.lists.PushHead(lru.SlowActive, p)
			}
		} else {
			mc.candidate[p] = false
			mc.lists.PushHead(lru.SlowInactive, p)
		}
	}
}

// ---- Nimble --------------------------------------------------------------------

// Nimble models Nimble Page Management (Table 1: "batch migration"):
// accessed bits are folded into an n-bit per-page history each scan, and
// every few scans the hottest slow pages are exchanged wholesale with
// the coldest fast pages using Nimble's fast multi-page exchange path.
// Throughput is high, but hotness differentiation needs several scans of
// history — the weakness patterns S2/S3 expose ("Nimble's disadvantage
// of slow page hotness differentiation", §3.1).
type Nimble struct {
	base
	history []uint8
	ticks   int
}

// NewNimble returns the Nimble baseline.
func NewNimble() *Nimble { return &Nimble{} }

// Name implements Policy.
func (n *Nimble) Name() string { return "Nimble" }

// Attach implements Policy.
func (n *Nimble) Attach(m *memsim.Machine) { n.AttachEnv(m) }

// AttachEnv implements EnvPolicy.
func (n *Nimble) AttachEnv(m memsim.Env) {
	n.attach(m)
	n.history = make([]uint8, m.NumPages())
}

// hotness is the popcount of the history byte: scans-with-access out of
// the last eight.
func hotness(h uint8) int {
	c := 0
	for ; h != 0; h &= h - 1 {
		c++
	}
	return c
}

// Tick implements Policy.
func (n *Nimble) Tick(now int64) {
	m := n.m
	// Fold this scan's accessed bits into the history of every page.
	for p := 0; p < m.NumPages(); p++ {
		pid := memsim.PageID(p)
		if !m.Allocated(pid) {
			continue
		}
		bit := uint8(0)
		if m.TestAndClearAccessed(pid) {
			bit = 1
		}
		n.history[p] = n.history[p]<<1 | bit
	}
	m.ChargeBackground(float64(m.NumPages()) * scanCostPerPageNs)
	n.ticks++
	if n.ticks%nimbleBatchTicks != 0 {
		return
	}
	// Batch exchange: hottest slow pages vs coldest fast pages.
	type scored struct {
		p memsim.PageID
		h int
	}
	var hotSlow, fastPages []scored
	for p := 0; p < m.NumPages(); p++ {
		pid := memsim.PageID(p)
		if !m.Allocated(pid) {
			continue
		}
		s := scored{pid, hotness(n.history[p])}
		if m.TierOf(pid) == memsim.Slow {
			if s.h >= 4 { // needs half the history window: slow differentiation
				hotSlow = append(hotSlow, s)
			}
		} else {
			fastPages = append(fastPages, s)
		}
	}
	sort.Slice(hotSlow, func(i, j int) bool { return hotSlow[i].h > hotSlow[j].h })
	sort.Slice(fastPages, func(i, j int) bool { return fastPages[i].h < fastPages[j].h })
	// Batch migration: a larger per-batch budget, applied less often.
	quota := n.migQuota * 2
	vi := 0
	for _, s := range hotSlow {
		if quota == 0 {
			break
		}
		if m.FreePages(memsim.Fast) == 0 {
			// Exchange with the coldest fast page — but never evict a
			// page hotter than the one coming in.
			if vi >= len(fastPages) || fastPages[vi].h >= s.h {
				break
			}
			victim := fastPages[vi].p
			vi++
			if m.MovePage(victim, memsim.Slow) != nil {
				break
			}
			n.lists.PushHead(lru.SlowInactive, victim)
		}
		if n.promote(s.p) {
			quota--
		}
	}
}
