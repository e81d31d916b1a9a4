package memsim

import "math/bits"

// cacheModel approximates a CPU last-level cache with a direct-mapped tag
// array over 64-byte lines. An access hits when the line's tag is still
// resident at its slot; conflicting lines evict each other, which makes
// the model behave like a cache of roughly `lines` lines under typical
// mixing of addresses.
//
// The model exists so that accesses with high temporal locality are
// absorbed before they reach memory, exactly as on real hardware — PEBS
// only samples memory loads, and ArtMem's state machine has a dedicated
// state for "no events sampled (most accesses hit in the CPU cache)"
// (paper §4.2). It deliberately stays cheap: one array read and write per
// access.
//
// A slot holds a 16-bit tag, not the line, so the array of the default
// 2^18 slots is 512 KiB and stays in the host's L2 cache. The tag is
// exact: with 2^s slots a line's slot is (line·K) mod 2^s for an odd K,
// a bijection on the line's low s bits, so the slot fixes those bits and
// the tag only has to name the rest. The tag is (line >> s) + 1, with 0
// marking an empty slot, which holds for every line below
// maxCacheTag·2^s; Config.Validate bounds the footprint to that many
// lines, and Machine.Access wraps a stray address into the footprint
// before taking its line.
type cacheModel struct {
	tags  []uint16
	mask  uint64
	shift uint // log2(len(tags)): the line bits the slot fixes
}

// maxCacheTag is the largest tag; tag 0 marks an empty slot.
const maxCacheTag = 1<<16 - 1

// cacheSlotBits returns s for a model of the given line count: its tag
// array has 2^s slots, the next power of two ≥ lines.
func cacheSlotBits(lines int) uint {
	if lines <= 1 {
		return 0
	}
	return uint(bits.Len(uint(lines - 1)))
}

// slot mixes a line's bits so pages do not all map to the same
// region of the tag array (line addresses are strongly structured). The
// multiplier is odd, which is what makes the 16-bit tags exact.
func (c *cacheModel) slot(line uint64) uint64 {
	return (line * 0x9e3779b97f4a7c15) & c.mask
}

// tag returns the 16-bit tag a line stores at its slot.
func (c *cacheModel) tag(line uint64) uint16 { return uint16(line>>c.shift) + 1 }

// init sizes the tag array to the next power of two ≥ lines, every slot
// empty.
func (c *cacheModel) init(lines int) {
	c.shift = cacheSlotBits(lines)
	c.tags = make([]uint16, 1<<c.shift)
	c.mask = uint64(len(c.tags) - 1)
}

// lookup returns true on a cache hit for the given line address and
// installs the line on a miss.
func (c *cacheModel) lookup(line uint64) bool {
	if c.tags == nil {
		return false
	}
	slot, tag := c.slot(line), c.tag(line)
	if c.tags[slot] == tag {
		return true
	}
	c.tags[slot] = tag
	return false
}

// evictLines invalidates n consecutive line addresses starting at
// startLine, leaving unrelated resident lines alone. Used when a page
// is freed so its contents do not survive into the address range's next
// owner. O(n) hashes; only the reclamation path calls it.
func (c *cacheModel) evictLines(startLine uint64, n int64) {
	if c.tags == nil {
		return
	}
	for i := int64(0); i < n; i++ {
		line := startLine + uint64(i)
		if slot := c.slot(line); c.tags[slot] == c.tag(line) {
			c.tags[slot] = 0
		}
	}
}
