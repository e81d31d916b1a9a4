package tier

import (
	"fmt"
	"strconv"
	"strings"
)

// Canonical renders the chain in fully explicit spec form — every
// latency, bandwidth and capacity spelled out, fixed option order — so
// that equal chains render identically regardless of how they were
// written. For a valid chain, ParseChain(c.Canonical()) reproduces c
// exactly, which makes it the round-trip reference of the parser tests.
func (c Chain) Canonical() string {
	var b strings.Builder
	for i := range c {
		d := &c[i]
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%s:lat=%s,rbw=%s,wbw=%s",
			d.Name, ftoa(d.LatencyNs), ftoa(d.ReadBWGBs), ftoa(d.WriteBWGBs))
		switch {
		case d.CapacityPages > 0:
			fmt.Fprintf(&b, ",cap=%d", d.CapacityPages)
		case d.CapacityPct > 0:
			fmt.Fprintf(&b, ",cap=%s%%", ftoa(d.CapacityPct))
		}
	}
	return b.String()
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Total returns the number of shadow frames across all tiers.
func (s *ShadowTable) Total() int {
	n := 0
	for _, stack := range s.byTier {
		n += len(stack)
	}
	return n
}
