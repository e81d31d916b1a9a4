package damon

import "fmt"

// CheckInvariants verifies the region list partitions the address space
// exactly.
func (mon *Monitor) CheckInvariants() error {
	if len(mon.regions) == 0 {
		return fmt.Errorf("damon: no regions")
	}
	if mon.regions[0].Start != 0 {
		return fmt.Errorf("damon: first region starts at %d", mon.regions[0].Start)
	}
	for i, r := range mon.regions {
		if r.End <= r.Start {
			return fmt.Errorf("damon: empty region %d [%d,%d)", i, r.Start, r.End)
		}
		if i > 0 && r.Start != mon.regions[i-1].End {
			return fmt.Errorf("damon: gap/overlap between regions %d and %d", i-1, i)
		}
	}
	if last := mon.regions[len(mon.regions)-1].End; int(last) != mon.m.NumPages() {
		return fmt.Errorf("damon: coverage ends at %d of %d pages", last, mon.m.NumPages())
	}
	if len(mon.regions) > mon.cfg.MaxRegions {
		return fmt.Errorf("damon: %d regions exceed max %d", len(mon.regions), mon.cfg.MaxRegions)
	}
	return nil
}
