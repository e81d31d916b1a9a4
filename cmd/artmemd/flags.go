package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Daemon modes, named after the flag that selects them. The single-agent
// mode is the default and has no flag.
const (
	modeSingle  = ""
	modeTenants = "tenants"
	modeTiers   = "tiers"
)

// daemonMode names the mode main dispatches to: -tenants wins over
// -tiers, and neither selects the single-agent mode.
func daemonMode(tenants, tiers string) string {
	switch {
	case tenants != "":
		return modeTenants
	case tiers != "":
		return modeTiers
	}
	return modeSingle
}

// flagModes lists the modes that read each mode-specific flag. Flags
// not listed (-listen, -div, -accesses, -shutdown-timeout, -version)
// apply in every mode.
var flagModes = map[string][]string{
	"workload":            {modeSingle, modeTiers},
	"ratio":               {modeSingle, modeTenants},
	"checkpoint":          {modeSingle},
	"checkpoint-interval": {modeSingle},
	"pagetrace":           {modeSingle},
	"serve":               {modeSingle, modeTenants},
	"spans":               {modeSingle, modeTenants},
	"tenants":             {modeTenants},
	"arbiter":             {modeTenants},
	"capacity":            {modeTenants},
	"tiers":               {modeTiers},
	"nonexclusive":        {modeTiers},
	"boundary-budget":     {modeTiers},
}

// checkModeFlags rejects a set flag that mode never reads, so an
// operator who asked for, say, checkpointing under -tenants hears about
// it instead of silently getting none. set holds the names of the flags
// given on the command line.
func checkModeFlags(mode string, set []string) error {
	for _, name := range set {
		modes, ok := flagModes[name]
		if !ok || slices.Contains(modes, mode) {
			continue
		}
		if mode == modeSingle {
			return fmt.Errorf("flag -%s has no effect without -%s", name, modes[0])
		}
		return fmt.Errorf("flag -%s has no effect with -%s", name, mode)
	}
	if slices.Contains(set, "spans") && !slices.Contains(set, "serve") {
		return fmt.Errorf("flag -spans has no effect without -serve")
	}
	return nil
}

// maxRatioShare bounds each side of -ratio so footprint × share cannot
// overflow int64.
const maxRatioShare = 1 << 16

// parseRatio reads -ratio's DRAM:PM split. The DRAM share must be at
// least 1, since the fast tier needs a page; a PM share of 0 runs DRAM
// only.
func parseRatio(s string) (fast, slow int, err error) {
	f, sl, ok := strings.Cut(s, ":")
	if ok {
		fast, err = strconv.Atoi(f)
		if err == nil {
			slow, err = strconv.Atoi(sl)
		}
	}
	if !ok || err != nil || fast < 1 || slow < 0 || fast > maxRatioShare || slow > maxRatioShare {
		return 0, 0, fmt.Errorf("bad -ratio %q: want DRAM:PM with 1 <= DRAM <= %d and 0 <= PM <= %d",
			s, maxRatioShare, maxRatioShare)
	}
	return fast, slow, nil
}

// checkCounts rejects out-of-range numeric flags: -div divides the
// paper's footprint, so it must be at least 1, and -capacity,
// -boundary-budget, -pagetrace and -spans, whose 0 means "default" or
// "off", must not be negative.
func checkCounts(div int64, capacity, boundaryBudget, pagetrace, spans int) error {
	if div < 1 {
		return fmt.Errorf("bad -div %d: want >= 1", div)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"capacity", capacity},
		{"boundary-budget", boundaryBudget},
		{"pagetrace", pagetrace},
		{"spans", spans},
	} {
		if f.v < 0 {
			return fmt.Errorf("bad -%s %d: want >= 0", f.name, f.v)
		}
	}
	return nil
}

// ratioFastBytes is the fast tier's share of foot under -ratio
// fast:slow, at least one page.
func ratioFastBytes(foot, pageSize int64, fast, slow int) int64 {
	return max(foot*int64(fast)/int64(fast+slow), pageSize)
}
