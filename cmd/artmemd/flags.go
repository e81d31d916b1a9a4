package main

import (
	"fmt"
	"slices"

	"artmem/internal/harness"
)

// Daemon modes, named after the flag that selects them. The
// single-tenant mode is the default and has no flag; it runs any tier
// chain (-tiers), one agent per boundary.
const (
	modeSingle  = ""
	modeTenants = "tenants"
)

// daemonMode names the mode main dispatches to: -tenants selects the
// multi-tenant mode, its absence the single-tenant one.
func daemonMode(tenants string) string {
	if tenants != "" {
		return modeTenants
	}
	return modeSingle
}

// flagModes lists the modes that read each mode-specific flag. Flags
// not listed (-listen, -div, -accesses, -shutdown-timeout, -version)
// apply in every mode.
var flagModes = map[string][]string{
	"workload":            {modeSingle},
	"ratio":               {modeSingle, modeTenants},
	"checkpoint":          {modeSingle},
	"checkpoint-interval": {modeSingle},
	"pagetrace":           {modeSingle},
	"serve":               {modeSingle, modeTenants},
	"spans":               {modeSingle, modeTenants},
	"tenants":             {modeTenants},
	"arbiter":             {modeTenants},
	"capacity":            {modeTenants},
	"tiers":               {modeSingle},
	"nonexclusive":        {modeSingle},
	"boundary-budget":     {modeSingle},
}

// flagNeeds pairs each flag that only takes effect beside another flag
// with that flag.
var flagNeeds = [][2]string{
	{"spans", "serve"},
	{"nonexclusive", "tiers"},
	{"boundary-budget", "tiers"},
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
	for _, n := range flagNeeds {
		if slices.Contains(set, n[0]) && !slices.Contains(set, n[1]) {
			return fmt.Errorf("flag -%s has no effect without -%s", n[0], n[1])
		}
	}
	if slices.Contains(set, "ratio") && slices.Contains(set, "tiers") {
		// The chain spec sizes every tier itself.
		return fmt.Errorf("flag -ratio has no effect with -tiers")
	}
	return nil
}

// checkChainFlags rejects the one-agent features on a -tiers chain of
// more than two tiers, which runs one agent per boundary: a Q-table
// checkpoint holds one agent's tables, and several agents would
// journal the same pages twice.
func checkChainFlags(spec string, tiers int, set []string) error {
	if tiers <= 2 {
		return nil
	}
	for _, name := range []string{"checkpoint", "pagetrace"} {
		if slices.Contains(set, name) {
			return fmt.Errorf("flag -%s needs a two-tier machine; -tiers %s has %d tiers", name, spec, tiers)
		}
	}
	return nil
}

// checkCounts rejects out-of-range numeric flags: -div divides the
// paper's footprint, so it must be at least 1, and -accesses,
// -capacity, -boundary-budget, -pagetrace and -spans, whose 0 means
// "default", "off" or (for -accesses) "serve only", must not be
// negative.
func checkCounts(div, accesses int64, capacity, boundaryBudget, pagetrace, spans int) error {
	if div < 1 {
		return fmt.Errorf("bad -div %d: want >= 1", div)
	}
	if accesses < 0 {
		return fmt.Errorf("bad -accesses %d: want >= 0", accesses)
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

// ratioFastBytes is the fast tier's share of foot under -ratio r, at
// least one page.
func ratioFastBytes(foot, pageSize int64, r harness.Ratio) int64 {
	return max(r.FastBytes(foot), pageSize)
}
