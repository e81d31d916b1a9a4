package main

import (
	"testing"

	"artmem/internal/harness"
)

// TestCheckModeFlags pins the per-mode flag table: a flag the selected
// mode never reads, or one set without the flag it works beside, is a
// usage error naming both, and every flag a mode does read passes. The
// single-tenant mode reads -tiers and the chain flags; -ratio does not
// combine with -tiers, whose spec sizes every tier.
func TestCheckModeFlags(t *testing.T) {
	for _, c := range []struct {
		name    string
		tenants string
		set     []string
		want    string // "" = accepted
	}{
		{"single defaults", "", nil, ""},
		{"single reads its flags", "",
			[]string{"workload", "ratio", "checkpoint", "checkpoint-interval", "pagetrace", "serve", "spans", "listen", "div", "accesses", "shutdown-timeout"}, ""},
		{"tenants reads its flags", "S2,YCSB",
			[]string{"tenants", "arbiter", "capacity", "ratio", "serve", "spans", "listen"}, ""},
		{"tiers reads its flags", "",
			[]string{"tiers", "nonexclusive", "boundary-budget", "workload", "div", "accesses"}, ""},
		{"checkpoint under tenants", "S2", []string{"tenants", "checkpoint"},
			"flag -checkpoint has no effect with -tenants"},
		{"pagetrace under tiers", "", []string{"tiers", "pagetrace"}, ""},
		{"checkpoint interval under tiers", "", []string{"tiers", "checkpoint", "checkpoint-interval"}, ""},
		{"serve under tiers", "", []string{"tiers", "serve", "spans"}, ""},
		{"tiers loses to tenants", "S2", []string{"tenants", "tiers"},
			"flag -tiers has no effect with -tenants"},
		{"workload under tenants", "S2", []string{"tenants", "workload"},
			"flag -workload has no effect with -tenants"},
		{"ratio under tiers", "", []string{"tiers", "ratio"},
			"flag -ratio has no effect with -tiers"},
		{"arbiter outside tenants", "", []string{"arbiter"},
			"flag -arbiter has no effect without -tenants"},
		{"capacity outside tenants", "", []string{"tiers", "capacity"},
			"flag -capacity has no effect without -tenants"},
		{"nonexclusive outside tiers", "", []string{"nonexclusive"},
			"flag -nonexclusive has no effect without -tiers"},
		{"boundary budget outside tiers", "S2", []string{"tenants", "boundary-budget"},
			"flag -boundary-budget has no effect with -tenants"},
		{"boundary budget without tiers", "", []string{"boundary-budget"},
			"flag -boundary-budget has no effect without -tiers"},
		{"spans without serve", "", []string{"spans"},
			"flag -spans has no effect without -serve"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkModeFlags(daemonMode(c.tenants), c.set)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// TestCheckChainFlags pins the one-agent features' rule: -checkpoint
// and -pagetrace work on a two-tier -tiers machine (one boundary, one
// agent) and exit on a longer chain.
func TestCheckChainFlags(t *testing.T) {
	const spec = "DRAM:12.5%/CXL:25%/PM"
	for _, c := range []struct {
		tiers int
		set   []string
		want  string // "" = accepted
	}{
		{2, []string{"tiers", "checkpoint", "pagetrace"}, ""},
		{3, []string{"tiers", "serve", "spans", "nonexclusive", "boundary-budget"}, ""},
		{3, []string{"tiers", "checkpoint"}, "flag -checkpoint needs a two-tier machine; -tiers " + spec + " has 3 tiers"},
		{4, []string{"tiers", "pagetrace"}, "flag -pagetrace needs a two-tier machine; -tiers " + spec + " has 4 tiers"},
	} {
		err := checkChainFlags(spec, c.tiers, c.set)
		if (c.want == "" && err != nil) || (c.want != "" && (err == nil || err.Error() != c.want)) {
			t.Errorf("checkChainFlags(%d tiers, %v) = %v, want %q", c.tiers, c.set, err, c.want)
		}
	}
}

// TestCheckCounts pins the numeric flag ranges: -div at least 1, the
// count flags at least 0 (-accesses 0 is serve-only), and the first bad
// flag named in the error.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		name                               string
		div, accesses                      int64
		capacity, budget, pagetrace, spans int
		want                               string // "" = accepted
	}{
		{"defaults", 256, 3_000_000, 0, 0, 0, 0, ""},
		{"all set", 1, 1, 8, 64, 16, 4, ""},
		{"serve only", 256, 0, 0, 0, 0, 0, ""},
		{"div zero", 0, 0, 0, 0, 0, 0, "bad -div 0: want >= 1"},
		{"div negative", -1, 0, 0, 0, 0, 0, "bad -div -1: want >= 1"},
		{"accesses negative", 256, -5, 0, 0, 0, 0, "bad -accesses -5: want >= 0"},
		{"capacity negative", 256, 0, -1, 0, 0, 0, "bad -capacity -1: want >= 0"},
		{"boundary budget negative", 256, 0, 0, -3, 0, 0, "bad -boundary-budget -3: want >= 0"},
		{"pagetrace negative", 256, 0, 0, 0, -1, 0, "bad -pagetrace -1: want >= 0"},
		{"spans negative", 256, 0, 0, 0, 0, -1, "bad -spans -1: want >= 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkCounts(c.div, c.accesses, c.capacity, c.budget, c.pagetrace, c.spans)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// TestRatioFastBytes: a DRAM share below one page still gives the fast
// tier a page. The -ratio rule itself is harness.ParseRatio's.
func TestRatioFastBytes(t *testing.T) {
	if got := ratioFastBytes(8<<10, 4<<10, harness.Ratio{Fast: 1, Slow: 4}); got != 4<<10 {
		t.Errorf("ratioFastBytes(8K, 4K page, 1:4) = %d, want one page", got)
	}
	if got := ratioFastBytes(5<<20, 4<<10, harness.Ratio{Fast: 1, Slow: 4}); got != 1<<20 {
		t.Errorf("ratioFastBytes(5M, 4K page, 1:4) = %d, want 1M", got)
	}
}
