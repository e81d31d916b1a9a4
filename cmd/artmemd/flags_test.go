package main

import "testing"

// TestCheckModeFlags pins the per-mode flag table: a flag the selected
// mode never reads is a usage error naming the flag and the mode, and
// every flag a mode does read passes.
func TestCheckModeFlags(t *testing.T) {
	for _, c := range []struct {
		name          string
		tenants, tier string
		set           []string
		want          string // "" = accepted
	}{
		{"single defaults", "", "", nil, ""},
		{"single reads its flags", "", "",
			[]string{"workload", "ratio", "checkpoint", "checkpoint-interval", "pagetrace", "serve", "spans", "listen", "div", "accesses", "shutdown-timeout"}, ""},
		{"tenants reads its flags", "S2,YCSB", "",
			[]string{"tenants", "arbiter", "capacity", "ratio", "serve", "spans", "listen"}, ""},
		{"tiers reads its flags", "", "DRAM/PM",
			[]string{"tiers", "nonexclusive", "boundary-budget", "workload", "div", "accesses"}, ""},
		{"checkpoint under tenants", "S2", "", []string{"tenants", "checkpoint"},
			"flag -checkpoint has no effect with -tenants"},
		{"pagetrace under tiers", "", "DRAM/PM", []string{"tiers", "pagetrace"},
			"flag -pagetrace has no effect with -tiers"},
		{"checkpoint interval under tiers", "", "DRAM/PM", []string{"tiers", "checkpoint-interval"},
			"flag -checkpoint-interval has no effect with -tiers"},
		{"serve under tiers", "", "DRAM/PM", []string{"tiers", "serve"},
			"flag -serve has no effect with -tiers"},
		{"tiers loses to tenants", "S2", "DRAM/PM", []string{"tenants", "tiers"},
			"flag -tiers has no effect with -tenants"},
		{"workload under tenants", "S2", "", []string{"tenants", "workload"},
			"flag -workload has no effect with -tenants"},
		{"ratio under tiers", "", "DRAM/PM", []string{"tiers", "ratio"},
			"flag -ratio has no effect with -tiers"},
		{"arbiter outside tenants", "", "", []string{"arbiter"},
			"flag -arbiter has no effect without -tenants"},
		{"capacity outside tenants", "", "DRAM/PM", []string{"tiers", "capacity"},
			"flag -capacity has no effect with -tiers"},
		{"nonexclusive outside tiers", "", "", []string{"nonexclusive"},
			"flag -nonexclusive has no effect without -tiers"},
		{"boundary budget outside tiers", "S2", "", []string{"tenants", "boundary-budget"},
			"flag -boundary-budget has no effect with -tenants"},
		{"spans without serve", "", "", []string{"spans"},
			"flag -spans has no effect without -serve"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkModeFlags(daemonMode(c.tenants, c.tier), c.set)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// TestCheckCounts pins the numeric flag ranges: -div at least 1, the
// count flags at least 0, and the first bad flag named in the error.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		name                               string
		div                                int64
		capacity, budget, pagetrace, spans int
		want                               string // "" = accepted
	}{
		{"defaults", 256, 0, 0, 0, 0, ""},
		{"all set", 1, 8, 64, 16, 4, ""},
		{"div zero", 0, 0, 0, 0, 0, "bad -div 0: want >= 1"},
		{"div negative", -1, 0, 0, 0, 0, "bad -div -1: want >= 1"},
		{"capacity negative", 256, -1, 0, 0, 0, "bad -capacity -1: want >= 0"},
		{"boundary budget negative", 256, 0, -3, 0, 0, "bad -boundary-budget -3: want >= 0"},
		{"pagetrace negative", 256, 0, 0, -1, 0, "bad -pagetrace -1: want >= 0"},
		{"spans negative", 256, 0, 0, 0, -1, "bad -spans -1: want >= 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkCounts(c.div, c.capacity, c.budget, c.pagetrace, c.spans)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// TestParseRatio pins -ratio's accepted forms: a DRAM share of at least
// 1, a PM share of at least 0 (1:0 is DRAM only), and nothing trailing.
func TestParseRatio(t *testing.T) {
	for _, c := range []struct {
		in         string
		fast, slow int
		ok         bool
	}{
		{"1:4", 1, 4, true},
		{"1:0", 1, 0, true},
		{"2:1", 2, 1, true},
		{"0:0", 0, 0, false},
		{"0:4", 0, 0, false},
		{"1:-1", 0, 0, false},
		{"-1:4", 0, 0, false},
		{"1:4x", 0, 0, false},
		{"1", 0, 0, false},
		{"", 0, 0, false},
		{"1:4:2", 0, 0, false},
		{"1:100000", 0, 0, false},
	} {
		fast, slow, err := parseRatio(c.in)
		if (err == nil) != c.ok || fast != c.fast || slow != c.slow {
			t.Errorf("parseRatio(%q) = %d, %d, %v; want %d, %d, ok=%v",
				c.in, fast, slow, err, c.fast, c.slow, c.ok)
		}
	}
	// A DRAM share below one page still gives the fast tier a page.
	if got := ratioFastBytes(8<<10, 4<<10, 1, 4); got != 4<<10 {
		t.Errorf("ratioFastBytes(8K, 4K page, 1:4) = %d, want one page", got)
	}
}
