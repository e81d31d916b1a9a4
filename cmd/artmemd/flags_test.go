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
