package main

import "testing"

// TestCheckCounts drives the flag check alone: no server or client
// starts, so extreme values cost nothing.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		name                                               string
		div, accesses                                      int64
		clients, batch, window, tenant, tenants, queue, sp int
		want                                               string // "" = accepted
	}{
		{"defaults", 256, 200_000, 8, 4096, 8, 0, 0, 0, 0, ""},
		{"zeros", 1, 0, 0, 0, 0, 0, 0, 0, 0, ""},
		{"all set", 1, 1, 64, 1, 1, 3, 4, 1024, 16, ""},
		{"div zero", 0, 1, 8, 4096, 8, 0, 0, 0, 0, "bad -div 0: want >= 1"},
		{"div negative", -1, 1, 8, 4096, 8, 0, 0, 0, 0, "bad -div -1: want >= 1"},
		{"accesses negative", 256, -5, 8, 4096, 8, 0, 0, 0, 0, "bad -accesses -5: want >= 0"},
		{"clients negative", 256, 1, -1, 4096, 8, 0, 0, 0, 0, "bad -clients -1: want >= 0"},
		{"batch negative", 256, 1, 8, -3, -2, 0, 0, 0, 0, "bad -batch -3: want >= 0"},
		{"window negative", 256, 1, 8, 4096, -2, 0, 0, 0, 0, "bad -window -2: want >= 0"},
		{"tenant negative", 256, 1, 8, 4096, 8, -1, 0, 0, 0, "bad -tenant -1: want >= 0"},
		{"tenants negative", 256, 1, 8, 4096, 8, 0, -2, 0, 0, "bad -tenants -2: want >= 0"},
		{"queue negative", 256, 1, 8, 4096, 8, 0, 0, -1, 0, "bad -queue -1: want >= 0"},
		{"spans negative", 256, 1, 8, 4096, 8, 0, 0, 0, -4, "bad -spans -4: want >= 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkCounts(c.div, c.accesses, c.clients, c.batch, c.window, c.tenant, c.tenants, c.queue, c.sp)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}
