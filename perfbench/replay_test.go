package main

import (
	"reflect"
	"testing"

	"artmem/internal/harness"
	"artmem/internal/policies"
	"artmem/internal/workloads"
)

// shortCell shrinks a benchmark replay cell to test size, keeping its
// workload, machine shape and agents.
func shortCell(mk func(seed uint64) replayCell, name string, seed uint64) replayCell {
	rc := mk(seed)
	p := workloads.Profile{Div: 256, PatternAccesses: 2_000_000, AppAccesses: 2_000_000, Seed: seed}
	spec, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	rc.NewWorkload = func() workloads.Workload { return spec.New(p) }
	rc.Config.PageSize = p.PageSize()
	rc.WarmAccesses = 300_000
	return rc
}

// TestReplayMatchesHarness pins that the benchmark's instrumented
// replay loop is the repository's replay loop: on a short cell, its
// Result equals harness.Run's (replay) and harness.RunTiered's
// (replay-chain) field for field, traced or not.
func TestReplayMatchesHarness(t *testing.T) {
	for _, tc := range []struct {
		name string
		rc   replayCell
		want func(rc replayCell) harness.Result
	}{
		{"replay", shortCell(replayXSBench, "XSBench", 3), func(rc replayCell) harness.Result {
			return harness.Run(rc.NewWorkload(), rc.newAgent(0), rc.Config)
		}},
		{"replay-chain", shortCell(replayChainS2, "S2", 3), func(rc replayCell) harness.Result {
			return harness.RunTiered(rc.NewWorkload(), func(b int) policies.EnvPolicy { return rc.newAgent(b) }, rc.Config)
		}},
	} {
		want := tc.want(tc.rc)
		if want.Ticks == 0 || want.Migrations == 0 {
			t.Fatalf("%s: short cell too small to exercise the agent: %+v", tc.name, want)
		}
		got, rt := tc.rc.replay()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replay differs from the harness\n got %s\nwant %s",
				tc.name, fingerprint(got), fingerprint(want))
		}
		if rt.invariantErr != nil {
			t.Errorf("%s: %v", tc.name, rt.invariantErr)
		}
		if rt.accesses == 0 || rt.accesses >= got.Accesses || len(rt.ticks) == 0 {
			t.Errorf("%s: timed phase replayed %d of %d accesses over %d ticks; want a proper suffix with ticks",
				tc.name, rt.accesses, got.Accesses, len(rt.ticks))
		}
		for _, traced := range []bool{false, true} {
			c := tc.rc.run(traced)
			if c.fingerprint != fingerprint(want) || len(c.errs) > 0 {
				t.Errorf("%s traced=%v: cell differs from the harness (errors %v)\n got %s\nwant %s",
					tc.name, traced, c.errs, c.fingerprint, fingerprint(want))
			}
		}
	}
}

// TestTracedChainLayers checks a traced replay-chain cell reports the
// tier layer's shadow transactions and accounts for its timed wall
// time layer by layer.
func TestTracedChainLayers(t *testing.T) {
	c := shortCell(replayChainS2, "S2", 5).run(true)
	l := c.layers
	if l["tier.shadow_discards"] == 0 || l["tier.shadow_invalidates"] == 0 {
		t.Errorf("no shadow-copy transactions: %v", l)
	}
	if cov := l["bench.layer_coverage"]; cov < 0.95 || cov > 1.05 {
		t.Errorf("layer shares cover %.4f of the timed wall time; want within 5%%", cov)
	}
}
